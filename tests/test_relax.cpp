// Tests for core/relax.hpp: finite-difference geometry relaxation.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/relax.hpp"
#include "grid/structure.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

RelaxOptions fast_options() {
  RelaxOptions opt;
  opt.scf.tier = basis::BasisTier::Minimal;
  opt.scf.grid.radial_points = 32;
  opt.scf.grid.angular_degree = 9;
  opt.scf.poisson.radial_points = 64;
  opt.scf.density_tolerance = 1e-8;
  opt.scf.max_iterations = 150;
  opt.force_tolerance = 3e-3;
  return opt;
}

grid::Structure h2_at(double r) {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.5 * r});
  s.add_atom(1, {0, 0, 0.5 * r});
  return s;
}

TEST(Relax, H2FindsEquilibriumFromBothSides) {
  const auto opt = fast_options();
  const RelaxResult from_short = relax_structure(h2_at(1.20), opt);
  const RelaxResult from_long = relax_structure(h2_at(1.75), opt);
  ASSERT_TRUE(from_short.converged);
  ASSERT_TRUE(from_long.converged);

  const double r_short =
      distance(from_short.structure.atom(0).pos, from_short.structure.atom(1).pos);
  const double r_long =
      distance(from_long.structure.atom(0).pos, from_long.structure.atom(1).pos);
  // Same minimum from both starting points...
  EXPECT_NEAR(r_short, r_long, 0.06);
  // ...in a physically sensible range for this basis (LDA H2 ~1.45 bohr).
  EXPECT_GT(r_short, 1.3);
  EXPECT_LT(r_short, 1.7);
  // Energies agree and beat the starting points.
  EXPECT_NEAR(from_short.energy, from_long.energy, 2e-4);
  EXPECT_GT(from_short.energy_evaluations, 10);
}

TEST(Relax, RelaxedEnergyIsLowerThanStart) {
  const auto opt = fast_options();
  const auto start = h2_at(1.20);
  const double e_start =
      scf::ScfSolver(start, opt.scf).run().total_energy;
  const RelaxResult res = relax_structure(start, opt);
  EXPECT_LT(res.energy, e_start - 1e-3);
  EXPECT_LT(res.max_force, 5.0 * opt.force_tolerance);
}

TEST(Relax, Validation) {
  grid::Structure single;
  single.add_atom(1, {0, 0, 0});
  EXPECT_THROW(relax_structure(single, fast_options()), Error);
}

TEST(DfptErrors, NoVirtualOrbitalsRejected) {
  // Minimal-basis H atom: one basis function, one (fractionally) occupied
  // orbital, zero virtuals -- DFPT must refuse cleanly.
  grid::Structure h;
  h.add_atom(1, {0, 0, 0});
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Minimal;
  opt.grid.radial_points = 30;
  opt.poisson.radial_points = 64;
  const auto ground = scf::ScfSolver(h, opt).run();
  ASSERT_TRUE(ground.converged);
  std::string serial_what;
  try {
    (void)core::DfptSolver(ground, {});
  } catch (const Error& e) {
    serial_what = e.what();
  }
  EXPECT_FALSE(serial_what.empty()) << "DfptSolver accepted the ground state";
  // The distributed solver shares the setup, so it refuses the same ground
  // state with the same error.
  core::ParallelDfptOptions popt;
  popt.ranks = 2;
  try {
    (void)core::solve_direction_parallel(ground, popt, 2);
    ADD_FAILURE() << "solve_direction_parallel accepted the ground state";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), serial_what);
  }
}

}  // namespace
