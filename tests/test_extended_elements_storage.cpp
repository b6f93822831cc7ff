// Tests for the second-row elements (P, S) and the legacy global-sparse
// storage mode of the distributed DFPT driver.

#include <gtest/gtest.h>

#include "basis/basis_set.hpp"
#include "basis/element.hpp"
#include "common/constants.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "core/vibrations.hpp"
#include "core/xyz.hpp"
#include "grid/molecular_grid.hpp"
#include "scf/integrator.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

TEST(SecondRow, SulfurAndPhosphorusDefinitions) {
  const auto s = basis::ElementBasis::standard(16, basis::BasisTier::Minimal);
  EXPECT_EQ(s.function_count(), 9u);  // 1s 2s 2p 3s 3p
  double occ = 0.0;
  for (const auto& sh : s.shells) occ += sh.occupation;
  EXPECT_DOUBLE_EQ(occ, 16.0);

  const auto p = basis::ElementBasis::standard(15, basis::BasisTier::Light);
  EXPECT_EQ(p.function_count(), 14u);  // + 3d
  occ = 0.0;
  for (const auto& sh : p.shells) occ += sh.occupation;
  EXPECT_DOUBLE_EQ(occ, 15.0);
}

TEST(SecondRow, SymbolsAndMasses) {
  EXPECT_EQ(grid::element_symbol(16), "S");
  EXPECT_EQ(grid::element_symbol(15), "P");
  EXPECT_NEAR(core::atomic_mass(16), 32.06, 0.01);
  const auto back = core::from_xyz("1\nsulfur\nS 0 0 0\n");
  EXPECT_EQ(back.atom(0).z, 16);
}

TEST(SecondRow, H2SScfConverges) {
  // H2S: a genuine second-row all-electron SCF (18 electrons).
  grid::Structure h2s;
  const double r = 1.336 * constants::angstrom_to_bohr;
  h2s.add_atom(16, {0, 0, 0});
  h2s.add_atom(1, {0, r * 0.8, r * 0.6});
  h2s.add_atom(1, {0, -r * 0.8, r * 0.6});

  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Minimal;
  opt.grid.radial_points = 44;   // deeper core needs a denser mesh
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 88;
  opt.max_iterations = 120;
  const auto res = scf::ScfSolver(h2s, opt).run();
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(linalg::trace_product(res.density_matrix, res.overlap), 18.0, 1e-8);
  // All-electron S: total energy in the -390s (LDA, compact basis).
  EXPECT_LT(res.total_energy, -350.0);
  EXPECT_GT(res.total_energy, -450.0);
}

TEST(SparseStorage, GlobalCsrModeMatchesDense) {
  grid::Structure h2;
  h2.add_atom(1, {0, 0, -0.7});
  h2.add_atom(1, {0, 0, 0.7});
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 30;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  opt.max_iterations = 150;
  const auto ground = scf::ScfSolver(h2, opt).run();
  ASSERT_TRUE(ground.converged);

  core::ParallelDfptOptions dense;
  dense.ranks = 2;
  dense.batch_points = 96;
  auto sparse = dense;
  sparse.storage = core::HamiltonianStorage::GlobalSparseCsr;

  const auto rd = core::solve_direction_parallel(ground, dense, 2);
  const auto rs = core::solve_direction_parallel(ground, sparse, 2);
  ASSERT_TRUE(rd.direction.converged);
  ASSERT_TRUE(rs.direction.converged);
  EXPECT_NEAR(rd.direction.dipole_response.z, rs.direction.dipole_response.z,
              1e-10);
  EXPECT_LT(rd.direction.p1.max_abs_diff(rs.direction.p1), 1e-12);
}

}  // namespace
