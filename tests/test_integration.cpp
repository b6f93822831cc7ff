// Cross-module integration and physics-property tests that exercise the
// whole stack (basis + grid + Poisson + SCF + DFPT) on real molecules.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

scf::ScfOptions light_options() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 36;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  opt.poisson.l_max = 4;
  return opt;
}

grid::Structure h2() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

TEST(Integration, LargerBasisIsVariationallyLower) {
  auto minimal = light_options();
  minimal.tier = basis::BasisTier::Minimal;
  const auto e_min = scf::ScfSolver(h2(), minimal).run();
  const auto e_light = scf::ScfSolver(h2(), light_options()).run();
  ASSERT_TRUE(e_min.converged);
  ASSERT_TRUE(e_light.converged);
  EXPECT_LT(e_light.total_energy, e_min.total_energy);
}

TEST(Integration, FieldEnergyIsQuadraticWithAlphaCurvature) {
  // E(xi) = E(0) - 1/2 alpha xi^2 + O(xi^4): a third independent route to
  // the polarizability, via total energies only.
  const auto opt = light_options();
  const auto structure = h2();
  const auto ground = scf::ScfSolver(structure, opt).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const double alpha = dfpt.solve_direction(2).dipole_response.z;

  const double xi = 5e-3;
  auto opt_p = opt, opt_m = opt;
  opt_p.external_field = {0, 0, +xi};
  opt_m.external_field = {0, 0, -xi};
  const auto rp = scf::ScfSolver(structure, opt_p).run();
  const auto rm = scf::ScfSolver(structure, opt_m).run();
  ASSERT_TRUE(rp.converged);
  ASSERT_TRUE(rm.converged);

  // Curvature from the symmetric second difference.
  const double curvature =
      (rp.total_energy + rm.total_energy - 2.0 * ground.total_energy) / (xi * xi);
  EXPECT_NEAR(-curvature, alpha, 0.05 * alpha);
  // Both field signs lower the energy of the symmetric molecule equally.
  EXPECT_LT(rp.total_energy, ground.total_energy);
  EXPECT_NEAR(rp.total_energy, rm.total_energy, 1e-6);
}

TEST(Integration, WaterTensorStructure) {
  // H2O in our geometry: H atoms span the y axis, C2v axis along z. The
  // in-plane y response (along the H-H direction) is the largest; off-
  // diagonal elements vanish by symmetry except the tiny grid noise.
  const auto ground = scf::ScfSolver(water(), light_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptResult r = dfpt.solve_all();
  const double axx = r.polarizability(0, 0);
  const double ayy = r.polarizability(1, 1);
  const double azz = r.polarizability(2, 2);
  EXPECT_GT(ayy, axx);
  EXPECT_GT(ayy, azz);
  EXPECT_GT(axx, 0.0);
  // Symmetry of the tensor: alpha_yz == alpha_zy etc. The off-diagonals are
  // themselves grid noise (~1e-3) at light settings, so compare loosely.
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_NEAR(r.polarizability(i, j), r.polarizability(j, i), 2e-3)
          << i << j;
  // All directions converged.
  for (const auto& d : r.directions) EXPECT_TRUE(d.converged);
}

TEST(Integration, ScfEnergyStableUnderGridRefinement) {
  auto coarse = light_options();
  coarse.tier = basis::BasisTier::Minimal;
  coarse.grid.radial_points = 30;
  auto fine = coarse;
  fine.grid.radial_points = 60;
  fine.grid.angular_degree = 11;
  const auto e_c = scf::ScfSolver(h2(), coarse).run();
  const auto e_f = scf::ScfSolver(h2(), fine).run();
  ASSERT_TRUE(e_c.converged);
  ASSERT_TRUE(e_f.converged);
  EXPECT_NEAR(e_c.total_energy, e_f.total_energy, 5e-3);
}

TEST(Integration, NuclearRepulsionIncludedInTotalEnergy) {
  // Pull the two protons apart: at large separation the energy approaches
  // twice the isolated-atom value from above.
  auto opt = light_options();
  opt.tier = basis::BasisTier::Minimal;
  // Moderately stretched bond (full dissociation is pathological for a
  // restricted closed-shell reference, as in any spin-restricted code).
  grid::Structure far;
  far.add_atom(1, {0, 0, -1.5});
  far.add_atom(1, {0, 0, 1.5});
  const auto bonded = scf::ScfSolver(h2(), opt).run();
  const auto stretched = scf::ScfSolver(far, opt).run();
  ASSERT_TRUE(bonded.converged);
  ASSERT_TRUE(stretched.converged);
  EXPECT_LT(bonded.total_energy, stretched.total_energy);
}

TEST(Integration, DipoleOfWaterPointsAlongC2Axis) {
  const auto ground = scf::ScfSolver(water(), light_options()).run();
  ASSERT_TRUE(ground.converged);
  // Electronic dipole: x and y components vanish by symmetry up to the
  // light grid's anisotropy noise (~1e-3); z is finite (both H atoms sit
  // at positive z in this geometry).
  EXPECT_NEAR(ground.dipole.x, 0.0, 5e-3);
  EXPECT_NEAR(ground.dipole.y, 0.0, 5e-3);
  EXPECT_GT(std::fabs(ground.dipole.z), 0.5);
}

TEST(Integration, TraceOfPSEqualsElectronCountAfterScf) {
  const auto ground = scf::ScfSolver(water(), light_options()).run();
  ASSERT_TRUE(ground.converged);
  EXPECT_NEAR(linalg::trace_product(ground.density_matrix, ground.overlap), 10.0,
              1e-9);
}

}  // namespace
