// Tests for polarizability invariants, a chain-molecule DFPT integration
// case (ethane anisotropy), mapping determinism, and per-optimization
// monotonicity of the performance model.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dfpt.hpp"
#include "core/polarizability_invariants.hpp"
#include "core/structures.hpp"
#include "grid/batch.hpp"
#include "mapping/synthetic_points.hpp"
#include "mapping/task_mapping.hpp"
#include "parallel/machine_model.hpp"
#include "perfmodel/dfpt_perf_model.hpp"
#include "scf/scf_solver.hpp"
#include "simt/device.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

TEST(Invariants, IsotropicTensor) {
  const Tensor3 iso = {2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0};
  EXPECT_DOUBLE_EQ(isotropic_mean(iso), 2.0);
  EXPECT_DOUBLE_EQ(anisotropy_squared(iso), 0.0);
  EXPECT_DOUBLE_EQ(raman_activity(iso), 45.0 * 4.0);
  EXPECT_DOUBLE_EQ(depolarization_ratio(iso), 0.0);
}

TEST(Invariants, PurelyAnisotropicTensor) {
  // Traceless diagonal tensor: a' = 0 -> rho = 0.75.
  const Tensor3 aniso = {1.0, 0, 0, 0, -1.0, 0, 0, 0, 0.0};
  EXPECT_DOUBLE_EQ(isotropic_mean(aniso), 0.0);
  EXPECT_DOUBLE_EQ(anisotropy_squared(aniso), 3.0);
  EXPECT_DOUBLE_EQ(depolarization_ratio(aniso), 0.75);
}

TEST(Invariants, RotationInvariance) {
  // gamma^2 must be unchanged by a 90-degree rotation (xx <-> yy swap with
  // off-diagonals permuted).
  const Tensor3 t = {3.0, 0.5, 0.2, 0.5, 1.0, 0.1, 0.2, 0.1, 2.0};
  const Tensor3 rot = {1.0, -0.5, 0.1, -0.5, 3.0, -0.2, 0.1, -0.2, 2.0};
  EXPECT_NEAR(anisotropy_squared(t), anisotropy_squared(rot), 1e-12);
  EXPECT_NEAR(isotropic_mean(t), isotropic_mean(rot), 1e-12);
}

TEST(ChainMolecule, EthanePolarizabilityAnisotropic) {
  // H(C2H4)1H = ethane-like chain along z: alpha_zz > alpha_xx.
  const auto chain = polyethylene_chain(1);
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Minimal;
  opt.grid.radial_points = 32;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 64;
  opt.poisson.l_max = 4;
  opt.max_iterations = 150;
  const auto ground = scf::ScfSolver(chain, opt).run();
  ASSERT_TRUE(ground.converged);

  const DfptSolver dfpt(ground, {});
  const auto rz = dfpt.solve_direction(2);
  const auto rx = dfpt.solve_direction(0);
  ASSERT_TRUE(rz.converged);
  ASSERT_TRUE(rx.converged);
  EXPECT_GT(rz.dipole_response.z, rx.dipole_response.x);
  EXPECT_GT(rx.dipole_response.x, 0.0);
}

TEST(Mapping, DeterministicAcrossRepeats) {
  const auto chain = polyethylene_chain(30);
  const auto cloud = mapping::synthetic_point_cloud(chain, 24);
  const auto batches = grid::make_batches(cloud.positions, cloud.parent_atom, 64);
  const auto a = mapping::locality_enhancing_mapping(batches, 8);
  const auto b = mapping::locality_enhancing_mapping(batches, 8);
  for (std::size_t r = 0; r < 8; ++r)
    EXPECT_EQ(a.batches_of_rank[r], b.batches_of_rank[r]);
}

TEST(PerfModel, EachOptimizationAloneHelps) {
  const perfmodel::DfptPerfModel model(parallel::MachineModel::hpc2_amd(),
                                       simt::DeviceModel::gcn_gpu(), true);
  const auto off = perfmodel::OptimizationFlags::all_off();
  const double t_off = model.predict(30002, 2048, off).total();
  auto check = [&](auto setter, const char* name) {
    auto flags = off;
    setter(flags);
    EXPECT_LT(model.predict(30002, 2048, flags).total(), t_off) << name;
  };
  check([](auto& f) { f.locality_mapping = true; }, "locality");
  check([](auto& f) { f.packed_comm = true; }, "packing");
  check([](auto& f) { f.kernel_fusion = true; }, "fusion");
  check([](auto& f) { f.indirect_elimination = true; }, "indirect");
  check([](auto& f) { f.loop_collapsing = true; }, "collapse");
  check([](auto& f) { f.accelerated_dm = true; }, "dm acceleration");
}

}  // namespace
