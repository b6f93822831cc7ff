// Integration tests for the distributed DFPT driver: the parallel
// decomposition (distributed Sumup/H/Rho, replicated Sternheimer/DM,
// packed hierarchical synthesis) must reproduce the serial DfptSolver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

const scf::ScfResult& ground_h2() {
  static const scf::ScfResult res = [] {
    grid::Structure s;
    s.add_atom(1, {0, 0, -0.7});
    s.add_atom(1, {0, 0, 0.7});
    scf::ScfOptions opt;
    opt.tier = basis::BasisTier::Light;
    opt.grid.radial_points = 30;
    opt.grid.angular_degree = 9;
    opt.poisson.radial_points = 72;
    return scf::ScfSolver(s, opt).run();
  }();
  return res;
}

class ParallelDfptTopology
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, comm::ReduceMode>> {};

TEST_P(ParallelDfptTopology, MatchesSerialSolver) {
  const auto [ranks, per_node, mode] = GetParam();
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);

  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptSolver serial(ground, dopt);
  const DfptDirectionResult ref = serial.solve_direction(2);
  ASSERT_TRUE(ref.converged);

  ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = ranks;
  popt.ranks_per_node = per_node;
  popt.reduce_mode = mode;
  popt.batch_points = 96;
  const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);

  EXPECT_TRUE(par.direction.converged);
  EXPECT_EQ(par.direction.iterations, ref.iterations);
  EXPECT_NEAR(par.direction.dipole_response.z, ref.dipole_response.z, 1e-7);
  EXPECT_LT(par.direction.p1.max_abs_diff(ref.p1), 1e-8);
  // The distributed response density matches point by point.
  ASSERT_EQ(par.direction.n1_samples.size(), ref.n1_samples.size());
  double max_dn = 0.0;
  for (std::size_t i = 0; i < ref.n1_samples.size(); ++i)
    max_dn = std::max(max_dn,
                      std::fabs(par.direction.n1_samples[i] - ref.n1_samples[i]));
  EXPECT_LT(max_dn, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ParallelDfptTopology,
    ::testing::Values(
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            1, 1, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            1, 1, comm::ReduceMode::Hierarchical},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            2, 2, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            4, 2, comm::ReduceMode::Hierarchical},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            8, 4, comm::ReduceMode::Hierarchical}));

TEST(ParallelDfpt, DistributedRhoProducerMatchesSerialSolver) {
  // The Poisson producer's projection rows are split across ranks and
  // synthesized with a packed rho_multipole AllReduce; the result must
  // match the serial reference with or without speed-weighted shares.
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);
  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptSolver serial(ground, dopt);
  const DfptDirectionResult ref = serial.solve_direction(2);

  ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Hierarchical;
  popt.batch_points = 96;
  const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);
  EXPECT_TRUE(par.direction.converged);
  EXPECT_EQ(par.direction.iterations, ref.iterations);
  EXPECT_LT(par.direction.p1.max_abs_diff(ref.p1), 1e-8);

  // Weighted shares change which rank computes which rows, never the sum.
  ParallelDfptOptions wopt = popt;
  wopt.rank_speed_weights = {1.0, 0.125, 1.0, 1.0};
  const ParallelDfptResult wpar = solve_direction_parallel(ground, wopt, 2);
  EXPECT_TRUE(wpar.direction.converged);
  EXPECT_LT(wpar.direction.p1.max_abs_diff(ref.p1), 1e-8);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) ==
             0;
}

ParallelDfptOptions flat4_options() {
  ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 4;
  popt.ranks_per_node = 4;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 96;
  return popt;
}

TEST(ParallelDfpt, FlatFourRankSolveIsBitwiseRepeatable) {
  // Four contributors to every flat AllReduce: the sums run in rank order,
  // so thread scheduling can never change a bit of the result.
  const auto& ground = ground_h2();
  const ParallelDfptOptions popt = flat4_options();
  const ParallelDfptResult a = solve_direction_parallel(ground, popt, 2);
  const ParallelDfptResult b = solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(a.direction.converged);
  EXPECT_EQ(a.direction.iterations, b.direction.iterations);
  EXPECT_TRUE(bitwise_equal(a.direction.p1, b.direction.p1));
  EXPECT_TRUE(bitwise_equal(a.direction.n1_samples, b.direction.n1_samples));
  const Vec3 da = a.direction.dipole_response, db = b.direction.dipole_response;
  EXPECT_EQ(std::memcmp(&da, &db, sizeof(Vec3)), 0);
}

TEST(ParallelDfpt, ShedPointCacheIsBitwiseIdentical) {
  // The relief ladder's cache_point_evals = false re-evaluates every point
  // on the fly with the same evaluator and accumulation order as the
  // resident point-eval CSR.
  const auto& ground = ground_h2();
  ParallelDfptOptions popt = flat4_options();
  const ParallelDfptResult cached = solve_direction_parallel(ground, popt, 2);
  popt.cache_point_evals = false;
  const ParallelDfptResult shed = solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(cached.direction.converged);
  EXPECT_EQ(cached.direction.iterations, shed.direction.iterations);
  EXPECT_TRUE(bitwise_equal(cached.direction.p1, shed.direction.p1));
}

TEST(ParallelDfpt, StatsReportLoadAndCommunication) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  popt.ranks = 4;
  popt.batch_points = 64;
  const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);
  EXPECT_GT(par.stats.batches, 4u);
  EXPECT_GT(par.stats.collectives, 0u);
  EXPECT_GT(par.stats.rows_reduced, 0u);
  // Median-split batches keep the point load within ~2x of the mean.
  EXPECT_LT(par.stats.max_rank_points_share, 2.0);
  EXPECT_GE(par.stats.max_rank_points_share, 1.0);
}

TEST(ParallelDfpt, DynamicResponseMatchesSerialSolver) {
  // The distributed solver runs the same omega-general Sternheimer step as
  // DfptSolver, so alpha(omega) must match the serial reference and differ
  // from the static alpha on any topology.
  const auto& ground = ground_h2();
  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const double alpha_static =
      DfptSolver(ground, dopt).solve_direction(2).dipole_response.z;
  dopt.frequency = 0.08;  // the omega of DynamicResponse.TraceAndMomentStillAgree
  const double alpha_dynamic =
      DfptSolver(ground, dopt).solve_direction(2).dipole_response.z;
  ASSERT_GT(std::fabs(alpha_dynamic - alpha_static), 1e-4);

  for (const auto& [ranks, per_node, mode] :
       {std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            2, 2, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            4, 2, comm::ReduceMode::Hierarchical}}) {
    ParallelDfptOptions popt;
    popt.dfpt = dopt;
    popt.ranks = ranks;
    popt.ranks_per_node = per_node;
    popt.reduce_mode = mode;
    popt.batch_points = 96;
    const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);
    EXPECT_TRUE(par.direction.converged) << ranks << " ranks";
    EXPECT_NEAR(par.direction.dipole_response.z, alpha_dynamic, 1e-8)
        << ranks << " ranks";
    EXPECT_GT(std::fabs(par.direction.dipole_response.z - alpha_static), 1e-4)
        << ranks << " ranks";
  }
}

TEST(ParallelDfpt, RejectsBadArguments) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  EXPECT_THROW(solve_direction_parallel(ground, popt, 3), Error);
  popt.ranks = 100000;  // more ranks than batches
  EXPECT_THROW(solve_direction_parallel(ground, popt, 0), Error);
  // No rank-local device kernels exist, so the option is refused by name.
  ParallelDfptOptions dev;
  dev.dfpt.device =
      std::make_shared<simt::SimtRuntime>(simt::DeviceModel::gcn_gpu());
  try {
    (void)solve_direction_parallel(ground, dev, 0);
    ADD_FAILURE() << "DfptOptions::device was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DfptOptions::device"), std::string::npos)
        << e.what();
  }
}

}  // namespace
