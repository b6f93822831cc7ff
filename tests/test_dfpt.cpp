// Tests for src/core/dfpt.cpp: the DFPT/CPSCF cycle. The headline property
// test validates the DFPT polarizability against a finite-difference dipole
// derivative of field-perturbed SCF runs -- the strongest end-to-end
// correctness check in the repository (DESIGN.md item 5).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "resilience/checkpoint.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

scf::ScfOptions fast_options() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 80;
  opt.poisson.l_max = 4;
  opt.max_iterations = 150;
  opt.density_tolerance = 1e-7;
  return opt;
}

grid::Structure h2() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

TEST(Dfpt, RequiresConvergedGroundState) {
  scf::ScfResult fake;
  fake.converged = false;
  EXPECT_THROW(DfptSolver(fake, {}), Error);
}

TEST(Dfpt, H2ParallelPolarizabilityMatchesFiniteDifference) {
  const auto structure = h2();
  const auto opt = fast_options();
  const scf::ScfResult ground = scf::ScfSolver(structure, opt).run();
  ASSERT_TRUE(ground.converged);

  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptSolver dfpt(ground, dopt);
  const DfptDirectionResult rz = dfpt.solve_direction(2);
  ASSERT_TRUE(rz.converged);
  const double alpha_zz = rz.dipole_response.z;

  // Finite difference: alpha_zz = d mu_z / d xi at xi = 0.
  const double xi = 2e-3;
  auto opt_p = opt;
  opt_p.external_field = {0, 0, +xi};
  auto opt_m = opt;
  opt_m.external_field = {0, 0, -xi};
  const scf::ScfResult rp = scf::ScfSolver(structure, opt_p).run();
  const scf::ScfResult rm = scf::ScfSolver(structure, opt_m).run();
  ASSERT_TRUE(rp.converged);
  ASSERT_TRUE(rm.converged);
  const double alpha_fd = (rp.dipole.z - rm.dipole.z) / (2.0 * xi);

  EXPECT_GT(alpha_zz, 0.0);
  EXPECT_NEAR(alpha_zz, alpha_fd, 0.02 * std::fabs(alpha_fd))
      << "DFPT=" << alpha_zz << " FD=" << alpha_fd;
}

TEST(Dfpt, H2PerpendicularDirectionAlsoMatchesFd) {
  const auto structure = h2();
  const auto opt = fast_options();
  const scf::ScfResult ground = scf::ScfSolver(structure, opt).run();
  ASSERT_TRUE(ground.converged);

  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult rx = dfpt.solve_direction(0);
  ASSERT_TRUE(rx.converged);

  const double xi = 2e-3;
  auto opt_p = opt;
  opt_p.external_field = {+xi, 0, 0};
  auto opt_m = opt;
  opt_m.external_field = {-xi, 0, 0};
  const scf::ScfResult rp = scf::ScfSolver(structure, opt_p).run();
  const scf::ScfResult rm = scf::ScfSolver(structure, opt_m).run();
  const double alpha_fd = (rp.dipole.x - rm.dipole.x) / (2.0 * xi);

  EXPECT_NEAR(rx.dipole_response.x, alpha_fd, 0.03 * std::fabs(alpha_fd));
  // Perpendicular response is smaller than parallel for H2.
  const DfptDirectionResult rz = dfpt.solve_direction(2);
  EXPECT_LT(rx.dipole_response.x, rz.dipole_response.z);
}

TEST(Dfpt, TraceFormulaAgreesWithGridMoment) {
  // alpha via \int r n^(1) and via Tr(P^(1) D) are independent code paths
  // over the same converged response; they must agree to grid accuracy.
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult r = dfpt.solve_direction(2);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_NEAR(r.dipole_response[axis], r.dipole_response_trace[axis], 1e-6)
        << "axis " << axis;
}

TEST(Dfpt, ResponseDensityIntegratesToZero) {
  // The perturbation conserves electron number: \int n^(1) = 0.
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult r = dfpt.solve_direction(2);
  EXPECT_NEAR(ground.integrator->integrate(r.n1_samples), 0.0, 1e-6);
}

TEST(Dfpt, OffDiagonalSymmetryForSymmetricMolecule) {
  // For H2 along z, alpha_xz must vanish by symmetry.
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult rz = dfpt.solve_direction(2);
  EXPECT_NEAR(rz.dipole_response.x, 0.0, 1e-5);
  EXPECT_NEAR(rz.dipole_response.y, 0.0, 1e-5);
}

TEST(Dfpt, PhaseTimersCoverAllPhases) {
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult r = dfpt.solve_direction(2);
  EXPECT_EQ(r.phase_seconds.size(), 5u);
  double total = 0.0;
  for (const auto& [phase, sec] : r.phase_seconds) {
    EXPECT_GE(sec, 0.0);
    total += sec;
  }
  EXPECT_GT(total, 0.0);
}

TEST(Dfpt, PhaseNamesMatchPaperFigure) {
  EXPECT_EQ(phase_name(Phase::DM), "DM");
  EXPECT_EQ(phase_name(Phase::Sumup), "Sumup");
  EXPECT_EQ(phase_name(Phase::Rho), "Rho");
  EXPECT_EQ(phase_name(Phase::H), "H");
}

// ---------------------------------------------------------------------------
// Pulay-mixed CPSCF

const scf::ScfResult& ground_of(const char* name) {
  static const scf::ScfResult h2_ground =
      scf::ScfSolver(h2(), fast_options()).run();
  static const scf::ScfResult water_ground =
      scf::ScfSolver(water(), fast_options()).run();
  return std::string(name) == "h2" ? h2_ground : water_ground;
}

double max_abs_alpha(const DfptResult& r) {
  double m = 0.0;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) m = std::max(m, std::fabs(r.polarizability(i, j)));
  return m;
}

// Linear P^(1) mixing, one step per solve: a warm start with an empty Pulay
// history runs one iteration whose one-pair history is the linear mix
// P_in + beta R. Returns the iterations linear mixing needs to converge.
int linear_mixing_iterations(const scf::ScfResult& ground, int direction) {
  DfptOptions first;
  first.max_iterations = 1;
  DfptDirectionResult r = DfptSolver(ground, first).solve_direction(direction);
  while (!r.converged) {
    EXPECT_LT(r.iterations, 200) << "linear mixing did not converge";
    if (r.iterations >= 200) break;
    auto ws = std::make_shared<CpscfWarmStart>();
    ws->iteration = r.iterations;
    ws->p1 = r.p1;
    DfptOptions step;
    step.max_iterations = r.iterations + 1;
    step.warm_start = ws;
    r = DfptSolver(ground, step).solve_direction(direction);
  }
  return r.iterations;
}

class PulayCpscfAlpha : public ::testing::TestWithParam<const char*> {};

// Pulay at the default tolerance lands within 1e-7 max|alpha| of a
// tolerance-1e-10 reference, in fewer iterations than linear mixing needs.
TEST_P(PulayCpscfAlpha, AlphaMatchesTightReferenceInFewerIterations) {
  const scf::ScfResult& ground = ground_of(GetParam());
  ASSERT_TRUE(ground.converged);
  DfptOptions tight;
  tight.tolerance = 1e-10;
  const DfptResult ref = DfptSolver(ground, tight).solve_all();
  const DfptResult res = DfptSolver(ground, {}).solve_all();
  const double scale = max_abs_alpha(ref);
  for (int j = 0; j < 3; ++j) {
    const auto& dir = res.directions[static_cast<std::size_t>(j)];
    ASSERT_TRUE(dir.converged) << "direction " << j;
    for (int i = 0; i < 3; ++i)
      EXPECT_LE(std::fabs(res.polarizability(i, j) - ref.polarizability(i, j)),
                1e-7 * scale)
          << "alpha_" << i << j;
    EXPECT_LT(dir.iterations, linear_mixing_iterations(ground, j))
        << "direction " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Molecules, PulayCpscfAlpha, ::testing::Values("h2", "water"));

// The B-matrix dots run in a fixed serial order and the DM build keeps its
// per-element order, so the thread count never changes a bit.
TEST(PulayCpscf, OneAndFourThreadsAreBitIdentical) {
  const scf::ScfResult& ground = ground_of("water");
  ASSERT_TRUE(ground.converged);
  exec::ThreadPool::set_global_threads(1);
  const DfptDirectionResult one = DfptSolver(ground, {}).solve_direction(2);
  exec::ThreadPool::set_global_threads(4);
  const DfptDirectionResult four = DfptSolver(ground, {}).solve_direction(2);
  exec::ThreadPool::set_global_threads(0);
  EXPECT_EQ(one.iterations, four.iterations);
  EXPECT_EQ(one.p1.max_abs_diff(four.p1), 0.0);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_EQ(one.dipole_response[axis], four.dipole_response[axis]);
}

// Cut the water z cycle after iteration 6 (the history is full and has
// evicted), checkpoint P^(1) and the Pulay history through the framed wire
// format, resume: the trajectory is the uninterrupted one, bit for bit.
std::vector<unsigned char> water_checkpoint_blob(int cut_iteration) {
  const scf::ScfResult& ground = ground_of("water");
  std::vector<unsigned char> blob;
  DfptOptions interrupted;
  interrupted.observer = [&](const CpscfIterationState& s) {
    if (s.iteration < cut_iteration) return CpscfAction::Continue;
    resilience::CpscfCheckpoint ckpt;
    ckpt.direction = s.direction;
    ckpt.iteration = s.iteration;
    ckpt.mixing = s.mixing;
    ckpt.last_delta = s.delta;
    ckpt.p1 = *s.p1;
    ckpt.pulay_history = s.pulay->export_pairs();
    blob = resilience::serialize(ckpt);
    return CpscfAction::Abort;
  };
  const auto cut = DfptSolver(ground, interrupted).solve_direction(2);
  EXPECT_TRUE(cut.aborted);
  return blob;
}

TEST(PulayCpscf, WarmStartThroughSerializedHistoryIsBitIdentical) {
  const scf::ScfResult& ground = ground_of("water");
  ASSERT_TRUE(ground.converged);
  const DfptDirectionResult ref = DfptSolver(ground, {}).solve_direction(2);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 7);

  const auto ckpt = resilience::deserialize_cpscf(water_checkpoint_blob(6));
  EXPECT_EQ(ckpt.pulay_history.size(), kCpscfPulayHistory);
  auto ws = std::make_shared<CpscfWarmStart>();
  ws->iteration = ckpt.iteration;
  ws->p1 = ckpt.p1;
  ws->pulay_history = ckpt.pulay_history;
  DfptOptions resumed;
  resumed.warm_start = ws;
  const DfptDirectionResult res = DfptSolver(ground, resumed).solve_direction(2);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.p1.max_abs_diff(ref.p1), 0.0);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_EQ(res.dipole_response[axis], ref.dipole_response[axis]);
}

// The default SCF (Pulay DIIS after two damped start-up cycles) converges
// water in at most 12 iterations, and its alpha is within 1e-6 max|alpha|
// of a tightly converged reference (SCF to 1e-9, CPSCF to 1e-10).
TEST(PulayScf, WaterDefaultsConvergeFastToTheTightAlpha) {
  const scf::ScfResult ground = scf::ScfSolver(water(), scf::ScfOptions{}).run();
  ASSERT_TRUE(ground.converged);
  EXPECT_LE(ground.iterations, 12);

  scf::ScfOptions tight_scf;
  tight_scf.density_tolerance = 1e-9;
  const scf::ScfResult tight_ground = scf::ScfSolver(water(), tight_scf).run();
  ASSERT_TRUE(tight_ground.converged);
  DfptOptions tight;
  tight.tolerance = 1e-10;
  const DfptResult ref = DfptSolver(tight_ground, tight).solve_all();
  const DfptResult res = DfptSolver(ground, {}).solve_all();
  const double scale = max_abs_alpha(ref);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_LE(std::fabs(res.polarizability(i, j) - ref.polarizability(i, j)),
                1e-6 * scale)
          << "alpha_" << i << j;
}

TEST(PulayCpscf, DamagedHistoryBlobIsRejected) {
  const std::vector<unsigned char> blob = water_checkpoint_blob(6);
  ASSERT_FALSE(blob.empty());
  ASSERT_EQ(resilience::deserialize_cpscf(blob).pulay_history.size(),
            kCpscfPulayHistory);

  // Truncated: the last history matrix loses its tail.
  const std::vector<unsigned char> cut(blob.begin(), blob.end() - 64);
  EXPECT_THROW((void)resilience::deserialize_cpscf(cut), Error);

  // CRC-damaged: one flipped bit inside the last history residual.
  std::vector<unsigned char> flipped = blob;
  flipped[flipped.size() - 4 - 100] ^= 0x10;
  EXPECT_THROW((void)resilience::deserialize_cpscf(flipped), Error);

  // Re-framed with a valid length and CRC, but the payload stops inside
  // the history: the decoder still refuses it.
  constexpr std::size_t kHeader = 3 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  const std::vector<unsigned char> payload(blob.begin() + kHeader,
                                           blob.end() - 4 - 64);
  std::vector<unsigned char> reframed(blob.begin(), blob.begin() + 12);
  const std::uint64_t size = payload.size();
  const auto* size_bytes = reinterpret_cast<const unsigned char*>(&size);
  reframed.insert(reframed.end(), size_bytes, size_bytes + sizeof(size));
  reframed.insert(reframed.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload);
  const auto* crc_bytes = reinterpret_cast<const unsigned char*>(&crc);
  reframed.insert(reframed.end(), crc_bytes, crc_bytes + sizeof(crc));
  try {
    (void)resilience::deserialize_cpscf(reframed);
    FAIL() << "a history cut short was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(Structures, WaterGeometry) {
  const auto w = water();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.atom(0).z, 8);
  const double roh = distance(w.atom(0).pos, w.atom(1).pos);
  EXPECT_NEAR(roh, 0.9572 * constants::angstrom_to_bohr, 1e-10);
}

TEST(Structures, PolyethyleneCountsMatchPaper) {
  EXPECT_EQ(polyethylene_chain(1).size(), 8u);
  EXPECT_EQ(polyethylene_chain(5000).size(), 30002u);   // paper system
  EXPECT_EQ(polyethylene_chain(10000).size(), 60002u);  // paper system
}

TEST(Structures, PolyethyleneBondLengthsSane) {
  const auto p = polyethylene_chain(3);
  // No two atoms closer than ~0.9 bohr; C-C neighbors near 2.91 bohr.
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t j = i + 1; j < p.size(); ++j)
      EXPECT_GT(distance(p.atom(i).pos, p.atom(j).pos), 0.9);
}

TEST(Structures, RbdClusterStatistics) {
  const auto c = rbd_like_cluster(3006, 11);
  EXPECT_EQ(c.size(), 3006u);
  // Composition roughly protein-like.
  std::size_t h = 0, heavy = 0;
  for (const auto& a : c.atoms()) (a.z == 1 ? h : heavy)++;
  EXPECT_GT(h, 1200u);
  EXPECT_LT(h, 1800u);
  // Minimum separation respected.
  const auto nb = c.neighbors_of(0, 1.89);
  EXPECT_TRUE(nb.empty());
}

TEST(Structures, RbdClusterDeterministicPerSeed) {
  const auto a = rbd_like_cluster(200, 5);
  const auto b = rbd_like_cluster(200, 5);
  const auto c = rbd_like_cluster(200, 6);
  EXPECT_DOUBLE_EQ(a.atom(17).pos.x, b.atom(17).pos.x);
  EXPECT_NE(a.atom(17).pos.x, c.atom(17).pos.x);
}

TEST(Structures, LigandLikeHas49Atoms) {
  const auto l = ligand_like();
  EXPECT_EQ(l.size(), 49u);
  bool has_heavy = false, has_h = false;
  for (const auto& a : l.atoms()) {
    if (a.z > 1) has_heavy = true;
    if (a.z == 1) has_h = true;
  }
  EXPECT_TRUE(has_heavy);
  EXPECT_TRUE(has_h);
}

}  // namespace
