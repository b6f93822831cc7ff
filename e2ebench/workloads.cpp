// The three workloads and one structure -> alpha solve through the public
// solver API.

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <exception>
#include <memory>
#include <random>

#include "basis/basis_set.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "e2ebench.hpp"
#include "exec/thread_pool.hpp"
#include "grid/molecular_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poisson/multipole.hpp"
#include "scf/integrator.hpp"

namespace e2e {

using namespace aeqp;
using Clock = std::chrono::steady_clock;

namespace {

/// Wall and CPU clocks started together.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = process_cpu_s();
  [[nodiscard]] double wall_s() const { return seconds_since(wall0); }
  [[nodiscard]] double cpu_s() const { return process_cpu_s() - cpu0; }
};

std::uint64_t rho_points() {
  static obs::Counter& points = obs::counter("rho/batch_points_evaluated");
  return points.value();
}

/// Displaced-water tolerance against the equilibrium reference: a Raman
/// step of <= 0.02 bohr moves alpha by well under 1%, a broken solve by far
/// more.
constexpr double kDisplacedTolerance = 5e-2;

/// The solver sees only generated coordinates: a seeded rigid translation
/// keeps a fixed structure's alpha (a neutral molecule's alpha does not
/// depend on the origin) while its coordinates depend on the seed.
grid::Structure shifted(const grid::Structure& s, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const Vec3 shift{u(rng), u(rng), u(rng)};
  std::vector<grid::Atom> atoms = s.atoms();
  for (auto& a : atoms) a.pos = a.pos + shift;
  return grid::Structure(std::move(atoms));
}

std::array<core::DfptDirectionResult, 3> cpscf_parallel(
    const scf::ScfResult& ground, std::size_t ranks,
    core::ParallelDfptStats& stats) {
  core::ParallelDfptOptions options;
  options.ranks = ranks;
  std::array<core::DfptDirectionResult, 3> dirs;
  for (int j = 0; j < 3; ++j) {
    core::ParallelDfptResult r = core::solve_direction_parallel(ground, options, j);
    stats.batches = r.stats.batches;
    stats.max_rank_points_share =
        std::max(stats.max_rank_points_share, r.stats.max_rank_points_share);
    dirs[static_cast<std::size_t>(j)] = std::move(r.direction);
  }
  return dirs;
}

/// Copies alpha, iterations and convergence out of the three directions.
void take_directions(const std::array<core::DfptDirectionResult, 3>& dirs,
                     Solve& out) {
  for (std::size_t j = 0; j < 3; ++j) {
    const auto& d = dirs[j];
    out.cpscf_iterations += d.iterations;
    for (std::size_t i = 0; i < 3; ++i) {
      out.alpha[3 * i + j] = d.dipole_response[static_cast<int>(i)];
      out.alpha_trace[3 * i + j] = d.dipole_response_trace[static_cast<int>(i)];
    }
    if (!d.converged && out.failure.empty())
      out.failure = "CPSCF direction " + std::to_string(j) + " did not converge";
  }
}

}  // namespace

Workload make_workload(const std::string& name, unsigned long long seed) {
  std::mt19937_64 rng(seed);
  Workload w;
  w.name = name;
  if (name == "raman_h2o") {
    // Finite-difference Raman batch: the equilibrium geometry plus +/- a
    // seeded step along each of the 9 Cartesian coordinates.
    const grid::Structure eq = core::water();
    w.structures.push_back(shifted(eq, rng));
    w.expected.push_back({&kWaterAlpha, kReferenceTolerance});
    std::uniform_real_distribution<double> step(0.005, 0.02);
    for (std::size_t c = 0; c < 3 * eq.size(); ++c) {
      for (const double sign : {1.0, -1.0}) {
        std::vector<grid::Atom> atoms = eq.atoms();
        atoms[c / 3].pos[static_cast<int>(c % 3)] += sign * step(rng);
        w.structures.push_back(shifted(grid::Structure(std::move(atoms)), rng));
        w.expected.push_back({&kWaterAlpha, kDisplacedTolerance});
      }
    }
  } else if (name == "chain_alpha") {
    w.structures.push_back(shifted(core::polyethylene_chain(2), rng));
    w.expected.push_back({&kChain2Alpha, kReferenceTolerance});
    w.serial_baseline = false;
  } else if (name == "chain_ranks4") {
    w.structures.push_back(shifted(core::polyethylene_chain(1), rng));
    w.expected.push_back({&kChain1Alpha, kReferenceTolerance});
    w.ranks = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (raman_h2o, chain_alpha, chain_ranks4)");
  }
  return w;
}

std::size_t concurrency(const Workload& w) {
  // The ranks run with one pool thread each, after the ground state.
  return std::max(kPoolThreads, w.ranks);
}

Solve solve_alpha(const Workload& w, std::size_t index) {
  Solve out;
  try {
    exec::ThreadPool::set_global_threads(kPoolThreads);
    const Stopwatch scf_clock;
    auto ground = std::make_shared<const scf::ScfResult>(
        scf::ScfSolver(w.structures[index], scf::ScfOptions{}).run());
    out.scf_s = scf_clock.wall_s();
    out.scf_cpu_s = scf_clock.cpu_s();
    out.scf_iterations = ground->iterations;
    out.ground = ground;
    if (!ground->converged) {
      out.failure = "SCF did not converge";
      return out;
    }
    std::array<core::DfptDirectionResult, 3> dirs;
    if (w.ranks > 0) exec::ThreadPool::set_global_threads(1);
    const std::uint64_t points0 = rho_points();
    const Stopwatch cpscf_clock;
    if (w.ranks == 0)
      dirs = core::DfptSolver(*ground, core::DfptOptions{}).solve_all().directions;
    else
      dirs = cpscf_parallel(*ground, w.ranks, out.stats);
    out.cpscf_s = cpscf_clock.wall_s();
    out.cpscf_cpu_s = cpscf_clock.cpu_s();
    out.cpscf_points = rho_points() - points0;
    take_directions(dirs, out);
    if (out.failure.empty())
      out.failure = check_alpha(out.alpha, out.alpha_trace, w.expected[index]);
  } catch (const std::exception& e) {
    out.failure = std::string("exception: ") + e.what();
  }
  return out;
}

Solve solve_cpscf_serial_1t(const scf::ScfResult& ground) {
  Solve out;
  try {
    exec::ThreadPool::set_global_threads(1);
    const std::uint64_t points0 = rho_points();
    const Stopwatch cpscf_clock;
    const auto dirs =
        core::DfptSolver(ground, core::DfptOptions{}).solve_all().directions;
    out.cpscf_s = cpscf_clock.wall_s();
    out.cpscf_cpu_s = cpscf_clock.cpu_s();
    out.cpscf_points = rho_points() - points0;
    take_directions(dirs, out);
  } catch (const std::exception& e) {
    out.failure = std::string("exception: ") + e.what();
  }
  return out;
}

double time_setup(const grid::Structure& s) {
  // Same calls, structure and options as the head of ScfSolver::run.
  const scf::ScfOptions opt;
  const double cpu0 = process_cpu_s();
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  {
    AEQP_TRACE_SCOPE("bench/basis/BasisSet");
    basis = std::make_shared<const basis::BasisSet>(s, opt.tier, opt.r_cut);
  }
  {
    AEQP_TRACE_SCOPE("bench/grid/MolecularGrid::build");
    grid = std::make_shared<const grid::MolecularGrid>(
        grid::MolecularGrid::build(s, opt.grid));
  }
  std::shared_ptr<const scf::BatchIntegrator> integ;
  {
    AEQP_TRACE_SCOPE("bench/scf/BatchIntegrator");
    integ = std::make_shared<const scf::BatchIntegrator>(basis, grid);
  }
  {
    AEQP_TRACE_SCOPE("bench/scf/integrals");
    const linalg::Matrix sm = integ->overlap();
    const linalg::Matrix tm = integ->kinetic();
    const linalg::Matrix vm = integ->external_potential();
    if (sm.rows() != tm.rows() || tm.rows() != vm.rows())
      throw std::runtime_error("set-up: integral dimensions disagree");
  }
  {
    AEQP_TRACE_SCOPE("bench/poisson/HartreeSolver");
    const poisson::HartreeSolver hartree(s, opt.poisson);
  }
  return process_cpu_s() - cpu0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_tensor(const std::string& label, const Tensor& a) {
  std::printf("%s =", label.c_str());
  for (const double v : a) std::printf(" %.17g", v);
  std::printf("\n");
}

}  // namespace e2e
