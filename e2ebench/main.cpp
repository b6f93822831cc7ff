// End-to-end polarizability benchmark: structure -> converged alpha tensor
// through the public solver API (ScfSolver::run, then three CPSCF
// directions), on one named workload per invocation.
//
//   aeqp_e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
//
// --trace 0 prints the end-to-end metrics of a closed loop of solves lasting
// about S seconds (S = 0: one pass over the workload's structures); --trace
// 1 prints the per-layer metrics of one traced pass. The last stdout line is
// the JSON result; the lines before it say what was run on which host.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "e2ebench.hpp"
#include "exec/thread_pool.hpp"
#include "tune/tune.hpp"

#ifndef AEQP_E2E_BUILD_TYPE
#define AEQP_E2E_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define AEQP_E2E_COMPILER "clang " __VERSION__
#else
#define AEQP_E2E_COMPILER "gcc " __VERSION__
#endif
#ifndef AEQP_E2E_NATIVE
#define AEQP_E2E_NATIVE 0
#endif

namespace {

using namespace e2e;
using Clock = std::chrono::steady_clock;

/// Set-up is repeated at least this often and for at least this long per
/// run; setup_s is the median repetition.
constexpr std::size_t kSetupMinReps = 5;
constexpr double kSetupMinSeconds = 1.0;

/// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_host(const std::string& commit) {
  const aeqp::tune::TuneConfig& t = aeqp::tune::config();
  std::printf(
      "host: {\"nproc\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"aeqp_native\": %s, \"commit\": \"%s\", \"tune\": {\"rho_block_size\": %zu, "
      "\"grid_batch_points\": %zu, \"pack_window_bytes\": %zu, \"poisson_l_max\": %d}}\n",
      usable_cpus(), AEQP_E2E_COMPILER, AEQP_E2E_BUILD_TYPE, AEQP_E2E_NATIVE ? "true" : "false",
      commit.c_str(), t.rho_block_size, t.grid_batch_points, t.pack_window_bytes,
      t.poisson_l_max);
}

/// Median and, with enough samples, the highest percentile that still has
/// ten samples above it.
void print_timing(const char* name, std::vector<double> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  std::printf("%s: median %.4f s over %zu solves", name, median(v), v.size());
  if (v.size() >= 20)
    std::printf(", p%.0f %.4f s", 100.0 * double(v.size() - 10) / double(v.size()),
                v[v.size() - 11]);
  std::printf("\n");
}

std::vector<Metric> run_timed(const Workload& w, double seconds, Tally& tally,
                              bool& correct) {
  aeqp::exec::ThreadPool::set_global_threads(kPoolThreads);
  std::vector<double> setup_reps;
  const auto t_setup = Clock::now();
  while (setup_reps.size() < kSetupMinReps || seconds_since(t_setup) < kSetupMinSeconds) {
    double sum = 0.0;
    for (const auto& s : w.structures) sum += time_setup(s);
    setup_reps.push_back(sum);
  }
  std::sort(setup_reps.begin(), setup_reps.end());
  std::printf("setup_s (CPU): median %.4f s over %zu repetitions (min %.4f, max %.4f)\n",
              median(setup_reps), setup_reps.size(), setup_reps.front(), setup_reps.back());

  // Closed loop: the next solve starts when the previous one has finished,
  // and only if it is expected to finish within the budget.
  std::vector<double> alpha_s, scf_s, cpscf_s, alpha_cpu_s, scf_cpu_s, cpscf_cpu_s;
  bool self_checked = false;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % w.structures.size();
    const auto ts = Clock::now();
    const Solve s = solve_alpha(w, k);
    const double wall = seconds_since(ts);
    tally.add(s);
    if (seconds <= 0.0) print_tensor("alpha[" + std::to_string(k) + "]", s.alpha);
    if (!s.failure.empty()) {
      std::printf("solve %zu (structure %zu) failed: %s\n", i, k, s.failure.c_str());
    } else {
      alpha_s.push_back(s.scf_s + s.cpscf_s);
      scf_s.push_back(s.scf_s);
      cpscf_s.push_back(s.cpscf_s);
      alpha_cpu_s.push_back(s.scf_cpu_s + s.cpscf_cpu_s);
      scf_cpu_s.push_back(s.scf_cpu_s);
      cpscf_cpu_s.push_back(s.cpscf_cpu_s);
      if (!self_checked) {
        self_checked = true;
        if (!self_check(s, w.expected[k])) {
          std::printf("self-check failed: a perturbed alpha was not counted as failed\n");
          correct = false;
        }
      }
    }
    const bool done = seconds <= 0.0 ? i + 1 >= w.structures.size()
                                     : seconds_since(t0) + wall > seconds;
    if (done) break;
  }
  if (!self_checked) correct = false;
  print_timing("alpha_s (wall)", alpha_s);
  print_timing("scf_s (wall)", scf_s);
  print_timing("cpscf_s (wall)", cpscf_s);
  print_timing("alpha_cpu_s", alpha_cpu_s);
  print_timing("scf_cpu_s", scf_cpu_s);
  print_timing("cpscf_cpu_s", cpscf_cpu_s);
  // Gated metrics are CPU seconds: on a virtual machine whose host steals
  // cycles, wall time of the same solve varies by tens of percent while its
  // CPU time stays within about 1% (see README.md).
  return {
      {"alpha_cpu_s", median(alpha_cpu_s), "s"},
      {"scf_cpu_s", median(scf_cpu_s), "s"},
      {"cpscf_cpu_s", median(cpscf_cpu_s), "s"},
      {"setup_s", median(setup_reps), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("failed_ratio %.6g (%zu of %zu alpha solves)\n",
              tally.attempted > 0 ? double(tally.failed) / double(tally.attempted) : 0.0,
              tally.failed, tally.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: aeqp_e2ebench --workload raman_h2o|chain_alpha|chain_ranks4 "
               "--seed N --seconds S --trace 0|1 [--commit SHA]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, commit = "unknown";
  unsigned long long seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") trace = std::atoi(val.c_str());
    else if (key == "--commit") commit = val;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0 || workload.empty() || seconds < 0.0 || (trace != 0 && trace != 1))
    return usage("missing or malformed arguments");

  Workload w;
  try {
    w = make_workload(workload, seed);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const std::size_t cpus = usable_cpus();
  if (concurrency(w) > cpus) {
    std::fprintf(stderr, "refusing %s: it keeps %zu threads plus ranks busy, nproc is %zu\n",
                 w.name.c_str(), concurrency(w), cpus);
    return 3;
  }
  print_host(commit);
  std::printf("workload %s: %zu structure(s), %zu threads, %zu ranks, seed %llu\n",
              w.name.c_str(), w.structures.size(), kPoolThreads, w.ranks, seed);

  Tally tally;
  bool correct = true;
  const std::vector<Metric> metrics =
      trace == 1 ? run_traced(w, tally, correct) : run_timed(w, seconds, tally, correct);
  print_result(correct && tally.failed == 0, tally, metrics);
  return 0;
}
