#pragma once

/// \file e2ebench.hpp
/// Shared types of the end-to-end polarizability benchmark: the workloads,
/// one alpha solve through the public solver API, the correctness checks
/// every solve must pass, and the metric lines the benchmark prints.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_dfpt.hpp"
#include "grid/structure.hpp"
#include "scf/scf_solver.hpp"

namespace e2e {

/// Polarizability tensor, row-major: alpha[3 * i + j] = d mu_i / d xi_j.
using Tensor = std::array<double, 9>;

/// What a solve's alpha is compared against, and how closely.
struct Expectation {
  const Tensor* alpha = nullptr;  ///< committed reference tensor
  double tolerance = 0.0;         ///< max |alpha - ref| / max |ref|
};

/// Pool threads for the ground state and the serial CPSCF of every workload.
inline constexpr std::size_t kPoolThreads = 4;

struct Workload {
  std::string name;
  /// Structures generated from the seed. Set-up is summed over all of them;
  /// the timed loop solves them in turn.
  std::vector<aeqp::grid::Structure> structures;
  std::vector<Expectation> expected;  ///< one per structure
  /// 0 = serial DfptSolver on the pool; n > 0 = solve_direction_parallel on
  /// n simmpi ranks with one pool thread each.
  std::size_t ranks = 0;
  /// The traced run adds the three CPSCF directions through serial
  /// DfptSolver on one thread. Off for chain_alpha, whose baseline alone
  /// takes about 40 s.
  bool serial_baseline = true;
};

/// One structure -> alpha tensor run. Times are wall seconds; the *_cpu_s
/// twins are CPU seconds of the whole process (every pool thread and rank).
struct Solve {
  double scf_s = 0.0;
  double cpscf_s = 0.0;
  double scf_cpu_s = 0.0;
  double cpscf_cpu_s = 0.0;
  int scf_iterations = 0;
  int cpscf_iterations = 0;
  /// Basis points evaluated for the Rho phase during the CPSCF directions
  /// (the rho/batch_points_evaluated counter), summed over ranks.
  std::uint64_t cpscf_points = 0;
  Tensor alpha{};        ///< grid-moment path (dipole_response)
  Tensor alpha_trace{};  ///< matrix-trace path (dipole_response_trace)
  /// Empty when the solve passed every check, else the first reason it
  /// failed (exception, non-convergence, or a correctness check).
  std::string failure;
  /// Mapping shape of the rank run (ranks > 0): batches, worst points share.
  aeqp::core::ParallelDfptStats stats;
  std::shared_ptr<const aeqp::scf::ScfResult> ground;  ///< converged SCF
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Totals over every solve a run attempted.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const Solve& s) {
    ++attempted;
    if (!s.failure.empty()) ++failed;
  }
};

// --- workloads and solves (workloads.cpp) ---

[[nodiscard]] Workload make_workload(const std::string& name, unsigned long long seed);

/// Threads plus ranks the workload keeps busy at once.
[[nodiscard]] std::size_t concurrency(const Workload& w);

/// Ground state on kPoolThreads pool threads, then the three CPSCF directions
/// (serial or on w.ranks ranks), then the correctness checks. Never throws:
/// errors land in Solve::failure.
[[nodiscard]] Solve solve_alpha(const Workload& w, std::size_t index);

/// The three CPSCF directions through serial DfptSolver on one thread --
/// the single-thread baseline next to a workload's parallel configuration.
[[nodiscard]] Solve solve_cpscf_serial_1t(const aeqp::scf::ScfResult& ground);

/// CPU seconds consumed so far by every thread of this process. Unlike wall
/// time it does not count time a virtual CPU was descheduled by its host.
[[nodiscard]] double process_cpu_s();

/// The geometry-dependent set-up ScfSolver::run performs, repeated from
/// outside with the same structure and options; returns its CPU seconds.
/// Each call is wrapped in a benchmark span named after the layer function.
double time_setup(const aeqp::grid::Structure& s);

[[nodiscard]] double median(std::vector<double> v);

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0);

/// One human-readable line: label, then the 9 components row-major.
void print_tensor(const std::string& label, const Tensor& a);

// --- correctness (alpha_check.cpp) ---

/// Committed reference tensors at this library's default options.
extern const Tensor kWaterAlpha;
extern const Tensor kChain1Alpha;
extern const Tensor kChain2Alpha;

/// Reference tolerance for the fixed structures, relative to max |ref|:
/// far above the ~1e-10 screening drift, far below the ~1e-2 DFPT-vs-FD
/// physics agreement.
inline constexpr double kReferenceTolerance = 2e-3;

/// Empty when alpha passes every check, else why it failed: grid-moment vs
/// matrix-trace agreement, symmetry, and agreement with `expected`.
[[nodiscard]] std::string check_alpha(const Tensor& alpha, const Tensor& trace,
                                      const Expectation& expected);

/// True when check_alpha rejects a copy of a good solve's alpha with one
/// component perturbed -- proof that a wrong tensor is counted as failed.
[[nodiscard]] bool self_check(const Solve& good, const Expectation& expected);

/// max_ij |alpha_ij - ref_ij| / max |ref|.
[[nodiscard]] double max_rel_dev(const Tensor& alpha, const Tensor& ref);

/// Largest distance in units in the last place between two tensors, over
/// the components of `b` above 1e-8 max |b| (the others vanish by symmetry).
[[nodiscard]] double max_ulp_distance(const Tensor& a, const Tensor& b);

// --- traced run (traced.cpp) ---

/// One traced pass over the workload: set-up, one alpha solve, a replayed
/// SCF iteration, the single-thread baseline and the atom-scaling sweep.
/// Returns the per-layer metrics; `correct` is cleared when the span
/// attribution does not add up.
[[nodiscard]] std::vector<Metric> run_traced(const Workload& w, Tally& tally,
                                             bool& correct);

}  // namespace e2e
