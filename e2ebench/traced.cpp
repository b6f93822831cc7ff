// Traced run: per-layer attribution of one alpha solve, from the spans and
// counters the library already emits plus the benchmark's own spans around
// its calls into each layer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "basis/basis_set.hpp"
#include "core/structures.hpp"
#include "e2ebench.hpp"
#include "exec/thread_pool.hpp"
#include "grid/molecular_grid.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poisson/multipole.hpp"
#include "scf/integrator.hpp"
#include "tune/tune.hpp"

namespace e2e {

using namespace aeqp;
using Clock = std::chrono::steady_clock;

namespace {

/// Each replayed layer call runs this often; the metric is the median.
constexpr int kReplayReps = 3;
/// Chain lengths n of H(C2H4)nH for the atom-scaling fits.
constexpr std::size_t kSweepChains[] = {1, 2, 4};

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

/// Per-name totals and self times of one stage's spans.
struct Attribution {
  std::map<std::string, SpanTotals> by_name;
  double top_level_s = 0.0;  ///< summed duration of depth-0 spans
  std::map<int, double> rank_busy_s;  ///< per rank: direction minus comm/wait
  std::string problem;  ///< empty when every parent's time adds up

  [[nodiscard]] const SpanTotals& get(const std::string& name) const {
    static const SpanTotals none;
    const auto it = by_name.find(name);
    return it == by_name.end() ? none : it->second;
  }
  [[nodiscard]] double total(const std::string& name) const { return get(name).total_s; }
  [[nodiscard]] double self(const std::string& name) const { return get(name).self_s; }
  [[nodiscard]] double median_s(const std::string& name) const {
    return median(get(name).durations_s);
  }
};

/// Self time from completed_spans(): on each lane a span's children are the
/// spans one level deeper that start inside it. Checks that every child
/// lies inside its parent and that, for each parent, the self times of all
/// its descendants plus its own unattributed time add up to its duration.
Attribution attribute(const std::vector<obs::CompletedSpan>& spans) {
  constexpr double kSlackUs = 1e-3;
  const std::size_t n = spans.size();
  std::vector<double> child_us(n, 0.0), descendant_self_us(n, 0.0);
  std::vector<std::ptrdiff_t> parent(n, -1);
  Attribution out;

  std::map<std::size_t, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < n; ++i) lanes[spans[i].thread_index].push_back(i);
  for (auto& [lane, idx] : lanes) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].ts_us != spans[b].ts_us ? spans[a].ts_us < spans[b].ts_us
                                              : spans[a].depth < spans[b].depth;
    });
    std::vector<std::size_t> open;
    for (const std::size_t i : idx) {
      while (!open.empty() && spans[open.back()].depth >= spans[i].depth)
        open.pop_back();
      if (!open.empty()) {
        const auto& p = spans[open.back()];
        if (spans[i].depth != p.depth + 1 ||
            spans[i].ts_us + spans[i].dur_us > p.ts_us + p.dur_us + kSlackUs)
          out.problem = std::string(spans[i].name) + " is not nested in " + p.name;
        parent[i] = static_cast<std::ptrdiff_t>(open.back());
        child_us[open.back()] += spans[i].dur_us;
      }
      open.push_back(i);
    }
  }

  // Deepest spans first, so each span's descendant sum is final before it
  // is folded into its parent.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return spans[a].depth > spans[b].depth; });
  for (const std::size_t i : order) {
    const auto& s = spans[i];
    const double self_us = s.dur_us - child_us[i];
    if (self_us < -kSlackUs) out.problem = std::string(s.name) + " has negative self time";
    if (child_us[i] > 0.0 &&
        std::fabs(descendant_self_us[i] + self_us - s.dur_us) > kSlackUs + 1e-9 * s.dur_us)
      out.problem = std::string(s.name) + ": descendants plus unattributed != duration";
    if (parent[i] >= 0)
      descendant_self_us[static_cast<std::size_t>(parent[i])] +=
          self_us + descendant_self_us[i];

    SpanTotals& t = out.by_name[s.name];
    ++t.count;
    t.total_s += s.dur_us * 1e-6;
    t.self_s += self_us * 1e-6;
    t.durations_s.push_back(s.dur_us * 1e-6);
    if (s.depth == 0) out.top_level_s += s.dur_us * 1e-6;
    if (s.rank >= 0) {
      const std::string name = s.name;
      if (name == "cpscf/parallel_direction") out.rank_busy_s[s.rank] += s.dur_us * 1e-6;
      if (name == "comm/wait") out.rank_busy_s[s.rank] -= s.dur_us * 1e-6;
    }
  }
  if (obs::dropped_events() != 0) out.problem = "trace buffers dropped events";
  return out;
}

Attribution take_stage() {
  Attribution a = attribute(obs::completed_spans());
  obs::reset();
  return a;
}

double counter(const std::vector<obs::MetricSample>& samples, const std::string& name) {
  for (const auto& s : samples)
    if (s.name == name) return s.value;
  return 0.0;
}

double gauge_peak(const char* name) {
  for (const auto& g : obs::mem_snapshot())
    if (g.name == name) return static_cast<double>(g.peak_bytes);
  return 0.0;
}

double ratio(double num, double den, double if_empty) {
  return den > 0.0 ? num / den : if_empty;
}

/// One SCF iteration's layer calls, replayed on the converged ground state
/// under benchmark spans. Returns the points the real-density projection
/// handed to its callback per projection.
double replay_iteration(const scf::ScfResult& g) {
  const scf::ScfOptions opt;
  const basis::BasisSet& basis = *g.basis;
  const poisson::HartreeSolver& hartree = *g.hartree;
  const scf::BatchIntegrator& integ = *g.integrator;
  const grid::MolecularGrid& grid = *g.grid;
  const std::vector<double> screen = basis.screening_radii(opt.screening_threshold);

  std::atomic<std::uint64_t> points{0};
  const poisson::BatchDensityFn density = [&](const Vec3* pts, std::size_t m,
                                              double* out) {
    points.fetch_add(m, std::memory_order_relaxed);
    thread_local basis::BatchEval ev;
    basis.evaluate_batch(pts, m, screen, ev);
    basis::contract_density(g.density_matrix, ev, out);
  };
  // Constant density: the projection is left with the Becke and Y_lm work.
  const poisson::BatchDensityFn constant = [](const Vec3*, std::size_t m, double* out) {
    std::fill(out, out + m, 1.0);
  };

  const std::size_t np = grid.size();
  const std::size_t block = tune::rho_block_size(opt.rho_block_size);
  std::vector<double> v_h(np);
  for (int rep = 0; rep < kReplayReps; ++rep) {
    {
      AEQP_TRACE_SCOPE("bench/poisson/project(constant)");
      (void)hartree.project(constant);
    }
    poisson::MultipoleDensity rho;
    {
      AEQP_TRACE_SCOPE("bench/poisson/project");
      rho = hartree.project(density);
    }
    poisson::PartitionedPotential v;
    {
      AEQP_TRACE_SCOPE("bench/poisson/solve");
      v = hartree.solve(rho);
    }
    {
      AEQP_TRACE_SCOPE("bench/poisson/potential_batch");
      exec::parallel_for_ranges(0, np, block, [&](std::size_t b, std::size_t e) {
        thread_local std::vector<Vec3> pos;
        pos.resize(e - b);
        for (std::size_t i = b; i < e; ++i) pos[i - b] = grid.point(i).pos;
        hartree.potential_batch(v, pos.data(), e - b, v_h.data() + b);
      });
    }
    {
      AEQP_TRACE_SCOPE("bench/scf/BatchIntegrator::density");
      (void)integ.density(g.density_matrix);
    }
    {
      AEQP_TRACE_SCOPE("bench/scf/potential_matrix");
      (void)integ.potential_matrix(v_h);
    }
  }
  return static_cast<double>(points.load()) / kReplayReps;
}

struct Exponents {
  double grid_build = 0.0;
  double project = 0.0;
  double evaluate = 0.0;
};

/// MolecularGrid::build, constant-density HartreeSolver::project and
/// BasisSet::evaluate_batch over the grid on H(C2H4)nH, fitted in atoms.
Exponents atom_scaling() {
  const scf::ScfOptions opt;
  const poisson::BatchDensityFn constant = [](const Vec3*, std::size_t m, double* out) {
    std::fill(out, out + m, 1.0);
  };
  std::vector<double> atoms, grid_s, project_s, evaluate_s;
  for (const std::size_t n : kSweepChains) {
    const grid::Structure s = core::polyethylene_chain(n);
    atoms.push_back(static_cast<double>(s.size()));
    auto t0 = Clock::now();
    const grid::MolecularGrid grid = grid::MolecularGrid::build(s, opt.grid);
    grid_s.push_back(seconds_since(t0));

    const poisson::HartreeSolver hartree(s, opt.poisson);
    t0 = Clock::now();
    (void)hartree.project(constant);
    project_s.push_back(seconds_since(t0));

    const basis::BasisSet basis(s, opt.tier, opt.r_cut);
    const std::vector<double> screen = basis.screening_radii(opt.screening_threshold);
    const std::size_t block = tune::grid_batch_points(0);
    std::vector<Vec3> pos(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) pos[i] = grid.point(i).pos;
    basis::BatchEval ev;
    t0 = Clock::now();
    for (std::size_t b = 0; b < pos.size(); b += block)
      basis.evaluate_batch(pos.data() + b, std::min(block, pos.size() - b), screen, ev);
    evaluate_s.push_back(seconds_since(t0));
  }
  return {obs::fit_scaling_exponent(atoms, grid_s),
          obs::fit_scaling_exponent(atoms, project_s),
          obs::fit_scaling_exponent(atoms, evaluate_s)};
}

}  // namespace

std::vector<Metric> run_traced(const Workload& w, Tally& tally, bool& correct) {
  const Expectation& expected = w.expected[0];

  // Untraced solve: the base of the tracing-overhead ratio.
  obs::set_mode(obs::TraceMode::Off);
  obs::set_memaudit(false);
  const Solve plain = solve_alpha(w, 0);
  tally.add(plain);

  obs::set_mode(obs::TraceMode::Summary);
  obs::set_memaudit(true);
  obs::reset();
  exec::ThreadPool::set_global_threads(kPoolThreads);
  for (const auto& s : w.structures) (void)time_setup(s);
  const Attribution setup = take_stage();

  obs::reset_counters();
  obs::reset_mem_gauges();
  const Solve traced = solve_alpha(w, 0);
  tally.add(traced);
  if (traced.failure.empty() && !self_check(traced, expected)) {
    std::printf("self-check failed: a perturbed alpha was not counted as failed\n");
    correct = false;
  }
  const std::vector<obs::MetricSample> counters = obs::metrics_snapshot();
  const double point_cache = gauge_peak("dfpt/point_cache");
  const double p1_replicated = gauge_peak("dfpt/p1_replicated");
  const double assignment = gauge_peak("mapping/assignment");
  const Attribution solve = take_stage();

  double density_points = 0.0;
  Solve serial;
  if (traced.ground && traced.ground->converged) {
    exec::ThreadPool::set_global_threads(kPoolThreads);
    density_points = replay_iteration(*traced.ground);
    if (w.serial_baseline) {
      serial = solve_cpscf_serial_1t(*traced.ground);
      if (serial.failure.empty())
        serial.failure = check_alpha(serial.alpha, serial.alpha_trace, expected);
      tally.add(serial);
    }
  }
  const Attribution replay = take_stage();

  exec::ThreadPool::set_global_threads(kPoolThreads);
  const Exponents exps = atom_scaling();
  obs::reset();
  obs::set_mode(obs::TraceMode::Off);
  obs::set_memaudit(false);

  print_tensor("alpha (workload configuration)", traced.alpha);
  const bool has_serial = w.serial_baseline && serial.failure.empty();
  if (has_serial) print_tensor("alpha (serial, 1 thread)", serial.alpha);
  for (const Attribution* a : {&setup, &solve, &replay})
    if (!a->problem.empty()) {
      std::printf("attribution check failed: %s\n", a->problem.c_str());
      correct = false;
    }

  // Rank workloads record the CPSCF spans once per rank lane; per-rank
  // means keep them comparable with wall time.
  const double lanes = static_cast<double>(std::max<std::size_t>(1, w.ranks));
  const std::string direction = w.ranks > 0 ? "cpscf/parallel_direction" : "cpscf/direction";
  double busy_max = 0.0, busy_min = 0.0;
  for (const auto& [rank, busy] : solve.rank_busy_s) {
    busy_max = std::max(busy_max, busy);
    busy_min = busy_min == 0.0 ? busy : std::min(busy_min, busy);
  }
  const double chunks = counter(counters, "exec/chunks");
  const double steals = counter(counters, "exec/steals");
  const double skipped = counter(counters, "rho/screen/atom_blocks_skipped");
  const double kept = counter(counters, "rho/screen/atom_blocks_evaluated");
  const double project_geometry = replay.median_s("bench/poisson/project(constant)");

  return {
      {"grid.build_s", setup.total("bench/grid/MolecularGrid::build"), "s"},
      {"grid.points", traced.ground ? double(traced.ground->grid->size()) : 0.0, "count"},
      {"grid.build_atoms_exponent", exps.grid_build, "exponent"},
      {"basis.setup_s", setup.total("bench/basis/BasisSet"), "s"},
      {"basis.points_evaluated", counter(counters, "rho/batch_points_evaluated"), "count"},
      {"basis.screen_skip_ratio", ratio(skipped, skipped + kept, 0.0), "ratio"},
      {"basis.evaluate_atoms_exponent", exps.evaluate, "exponent"},
      {"poisson.ctor_s", setup.total("bench/poisson/HartreeSolver"), "s"},
      {"poisson.project_s",
       ratio(solve.self("poisson/project"), double(solve.get("poisson/project").count), 0.0), "s"},
      {"poisson.project_share", ratio(solve.self("poisson/project"), solve.top_level_s, 0.0),
       "ratio"},
      {"poisson.project_geometry_s", project_geometry, "s"},
      {"poisson.project_density_s", replay.median_s("bench/poisson/project") - project_geometry,
       "s"},
      {"poisson.project_density_points", density_points, "count"},
      {"poisson.project_atoms_exponent", exps.project, "exponent"},
      {"poisson.solve_s", replay.median_s("bench/poisson/solve"), "s"},
      {"poisson.potential_batch_s", replay.median_s("bench/poisson/potential_batch"), "s"},
      {"scf.iterations", double(traced.scf_iterations), "count"},
      {"scf.hartree_s", solve.total("scf/hartree"), "s"},
      {"scf.hamiltonian_s", solve.total("scf/hamiltonian"), "s"},
      {"scf.density_s", solve.total("scf/density"), "s"},
      {"scf.diagonalize_s", solve.total("scf/diagonalize"), "s"},
      {"scf.integrals_s",
       setup.total("bench/scf/BatchIntegrator") + setup.total("bench/scf/integrals"), "s"},
      {"scf.unattributed_s", solve.self("scf/run"), "s"},
      {"scf.integrator_density_s", replay.median_s("bench/scf/BatchIntegrator::density"), "s"},
      {"scf.potential_matrix_s", replay.median_s("bench/scf/potential_matrix"), "s"},
      {"core.cpscf_iterations", double(traced.cpscf_iterations), "count"},
      {"core.dm_s", solve.total("cpscf/dm") / lanes, "s"},
      {"core.sumup_s", solve.total("cpscf/sumup") / lanes, "s"},
      {"core.rho_s", solve.total("cpscf/rho") / lanes, "s"},
      {"core.h_s", solve.total("cpscf/h") / lanes, "s"},
      {"core.sternheimer_s", solve.total("cpscf/sternheimer") / lanes, "s"},
      {"core.unattributed_s", solve.self(direction) / lanes, "s"},
      {"core.rho_share", ratio(solve.total("cpscf/rho"), solve.total(direction), 0.0), "ratio"},
      {"core.rho_redundancy",
       ratio(double(traced.cpscf_points), double(serial.cpscf_points), 0.0), "ratio"},
      {"core.alpha_max_rel_dev", max_rel_dev(traced.alpha, *expected.alpha), "ratio"},
      {"core.ranks_vs_serial_ulp", has_serial ? max_ulp_distance(traced.alpha, serial.alpha) : 0.0,
       "ulp"},
      {"linalg.abft_checks", counter(counters, "abft/checks"), "count"},
      {"parallel.collectives", counter(counters, "comm/collectives"), "count"},
      {"parallel.collective_doubles", counter(counters, "comm/collective_doubles"), "count"},
      {"parallel.wait_s", solve.total("comm/wait"), "s"},
      {"parallel.rank_skew", ratio(busy_max, busy_min, 1.0), "ratio"},
      {"parallel.cpscf_1t_s", serial.cpscf_s, "s"},
      {"parallel.speedup_vs_1t", ratio(serial.cpscf_s, traced.cpscf_s, 0.0), "x"},
      {"comm.packed_bytes", counter(counters, "comm/packed_bytes"), "bytes"},
      {"comm.packed_collectives", counter(counters, "comm/packed_collectives"), "count"},
      {"comm.packed_flush_s", solve.total("comm/packed_flush"), "s"},
      {"mapping.batches", double(traced.stats.batches), "count"},
      {"mapping.max_rank_points_share", w.ranks > 0 ? traced.stats.max_rank_points_share : 1.0,
       "ratio"},
      {"exec.chunks", chunks, "count"},
      {"exec.steals", steals, "count"},
      {"exec.steal_ratio", ratio(steals, chunks, 0.0), "ratio"},
      {"resilience.guard_checks", counter(counters, "guards/checks"), "count"},
      {"mem.dfpt_point_cache_peak_bytes", point_cache, "bytes"},
      {"mem.dfpt_p1_replicated_peak_bytes", p1_replicated, "bytes"},
      {"mem.mapping_assignment_peak_bytes", assignment, "bytes"},
      {"obs.trace_overhead",
       ratio(traced.scf_s + traced.cpscf_s, plain.scf_s + plain.cpscf_s, 1.0) - 1.0, "ratio"},
  };
}

}  // namespace e2e
