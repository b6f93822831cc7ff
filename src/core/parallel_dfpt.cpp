#include "core/parallel_dfpt.hpp"

#include <chrono>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "common/timer.hpp"
#include "core/cpscf_loop.hpp"
#include "linalg/sparse.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "poisson/multipole.hpp"
#include "resilience/membudget.hpp"
#include "tune/tune.hpp"

namespace aeqp::core {

using linalg::Matrix;

namespace {

/// One point's nonzero basis values: a row of the per-rank point-eval CSR,
/// or the scratch evaluation when the cache is shed.
struct PointRow {
  std::span<const std::uint32_t> indices;
  std::span<const double> values;
};

}  // namespace

ParallelDfptResult solve_direction_parallel(const scf::ScfResult& ground,
                                            const ParallelDfptOptions& options,
                                            int direction) {
  AEQP_CHECK(direction >= 0 && direction < 3,
             "solve_direction_parallel: direction must be 0..2");
  AEQP_CHECK(!options.dfpt.device,
             "solve_direction_parallel: DfptOptions::device is not supported "
             "(no rank-local device kernels); use DfptSolver");
  const detail::CpscfSetup setup = detail::make_cpscf_setup(ground, options.dfpt);

  const auto& basis = *ground.basis;
  const auto& grid = *ground.grid;
  const auto& integ = *ground.integrator;
  const auto& hartree = *ground.hartree;
  const std::size_t nb = ground.coefficients.rows();
  const std::size_t np = grid.size();

  // Elastic world: a non-empty active_ranks list re-enters the solver at a
  // reduced world size after permanent rank loss. n_active is the world the
  // run executes on; options.ranks stays the original world fault plans and
  // the initial mapping are expressed in.
  const std::vector<std::size_t>& active = options.active_ranks;
  const std::size_t n_active = active.empty() ? options.ranks : active.size();
  for (std::size_t s = 0; s < active.size(); ++s) {
    AEQP_CHECK(active[s] < options.ranks,
               "solve_direction_parallel: active rank out of range");
    AEQP_CHECK(s == 0 || active[s - 1] < active[s],
               "solve_direction_parallel: active_ranks must be strictly "
               "increasing");
  }

  // Shared, read-only setup: batches and the locality mapping.
  const auto batches =
      grid::make_batches(grid, tune::grid_batch_points(options.batch_points));
  AEQP_CHECK(batches.size() >= options.ranks,
             "solve_direction_parallel: more ranks than batches");
  auto assignment = mapping::locality_enhancing_mapping(batches, options.ranks);
  ParallelDfptResult out;
  if (n_active < options.ranks) {
    // Survivor re-mapping: re-home the dead ranks' batches with the same
    // locality objective, keeping the survivors' own batches in place.
    Timer remap_timer;
    auto remap = mapping::remap_for_survivors(assignment, batches, active);
    out.stats.remap_seconds = remap_timer.seconds();
    out.stats.remap_batches_moved = remap.moved_batches;
    assignment = std::move(remap.assignment);
    obs::trace_instant("elastic/remap");
  }
  out.stats.survivor_ranks = n_active;
  out.stats.lost_ranks = options.ranks - n_active;

  // Current-world speed weights (1.0 = healthy); they also size the
  // Rho-producer row shares below.
  std::vector<double> world_weights(n_active, 1.0);
  if (!options.rank_speed_weights.empty()) {
    // Straggler rebalance rung: re-home batches around the measured rank
    // speeds. Weights are original-world indexed; translate to the running
    // world's slots (identity when no shrink happened). Every rank computes
    // the same deterministic mapping, so results stay bit-identical to a
    // run that started from this assignment.
    AEQP_CHECK(options.rank_speed_weights.size() == options.ranks,
               "solve_direction_parallel: rank_speed_weights must cover the "
               "original world");
    std::size_t n_slow = 0;
    for (std::size_t s = 0; s < n_active; ++s) {
      world_weights[s] =
          options.rank_speed_weights[active.empty() ? s : active[s]];
      if (world_weights[s] < 1.0) ++n_slow;
    }
    Timer rebalance_timer;
    auto rebalance =
        mapping::rebalance_for_slow_ranks(assignment, batches, world_weights);
    out.stats.rebalance_seconds = rebalance_timer.seconds();
    out.stats.rebalance_batches_moved = rebalance.moved_batches;
    out.stats.rebalances = 1;
    out.stats.degraded_ranks = n_slow;
    assignment = std::move(rebalance.assignment);
    obs::trace_instant("mapping/rebalance");
  }

  // The memaudit gauge mapping/assignment covers the final mapping for
  // the lifetime of the solve.
  const obs::MemScope assignment_mem = mapping::track_assignment(assignment);

  // Weighted contiguous row ranges of the Poisson producer: rank s projects
  // rows [rho_row_begin[s], rho_row_begin[s + 1]). Shares are proportional
  // to the speed weights -- equal row counts on a healthy world, ~1/8 as
  // many rho_multipole rows on an 8x-slow rank -- and every rank derives
  // the identical split, so the packed synthesis below sums disjoint
  // contributions in a fixed order. A one-rank world owns every row.
  const std::size_t nrows = hartree.projection_row_count();
  std::vector<std::size_t> rho_row_begin(n_active + 1, 0);
  double wsum = 0.0;
  for (double wv : world_weights) wsum += wv;
  double acc = 0.0;
  for (std::size_t s = 0; s + 1 < n_active; ++s) {
    acc += world_weights[s];
    rho_row_begin[s + 1] = std::max(
        rho_row_begin[s], static_cast<std::size_t>(std::llround(
                              static_cast<double>(nrows) * acc / wsum)));
  }
  rho_row_begin[n_active] = nrows;
  for (std::size_t s = 0; s < n_active; ++s)
    rho_row_begin[s + 1] = std::max(rho_row_begin[s + 1], rho_row_begin[s]);

  out.stats.batches = batches.size();
  std::size_t total_pts = 0, max_pts = 0;
  for (std::size_t r = 0; r < n_active; ++r) {
    const std::size_t pts = assignment.points_of_rank(r, batches);
    total_pts += pts;
    max_pts = std::max(max_pts, pts);
  }
  out.stats.max_rank_points_share =
      static_cast<double>(max_pts) * n_active / static_cast<double>(total_pts);

  // Shared output buffers; ranks write disjoint point sets.
  std::vector<double> n1_full(np, 0.0);
  std::vector<std::size_t> collectives(n_active, 0);
  std::vector<std::size_t> rows(n_active, 0);
  DfptDirectionResult result;  // rank 0's (the cycle is replicated)
  double final_delta = 0.0;

  parallel::Cluster cluster(n_active, options.ranks_per_node,
                            std::vector<std::size_t>(active));
  cluster.set_collective_timeout(
      std::chrono::milliseconds(options.collective_timeout_ms));
  cluster.set_fault_injector(options.fault_injector);
  cluster.set_verify_payloads(options.verify_collectives);
  cluster.set_straggler_detector(options.straggler_detector);
  // The constructor already armed adaptive deadlines when the env gate is
  // on (adaptive_deadlines == -1 keeps that); 0/1 force the state.
  if (options.adaptive_deadlines == 0)
    cluster.set_adaptive_deadlines(false);
  else if (options.adaptive_deadlines == 1 ||
           (cluster.adaptive_deadlines() && options.adaptive_floor_ms > 0.0))
    cluster.set_adaptive_deadlines(true, options.adaptive_floor_ms);
  cluster.run([&](parallel::Communicator& comm) {
    // Tag this rank thread: the log sink prefixes its lines and the trace
    // exporter gives it its own lane. Purely observational.
    const ScopedThreadRank rank_tag(static_cast<int>(comm.rank()));
    AEQP_TRACE_SCOPE("cpscf/parallel_direction");
    const auto& my_batches = assignment.batches_of_rank[comm.rank()];
    // Cache this rank's point ids and basis values.
    std::vector<std::uint32_t> my_points;
    for (auto b : my_batches)
      my_points.insert(my_points.end(), batches[b].points.begin(),
                       batches[b].points.end());
    // Governor probes (resilience/membudget.hpp) fire before the two
    // dominant per-rank allocations are committed: an over-budget rank
    // raises the structured OutOfMemoryBudget here, where the recovery
    // ladder can catch it, instead of dying in std::bad_alloc mid-resize.
    // The point-eval cache is one flat CSR over this rank's points, sized
    // up front from the geometry-only entry bound so no growth slack or
    // outgrown buffer is left on the heap.
    std::vector<std::uint32_t> eval_offsets;
    std::vector<std::uint32_t> eval_indices;
    std::vector<double> eval_values;
    basis::PointEval eval_scratch;  // per-point slot (fill, or cache shed)
    if (options.cache_point_evals) {
      std::size_t entry_bound = 0;
      for (const std::uint32_t p : my_points)
        entry_bound += basis.evaluate_bound(grid.point(p).pos);
      resilience::oom_probe(
          "dfpt/point_cache",
          (my_points.size() + 1) * sizeof(std::uint32_t) +
              entry_bound * (sizeof(std::uint32_t) + sizeof(double)));
      eval_offsets.reserve(my_points.size() + 1);
      eval_indices.reserve(entry_bound);
      eval_values.reserve(entry_bound);
      eval_offsets.push_back(0);
      for (const std::uint32_t p : my_points) {
        basis.evaluate(grid.point(p).pos, false, eval_scratch);
        eval_indices.insert(eval_indices.end(), eval_scratch.indices.begin(),
                            eval_scratch.indices.end());
        eval_values.insert(eval_values.end(), eval_scratch.values.begin(),
                           eval_scratch.values.end());
        eval_offsets.push_back(static_cast<std::uint32_t>(eval_indices.size()));
      }
    }
    resilience::oom_probe("dfpt/p1_replicated", nb * nb * sizeof(double));
    // Memory audit (ROADMAP item 3): P^(1) is fully replicated per rank
    // (O(N^2) in global basis size) and the point-eval cache scales with
    // the rank's point share -- the two dominant per-rank structures this
    // solver holds. Scopes release when the rank lambda returns.
    obs::MemScope p1_mem("dfpt/p1_replicated");
    obs::MemScope eval_mem("dfpt/point_cache");
    if (obs::memaudit_enabled()) {
      p1_mem.add(static_cast<std::int64_t>(nb * nb * sizeof(double)));
      eval_mem.add(static_cast<std::int64_t>(
          (my_points.capacity() + eval_offsets.capacity() +
           eval_indices.capacity()) *
              sizeof(std::uint32_t) +
          eval_values.capacity() * sizeof(double)));
    }
    // Re-check committed usage now that the measured cache bytes are on the
    // gauges: the pre-allocation probe used the geometry bound, this one
    // is exact (request 0 = audit the ceiling, admit nothing new).
    resilience::oom_probe("dfpt/point_cache_commit", 0);
    std::vector<double> v1_own(my_points.size(), 0.0);
    std::vector<double> n1_own(my_points.size(), 0.0);

    // Point-eval accessor shared by the Sumup and H loops: the cached CSR
    // row when the cache is resident, deterministic re-evaluation into the
    // scratch slot when the relief ladder shed it. Bit-identical either
    // way: same evaluator, same points, same accumulation order.
    const auto eval_of = [&](std::size_t k) -> PointRow {
      if (options.cache_point_evals) {
        const std::size_t b = eval_offsets[k], n = eval_offsets[k + 1] - b;
        return {{eval_indices.data() + b, n}, {eval_values.data() + b, n}};
      }
      basis.evaluate(grid.point(my_points[k]).pos, false, eval_scratch);
      return {eval_scratch.indices, eval_scratch.values};
    };
    // Packed (optionally hierarchical) sum-AllReduce of the rows `add_rows`
    // stages; packing regroups rows without reordering the reduction.
    const auto packed_sum = [&](const auto& add_rows) {
      comm::PackedAllReducer packer(comm, options.reduce_mode,
                                    tune::pack_window_bytes(options.pack_bytes),
                                    options.verify_collectives);
      add_rows(packer);
      packer.flush();
      collectives[comm.rank()] += packer.collective_count();
      rows[comm.rank()] += packer.rows_packed();
    };

    // Rank-local provider: the grid phases on this rank's points; the
    // Sternheimer update and P^(1) assembly run replicated in the shared
    // loop (identical inputs -> identical outputs on every rank).
    detail::CpscfKernels kern;
    // Sumup: n^(1) on this rank's points. Under the legacy storage mode the
    // contraction fetches every matrix element from a CSR copy (row pointer
    // + column search + value, the inefficiency Fig. 3(a) illustrates); the
    // values are identical either way.
    kern.sumup = [&](const Matrix& p1) -> std::span<double> {
      linalg::CsrMatrix p1_csr;
      if (options.storage == HamiltonianStorage::GlobalSparseCsr) {
        std::vector<linalg::Triplet> trips;
        trips.reserve(nb * nb);
        for (std::size_t i = 0; i < nb; ++i)
          for (std::size_t j = 0; j < nb; ++j)
            if (p1(i, j) != 0.0) trips.push_back({i, j, p1(i, j)});
        p1_csr = linalg::CsrMatrix(nb, nb, std::move(trips));
      }
      for (std::size_t k = 0; k < my_points.size(); ++k) {
        const PointRow ev = eval_of(k);
        double acc = 0.0;
        if (options.storage == HamiltonianStorage::GlobalSparseCsr) {
          for (std::size_t i = 0; i < ev.indices.size(); ++i) {
            double rowsum = 0.0;
            for (std::size_t j = 0; j < ev.indices.size(); ++j)
              rowsum += p1_csr.fetch(ev.indices[i], ev.indices[j]) * ev.values[j];
            acc += ev.values[i] * rowsum;
          }
        } else {
          for (std::size_t i = 0; i < ev.indices.size(); ++i) {
            const double* prow = p1.data() + ev.indices[i] * nb;
            double rowsum = 0.0;
            for (std::size_t j = 0; j < ev.indices.size(); ++j)
              rowsum += prow[ev.indices[j]] * ev.values[j];
            acc += ev.values[i] * rowsum;
          }
        }
        n1_own[k] = acc;
      }
      return n1_own;
    };
    // Rho: the Poisson producer is split into weighted row shares and
    // synthesized by packed AllReduce; the consumer runs on this rank's
    // own points.
    kern.rho = [&](const Matrix& p1) -> std::span<double> {
      // Batched producer: angular rings are evaluated through the screened
      // batch path (ring blocks are geometry-defined, hence rank-identical).
      const poisson::BatchDensityFn n1_fn = [&](const Vec3* pts, std::size_t m,
                                                double* outp) {
        thread_local basis::BatchEval ev;
        basis.evaluate_batch(pts, m, setup.screen_radii, ev);
        basis::contract_density(p1, ev, outp);
      };
      // This rank projects only its share of the (atom, shell) rows. Each
      // row is computed by exactly one rank and summed with exact zeros, so
      // the synthesized samples -- and everything downstream -- are
      // bit-identical to a whole-solver projection.
      auto rho_m = hartree.project_rows(n1_fn, rho_row_begin[comm.rank()],
                                        rho_row_begin[comm.rank() + 1]);
      // The packer's staging buffer is freed before the solve.
      packed_sum([&](comm::PackedAllReducer& packer) {
        for (auto& per_atom : rho_m.samples)
          for (auto& channel : per_atom)
            packer.add(std::span<double>(channel.data(), channel.size()));
      });
      hartree.finalize_splines(rho_m);
      const poisson::PartitionedPotential v1_part = hartree.solve(rho_m);
      // Batched consumer over this rank's points; per-point values are
      // independent, so blocking never changes v1_own.
      const std::size_t block = tune::rho_block_size(options.dfpt.rho_block_size);
      std::vector<Vec3> ppos;
      std::vector<double> vh;
      for (std::size_t b0 = 0; b0 < my_points.size(); b0 += block) {
        const std::size_t e0 = std::min(my_points.size(), b0 + block);
        ppos.resize(e0 - b0);
        vh.resize(e0 - b0);
        for (std::size_t k = b0; k < e0; ++k)
          ppos[k - b0] = grid.point(my_points[k]).pos;
        hartree.potential_batch(v1_part, ppos.data(), e0 - b0, vh.data());
        for (std::size_t k = b0; k < e0; ++k)
          v1_own[k] = vh[k - b0] + setup.fxc[my_points[k]] * n1_own[k];
      }
      return v1_own;
    };
    // H: partial response-Hamiltonian integrals over this rank's points,
    // synthesized by packed AllReduce.
    kern.potential_matrix = [&] {
      Matrix partial(nb, nb);
      for (std::size_t k = 0; k < my_points.size(); ++k) {
        const double w = grid.point(my_points[k]).weight * v1_own[k];
        const PointRow ev = eval_of(k);
        for (std::size_t i = 0; i < ev.indices.size(); ++i) {
          const double wi = w * ev.values[i];
          for (std::size_t j = 0; j < ev.indices.size(); ++j)
            partial(ev.indices[i], ev.indices[j]) += wi * ev.values[j];
        }
      }
      packed_sum([&](comm::PackedAllReducer& packer) {
        for (std::size_t row = 0; row < nb; ++row)
          packer.add(std::span<double>(partial.data() + row * nb, nb));
      });
      return partial;
    };
    // Observer on rank 0 only, so side effects happen exactly once; its
    // decision is broadcast so every rank takes the same branch. The extra
    // collective exists only when an observer is installed, leaving the
    // baseline collective sequence untouched. The hook runs off the work
    // clock: its bookkeeping (checkpoint I/O) is not grid work, and
    // counting it would make rank 0 look slow. Then the rank hook runs on
    // EVERY rank with communicator access -- the buddy-replication entry
    // point -- after the abort broadcast, so the schedule stays uniform.
    kern.observe = [&](const CpscfIterationState& state) {
      if (options.dfpt.observer) {
        std::vector<double> action(1, 0.0);
        if (comm.rank() == 0)
          comm.off_the_clock([&] {
            if (options.dfpt.observer(state) == CpscfAction::Abort)
              action[0] = 1.0;
          });
        comm.broadcast(action, 0);
        if (action[0] != 0.0) return CpscfAction::Abort;
      }
      if (options.rank_hook) options.rank_hook(comm, state);
      return CpscfAction::Continue;
    };

    DfptDirectionResult run;
    const double last_delta =
        detail::run_cpscf(ground, setup, options.dfpt, direction, kern, run);

    // Publish this rank's share of n^(1) (disjoint indices) and the moment.
    for (std::size_t k = 0; k < my_points.size(); ++k)
      n1_full[my_points[k]] = n1_own[k];
    std::vector<double> moments(3, 0.0);
    for (std::size_t k = 0; k < my_points.size(); ++k) {
      const grid::GridPoint& gp = grid.point(my_points[k]);
      for (int axis = 0; axis < 3; ++axis)
        moments[static_cast<std::size_t>(axis)] +=
            gp.weight * gp.pos[axis] * n1_own[k];
    }
    comm.allreduce_sum(moments);
    if (comm.rank() == 0) {
      run.dipole_response = {moments[0], moments[1], moments[2]};
      result = std::move(run);
      final_delta = last_delta;
    }
  });

  detail::check_convergence(result, final_delta, options.dfpt, direction,
                            " (" + std::to_string(n_active) + " of " +
                                std::to_string(options.ranks) + " ranks)");
  for (int axis = 0; axis < 3; ++axis)
    result.dipole_response_trace[axis] =
        linalg::trace_product(result.p1, integ.dipole_matrix(axis));
  result.n1_samples = std::move(n1_full);
  out.direction = std::move(result);
  for (std::size_t r = 0; r < n_active; ++r) {
    out.stats.collectives += collectives[r];
    out.stats.rows_reduced += rows[r];
  }
  out.stats.collectives /= n_active;  // same count on every rank
  out.stats.rows_reduced /= n_active;
  return out;
}

obs::ScopedMetricsSource register_metrics(const ParallelDfptStats& stats,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&stats, prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const auto push = [&](const char* name, double v) {
          out.push_back({prefix + "/" + name, v});
        };
        push("collectives", static_cast<double>(stats.collectives));
        push("rows_reduced", static_cast<double>(stats.rows_reduced));
        push("batches", static_cast<double>(stats.batches));
        push("max_rank_points_share", stats.max_rank_points_share);
        push("faults_detected", static_cast<double>(stats.faults_detected));
        push("restores", static_cast<double>(stats.restores));
        push("retries", static_cast<double>(stats.retries));
        push("wasted_iterations", static_cast<double>(stats.wasted_iterations));
        push("survivor_ranks", static_cast<double>(stats.survivor_ranks));
        push("lost_ranks", static_cast<double>(stats.lost_ranks));
        push("remap_batches_moved",
             static_cast<double>(stats.remap_batches_moved));
        push("remap_seconds", stats.remap_seconds);
        push("rebalances", static_cast<double>(stats.rebalances));
        push("rebalance_batches_moved",
             static_cast<double>(stats.rebalance_batches_moved));
        push("rebalance_seconds", stats.rebalance_seconds);
        push("degraded_ranks", static_cast<double>(stats.degraded_ranks));
        push("shrinks", static_cast<double>(stats.shrinks));
        push("buddy_restores", static_cast<double>(stats.buddy_restores));
        push("abft_corrections", static_cast<double>(stats.abft_corrections));
        push("invariant_violations",
             static_cast<double>(stats.invariant_violations));
        push("payload_corruptions",
             static_cast<double>(stats.payload_corruptions));
      });
}

}  // namespace aeqp::core
