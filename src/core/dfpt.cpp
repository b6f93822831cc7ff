#include "core/dfpt.hpp"

#include "common/error.hpp"
#include "core/cpscf_loop.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "tune/tune.hpp"

namespace aeqp::core {

using linalg::Matrix;

std::string phase_name(Phase p) {
  switch (p) {
    case Phase::DM: return "DM";
    case Phase::Sumup: return "Sumup";
    case Phase::Rho: return "Rho";
    case Phase::H: return "H";
    case Phase::Sternheimer: return "Sternheimer";
  }
  return "?";
}

PhaseTimes DfptResult::total_phase_seconds() const {
  PhaseTimes total;
  for (const auto& dir : directions)
    for (const auto& [phase, sec] : dir.phase_seconds) total[phase] += sec;
  return total;
}

DfptSolver::DfptSolver(const scf::ScfResult& ground, DfptOptions options)
    : ground_(ground),
      options_(options),
      setup_(std::make_shared<const detail::CpscfSetup>(
          detail::make_cpscf_setup(ground, options))) {
  // Device engine: precompute per-batch basis supports once (the
  // initialization phase the paper's Fig. 11 targets).
  if (options_.device)
    device_supports_ = kernels::build_batch_supports(
        *ground_.basis, *ground_.grid,
        grid::make_batches(*ground_.grid,
                           tune::grid_batch_points(options_.device_batch_points)));
}

DfptDirectionResult DfptSolver::solve_direction(int j) const {
  AEQP_TRACE_SCOPE("cpscf/direction");
  AEQP_CHECK(j >= 0 && j < 3, "solve_direction: direction must be 0..2");
  const auto& integ = *ground_.integrator;
  const auto& grid = *ground_.grid;
  const auto& basis = *ground_.basis;
  const auto& hartree = *ground_.hartree;
  const std::size_t nb = ground_.coefficients.rows();
  const std::size_t np = grid.size();

  std::vector<double> n1(np, 0.0);  // response density on the grid
  std::vector<double> v1(np, 0.0);  // v^(1)_es,tot + v^(1)_xc on the grid

  // Host provider: the batched integrator for Sumup and H, and the
  // full-grid Rho consumer.
  detail::CpscfKernels k;
  k.sumup = [&](const Matrix& p) -> std::span<double> {
    n1 = integ.density(p);
    return n1;
  };
  k.rho = [&](const Matrix& p) -> std::span<double> {
    // Batched producer: the projection hands whole angular rings to this
    // callback; the basis layer screens atoms per ring and evaluates into
    // reusable thread-local scratch (no per-point allocation).
    const poisson::BatchDensityFn n1_fn = [&](const Vec3* pts, std::size_t m,
                                              double* outp) {
      thread_local basis::BatchEval ev;
      basis.evaluate_batch(pts, m, setup_->screen_radii, ev);
      basis::contract_density(p, ev, outp);
    };
    const auto v1_part = hartree.solve_density(n1_fn);
    // Batched consumer: interpolate the partitioned potential block by
    // block. Each point's value is independent, so the block size is pure
    // cache tuning and never changes v1.
    const std::size_t block = tune::rho_block_size(options_.rho_block_size);
    exec::parallel_for_ranges(0, np, block, [&](std::size_t b, std::size_t e) {
      thread_local std::vector<Vec3> ppos;
      thread_local std::vector<double> vh;
      ppos.resize(e - b);
      vh.resize(e - b);
      for (std::size_t pt = b; pt < e; ++pt) ppos[pt - b] = grid.point(pt).pos;
      hartree.potential_batch(v1_part, ppos.data(), e - b, vh.data());
      for (std::size_t pt = b; pt < e; ++pt)
        v1[pt] = vh[pt - b] + setup_->fxc[pt] * n1[pt];
    });
    return v1;
  };
  k.potential_matrix = [&] { return integ.potential_matrix(v1); };
  k.observe = options_.observer;
  if (options_.device) {
    // Device provider: Sumup and H through the SIMT batch kernels (work-group
    // per batch); Rho stays on the host.
    k.sumup = [&](const Matrix& p) -> std::span<double> {
      kernels::sumup_kernel(*options_.device, grid, device_supports_, p, n1);
      return n1;
    };
    k.potential_matrix = [&] {
      Matrix vmat(nb, nb);
      kernels::h_kernel(*options_.device, grid, device_supports_, v1, vmat);
      return vmat;
    };
  }

  DfptDirectionResult res;
  const double last_delta = detail::run_cpscf(ground_, *setup_, options_, j, k, res);
  detail::check_convergence(res, last_delta, options_, j);
  res.n1_samples = std::move(n1);
  for (int axis = 0; axis < 3; ++axis) {
    res.dipole_response[axis] = integ.moment(res.n1_samples, axis);
    // Independent path: mu_I = Tr(P D_I) => alpha_IJ = Tr(P^(1)_J D_I).
    res.dipole_response_trace[axis] =
        linalg::trace_product(res.p1, integ.dipole_matrix(axis));
  }
  return res;
}

DfptResult DfptSolver::solve_all() const {
  DfptResult res;
  for (int j = 0; j < 3; ++j)
    res.directions[static_cast<std::size_t>(j)] = solve_direction(j);
  return res;
}

}  // namespace aeqp::core
