#include "core/cpscf_loop.hpp"

#include <cmath>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_ident.hpp"
#include "common/timer.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/abft.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/guards.hpp"
#include "resilience/sdc_inject.hpp"
#include "xc/lda.hpp"

namespace aeqp::core::detail {

using linalg::Matrix;

CpscfSetup make_cpscf_setup(const scf::ScfResult& ground,
                            const DfptOptions& options) {
  AEQP_CHECK(ground.converged, "CPSCF: ground state is not converged");
  AEQP_CHECK(ground.basis && ground.grid && ground.integrator && ground.hartree,
             "CPSCF: ground state lacks shared machinery");
  const std::size_t nb = ground.coefficients.rows();
  const std::size_t n_occ = static_cast<std::size_t>(ground.n_occupied);
  AEQP_CHECK(n_occ >= 1 && n_occ < nb,
             "CPSCF: need at least one occupied and one virtual orbital");
  // Finite gap required by the sum-over-states Sternheimer solution.
  AEQP_CHECK(ground.lumo - ground.homo > 1e-8, "CPSCF: vanishing HOMO-LUMO gap");

  CpscfSetup s;
  s.c_occ = Matrix(nb, n_occ);
  s.c_virt = Matrix(nb, nb - n_occ);
  for (std::size_t mu = 0; mu < nb; ++mu) {
    for (std::size_t i = 0; i < n_occ; ++i) s.c_occ(mu, i) = ground.coefficients(mu, i);
    for (std::size_t a = n_occ; a < nb; ++a)
      s.c_virt(mu, a - n_occ) = ground.coefficients(mu, a);
  }
  s.fxc.resize(ground.density_samples.size());
  for (std::size_t p = 0; p < s.fxc.size(); ++p)
    s.fxc[p] = xc::lda_evaluate(std::max(ground.density_samples[p], 0.0)).fxc;
  // Geometry + threshold only, so every rank derives identical screening.
  s.screen_radii = ground.basis->screening_radii(options.screening_threshold);
  return s;
}

namespace {

/// The next P^(1) input sum_i c_i (P_in,i + beta R_i) over the history. A
/// one-pair history (or a singular B matrix, which drops all but the latest
/// pair) is the linear mix P_in + beta R.
Matrix pulay_next(scf::PulayHistory& pulay, double beta) {
  std::optional<linalg::Vector> c = pulay.coefficients();
  if (!c) {
    if (obs::enabled() && thread_rank() <= 0) {
      static obs::Counter& resets = obs::counter("cpscf/pulay_resets");
      resets.increment();
    }
    c = linalg::Vector{1.0};
  }
  Matrix next(pulay.x(0).rows(), pulay.x(0).cols());
  for (std::size_t i = 0; i < c->size(); ++i) {
    next.axpy((*c)[i], pulay.x(i));
    next.axpy((*c)[i] * beta, pulay.e(i));
  }
  return next;
}

}  // namespace

double run_cpscf(const scf::ScfResult& ground, const CpscfSetup& setup,
                 const DfptOptions& options, int direction,
                 const CpscfKernels& kernels, DfptDirectionResult& res) {
  const Matrix& c_occ = setup.c_occ;
  const Matrix& c_virt = setup.c_virt;
  const std::size_t nb = c_occ.rows();
  const std::size_t n_occ = c_occ.cols();
  const std::size_t n_virt = c_virt.cols();
  auto& t = res.phase_seconds;
  t[Phase::DM] = t[Phase::Sumup] = t[Phase::Rho] = t[Phase::H] =
      t[Phase::Sternheimer] = 0.0;

  // Bare perturbation matrix: -r_J (paper Eq. 11).
  Matrix h1_ext = ground.integrator->dipole_matrix(direction);
  h1_ext.scale(-1.0);
  Matrix& p1 = res.p1;
  p1 = Matrix(nb, nb);
  bool have_response = false;
  double last_delta = 0.0;
  scf::PulayHistory pulay(kCpscfPulayHistory);
  obs::MemScope pulay_mem("cpscf/pulay_history");

  // Compute-site probe: a planted fault corrupts the freshly accumulated
  // density batch here, exactly where a real kernel upset would land.
  const auto sumup = [&] {
    const std::span<double> n1 = kernels.sumup(p1);
    resilience::sdc_probe("cpscf/rho_batch", n1);
    return n1;
  };

  // The response potential is derived state, so a checkpoint only has to
  // carry P^(1) and the Pulay history: a resume recomputes Sumup and Rho
  // from P^(1).
  int start_iteration = 0;
  if (options.warm_start) {
    const auto& ws = *options.warm_start;
    AEQP_CHECK(ws.p1.rows() == nb && ws.p1.cols() == nb,
               "CPSCF: warm start P^(1) has wrong dimensions");
    AEQP_CHECK(ws.iteration >= 1 && ws.iteration < options.max_iterations,
               "CPSCF: warm start iteration outside (0, max_iterations)");
    for (const auto& [x, e] : ws.pulay_history)
      AEQP_CHECK(x.rows() == nb && x.cols() == nb && e.rows() == nb &&
                     e.cols() == nb,
                 "CPSCF: warm start Pulay history has wrong dimensions");
    p1 = ws.p1;
    pulay.import_pairs(ws.pulay_history);
    pulay_mem.add(static_cast<std::int64_t>(pulay.bytes()));
    have_response = true;
    start_iteration = ws.iteration;
    sumup();
    kernels.rho(p1);
  }

  for (int iter = start_iteration + 1; iter <= options.max_iterations; ++iter) {
    Timer timer;

    // --- H phase: response Hamiltonian H^(1) (Eqs. 10-12). ---
    timer.reset();
    Matrix h1 = h1_ext;
    {
      AEQP_TRACE_SCOPE("cpscf/h");
      if (have_response) {
        h1.axpy(1.0, kernels.potential_matrix());
        h1.symmetrize();
      }
      // Phase-boundary invariant: the response Hamiltonian is Hermitian by
      // construction; asymmetry or a non-finite entry is corruption. In a
      // distributed run the value is replicated, so all ranks throw
      // together and the collective schedule stays aligned.
      resilience::guard_hermitian(h1, "cpscf/h1");
    }
    t[Phase::H] += timer.seconds();

    // --- Sternheimer update. Static: U_ai = H^(1)_ai / (eps_i - eps_a).
    //     Dynamic (omega != 0): the +omega and -omega amplitudes
    //     X_ai, Y_ai of the coupled-perturbed equations. ---
    timer.reset();
    // Manual span object: the phase's outputs (c1x/c1y) outlive the phase
    // region, so a braced scope cannot delimit it.
    obs::PhaseSpan phase_span;
    phase_span.begin("cpscf/sternheimer");
    const double omega = options.frequency;
    // The Sternheimer contraction H^(1)_ai = C_virt^T (H^(1) C_occ): with
    // ABFT on, both products carry Huang-Abraham checksums, so a single
    // corrupted element is corrected in place (on the rank it struck)
    // before it can steer the whole CPSCF trajectory.
    const Matrix h1_vo =
        options.abft
            ? linalg::abft_matmul_tn(
                  c_virt,
                  linalg::abft_matmul(h1, c_occ, "cpscf/sternheimer_matmul"),
                  "cpscf/sternheimer_matmul")
            : linalg::matmul_tn(c_virt, linalg::matmul(h1, c_occ));
    Matrix x(n_virt, n_occ), y(n_virt, n_occ);
    for (std::size_t a = 0; a < n_virt; ++a)
      for (std::size_t i = 0; i < n_occ; ++i) {
        const double gap = ground.eigenvalues[i] - ground.eigenvalues[n_occ + a];
        AEQP_CHECK(std::fabs(gap + omega) > 1e-10 && std::fabs(gap - omega) > 1e-10,
                   "CPSCF: frequency hits an excitation resonance");
        x(a, i) = h1_vo(a, i) / (gap + omega);
        y(a, i) = h1_vo(a, i) / (gap - omega);
      }
    // C^(1)+ = C_virt X, C^(1)- = C_virt Y (equal in the static limit).
    // These products feed the DM build directly -- the paper's DM phase --
    // so they are the DM-build matmuls the ABFT layer protects.
    const Matrix c1x = options.abft
                           ? linalg::abft_matmul(c_virt, x, "cpscf/dm_matmul")
                           : linalg::matmul(c_virt, x);
    const Matrix c1y = options.abft
                           ? linalg::abft_matmul(c_virt, y, "cpscf/dm_matmul")
                           : linalg::matmul(c_virt, y);
    phase_span.end();
    t[Phase::Sternheimer] += timer.seconds();

    // --- DM phase: P^(1) = sum_i f_i (C^(1)+ C^T + C C^(1)-T), the
    //     omega-generalization of Eq. (7). ---
    timer.reset();
    phase_span.begin("cpscf/dm");
    Matrix p1_new(nb, nb);
    // Row-parallel over mu; the per-element accumulation over occupied
    // orbitals keeps its serial (ascending i) order, so P^(1) is
    // bit-identical for every thread count.
    exec::parallel_for_ranges(0, nb, 8, [&](std::size_t mb, std::size_t me) {
      for (std::size_t mu = mb; mu < me; ++mu) {
        double* prow = p1_new.data() + mu * nb;
        for (std::size_t i = 0; i < n_occ; ++i) {
          const double f = ground.occupations[i];
          const double c1xmi = c1x(mu, i), cmi = c_occ(mu, i);
          for (std::size_t nu = 0; nu < nb; ++nu)
            prow[nu] += f * (c1xmi * c_occ(nu, i) + cmi * c1y(nu, i));
        }
      }
    });
    // Pulay mixing: P^(1) is the fixed point of an affine map, so the next
    // input extrapolates over the (P_in, R = P_out - P_in) history. Every
    // rank holds the same replicated P^(1) and history, so every rank
    // extrapolates identically without a collective.
    if (have_response) {
      Matrix r = std::move(p1_new);
      r.axpy(-1.0, p1);
      pulay.push(p1, std::move(r));
      p1_new = pulay_next(pulay, options.mixing);
      pulay_mem.add(static_cast<std::int64_t>(pulay.bytes()) - pulay_mem.held());
    }
    const double delta = p1_new.max_abs_diff(p1);
    p1 = std::move(p1_new);
    last_delta = delta;
    // Phase-boundary invariants: P^(1) finite, and tr(P^(1) S) = 0 -- the
    // perturbation conserves the electron count, so the response DM is
    // traceless against the overlap metric.
    resilience::guard_finite(p1, "cpscf/p1");
    resilience::guard_trace_identity(p1, ground.overlap, 0.0, "cpscf/p1");
    phase_span.end();
    t[Phase::DM] += timer.seconds();

    res.iterations = iter;
    // Convergence telemetry counts once per solve: on the caller's thread
    // or on rank 0 of a simulated world, never once per rank.
    if (obs::enabled() && thread_rank() <= 0) {
      static obs::Counter& iterations = obs::counter("cpscf/iterations");
      iterations.increment();
      obs::series_append("cpscf/max_dp1", delta);
    }
    if (kernels.observe) {
      const CpscfIterationState state{direction, iter, delta,
                                      options.mixing, &p1, &pulay};
      if (kernels.observe(state) == CpscfAction::Abort) {
        res.aborted = true;
        break;
      }
    }

    // --- Sumup phase: n^(1)(r) on the grid (Eq. 8). ---
    timer.reset();
    {
      AEQP_TRACE_SCOPE("cpscf/sumup");
      const std::span<const double> n1 = sumup();
      // Second rung of the SDC ladder: the batch is a pure function of
      // P^(1), so a corrupted accumulation (transient by nature -- the
      // injector models an upset, not a broken unit) is repaired by one
      // local recompute, far cheaper than a checkpoint rollback and free of
      // collective traffic. A second violation means the corruption is not
      // transient here; escalate.
      try {
        resilience::guard_finite(n1, "cpscf/n1");
      } catch (const InvariantViolation&) {
        obs::counter("sdc/local_recomputes").increment();
        obs::trace_instant("sdc/recompute");
        resilience::guard_finite(sumup(), "cpscf/n1");
      }
    }
    t[Phase::Sumup] += timer.seconds();

    // --- Rho phase: v^(1)_H by multipole Poisson solve (Eq. 9) plus the
    //     XC kernel term f_xc n^(1) (Eq. 12). ---
    timer.reset();
    {
      AEQP_TRACE_SCOPE("cpscf/rho");
      resilience::guard_finite(kernels.rho(p1), "cpscf/v1");
    }
    t[Phase::Rho] += timer.seconds();

    have_response = true;
    if (options.verbose)
      AEQP_LOG_INFO << "DFPT dir " << direction << " iter " << iter
                    << " max|dP1|=" << delta;
    if (delta < options.tolerance && iter > 1) {
      res.converged = true;
      break;
    }
  }
  return last_delta;
}

void check_convergence(const DfptDirectionResult& res, double last_delta,
                       const DfptOptions& options, int direction,
                       std::string_view context) {
  if (res.converged || res.aborted || !options.require_convergence) return;
  std::ostringstream msg;
  msg << "CPSCF failed to converge for direction " << direction << ": "
      << res.iterations << " iterations, last max|dP1|=" << last_delta
      << ", tolerance=" << options.tolerance << ", mixing=" << options.mixing
      << context;
  AEQP_THROW(msg.str());
}

}  // namespace aeqp::core::detail
