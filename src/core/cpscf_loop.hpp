#pragma once

/// \file cpscf_loop.hpp
/// The one CPSCF iteration (internal; not exported from aeqp.hpp).
///
/// Every solver runs the same cycle -- H -> Sternheimer -> DM -> observe ->
/// Sumup -> Rho, repeated until max |Delta P^(1)| drops below the
/// tolerance. Only the grid phases differ between platforms, so they are
/// the pluggable part (CpscfKernels); run_cpscf owns everything else:
/// warm start, H^(1) assembly and its Hermiticity guard, the omega-general
/// Sternheimer step with ABFT, the thread-parallel DM build with Pulay
/// mixing (scf::PulayHistory, shared with the SCF DIIS) and P^(1) guards,
/// the Sumup finiteness guard with its one local
/// recompute, the v^(1) guard, spans, phase timers and the convergence
/// test. Providers:
///  - host    (DfptSolver): BatchIntegrator density / potential_matrix and
///            the full-grid Rho consumer;
///  - device  (DfptSolver with DfptOptions::device): the SIMT sumup_kernel /
///            h_kernel, host Rho;
///  - rank-local (solve_direction_parallel): this rank's points, the packed
///            H and Rho AllReduces, and the observer on rank 0 with its
///            decision broadcast, then the rank hook.

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/dfpt.hpp"
#include "linalg/matrix.hpp"
#include "scf/scf_solver.hpp"

namespace aeqp::core::detail {

/// One-time state derived from the ground state, shared by every
/// direction and provider.
struct CpscfSetup {
  linalg::Matrix c_occ;               ///< occupied orbital coefficients
  linalg::Matrix c_virt;              ///< virtual orbital coefficients
  std::vector<double> fxc;            ///< LDA kernel f_xc(n_0(r)) per grid point
  std::vector<double> screen_radii;   ///< per-atom Rho screening radii
};

/// Validate `ground` (converged, shared machinery, at least one occupied
/// and one virtual orbital, finite HOMO-LUMO gap) and build the setup.
/// Throws aeqp::Error on an unusable ground state.
[[nodiscard]] CpscfSetup make_cpscf_setup(const scf::ScfResult& ground,
                                          const DfptOptions& options);

/// The grid phases of one provider. Sumup and Rho write the provider's own
/// n^(1) / v^(1) samples and return a view of them.
struct CpscfKernels {
  /// n^(1) from P^(1) on the provider's points.
  std::function<std::span<double>(const linalg::Matrix& p1)> sumup;
  /// v^(1) = v_H[n^(1)] + f_xc n^(1) from P^(1) and the last Sumup.
  std::function<std::span<double>(const linalg::Matrix& p1)> rho;
  /// V[v^(1)] integrals of the last Rho, fully reduced (nb x nb).
  std::function<linalg::Matrix()> potential_matrix;
  /// Per-iteration hook after the DM update; empty = none.
  std::function<CpscfAction(const CpscfIterationState&)> observe;
};

/// Run the CPSCF cycle for `direction`. Fills res.p1, iterations,
/// converged, aborted and phase_seconds; returns the last iteration's
/// max |Delta P^(1)|.
double run_cpscf(const scf::ScfResult& ground, const CpscfSetup& setup,
                 const DfptOptions& options, int direction,
                 const CpscfKernels& kernels, DfptDirectionResult& res);

/// With options.require_convergence, throw a detailed aeqp::Error
/// (iterations, last residual, mixing; `context` appended) when the cycle
/// neither converged nor was aborted.
void check_convergence(const DfptDirectionResult& res, double last_delta,
                       const DfptOptions& options, int direction,
                       std::string_view context = {});

}  // namespace aeqp::core::detail
