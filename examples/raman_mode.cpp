// Raman activity of the H2 stretch mode.
//
// The paper's lineage is Raman simulation for biological systems (its
// ref. [37] accelerated all-electron ab initio Raman spectra); the Raman
// activity of a vibrational mode is governed by the derivative of the DFPT
// polarizability along the normal coordinate, d(alpha)/dQ. This example
// computes alpha(Q) with the DFPT solver at displaced geometries and
// differentiates numerically -- the exact workflow a Raman spectrum
// calculation repeats per mode.
//
//   ./example_raman_mode

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/polarizability_invariants.hpp"
#include "grid/structure.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

/// H2 at bond length r (bohr), centered at the origin along z.
grid::Structure h2_at(double r) {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.5 * r});
  s.add_atom(1, {0, 0, +0.5 * r});
  return s;
}

struct AlphaPair {
  double par;   // alpha_zz
  double perp;  // alpha_xx
};

AlphaPair polarizability_at(double bond) {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 80;
  const scf::ScfResult ground = scf::ScfSolver(h2_at(bond), opt).run();
  if (!ground.converged) throw Error("SCF did not converge at r=" + std::to_string(bond));
  const core::DfptSolver dfpt(ground, {});
  return {dfpt.solve_direction(2).dipole_response.z,
          dfpt.solve_direction(0).dipole_response.x};
}

}  // namespace

int main() {
  const double r0 = 1.4;    // equilibrium bond length, bohr
  const double dq = 0.02;   // displacement along the stretch coordinate

  std::printf("H2 stretch mode: alpha(Q) around r0 = %.2f bohr\n", r0);
  const AlphaPair minus = polarizability_at(r0 - dq);
  const AlphaPair zero = polarizability_at(r0);
  const AlphaPair plus = polarizability_at(r0 + dq);

  std::printf("  r = %.3f: alpha_par = %8.4f, alpha_perp = %8.4f bohr^3\n",
              r0 - dq, minus.par, minus.perp);
  std::printf("  r = %.3f: alpha_par = %8.4f, alpha_perp = %8.4f bohr^3\n", r0,
              zero.par, zero.perp);
  std::printf("  r = %.3f: alpha_par = %8.4f, alpha_perp = %8.4f bohr^3\n",
              r0 + dq, plus.par, plus.perp);

  // Central differences assembled into the tensor derivative (axial
  // symmetry: xx = yy = perp, zz = par).
  const double da_par = (plus.par - minus.par) / (2.0 * dq);
  const double da_perp = (plus.perp - minus.perp) / (2.0 * dq);
  const core::Tensor3 da = {da_perp, 0, 0, 0, da_perp, 0, 0, 0, da_par};
  const double activity = core::raman_activity(da);

  std::printf("\n  d(alpha_par)/dQ  = %8.4f bohr^2\n", da_par);
  std::printf("  d(alpha_perp)/dQ = %8.4f bohr^2\n", da_perp);
  std::printf("  Raman activity (45 a'^2 + 7 g'^2) = %.3f bohr^4\n", activity);
  std::printf("\nA stretched bond must polarize more easily: d(alpha)/dQ > 0 "
              "-> %s\n", da_par > 0.0 ? "PASS" : "FAIL");
  return da_par > 0.0 ? 0 : 1;
}
