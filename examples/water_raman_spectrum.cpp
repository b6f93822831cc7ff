// Full ab initio Raman workflow for water -- the end-to-end pipeline the
// paper's lineage targets (ref. [37]: all-electron Raman spectra for
// biological systems):
//
//   1. finite-difference energy Hessian  -> harmonic normal modes
//   2. DFPT polarizabilities at +-dQ along each mode -> d(alpha)/dQ
//   3. Raman activity invariants 45 a'^2 + 7 gamma'^2 per mode
//
// Takes about a minute at the coarse settings used here.
//
//   ./example_water_raman_spectrum

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/polarizability_invariants.hpp"
#include "core/spectrum.hpp"
#include "core/structures.hpp"
#include "core/vibrations.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

scf::ScfOptions scf_options() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;  // polarization functions keep the
                                       // bend potential physical
  opt.grid.radial_points = 36;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  opt.density_tolerance = 1e-8;
  opt.max_iterations = 200;
  return opt;
}

/// Polarizability tensor at a displaced geometry (light basis for the
/// response; the p functions matter for alpha even when the Hessian is
/// converged with the minimal set).
std::array<double, 9> alpha_at(const grid::Structure& s) {
  scf::ScfOptions opt = scf_options();
  opt.tier = basis::BasisTier::Light;
  const auto ground = scf::ScfSolver(s, opt).run();
  if (!ground.converged) throw Error("alpha_at: SCF not converged");
  const DfptSolver dfpt(ground, {});
  const DfptResult r = dfpt.solve_all();
  std::array<double, 9> a{};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      a[static_cast<std::size_t>(3 * i + j)] = r.polarizability(i, j);
  return a;
}

grid::Structure displace_along(const grid::Structure& s,
                               const linalg::Matrix& modes, std::size_t col,
                               double dq) {
  std::vector<grid::Atom> atoms = s.atoms();
  for (std::size_t k = 0; k < 3 * atoms.size(); ++k)
    atoms[k / 3].pos[static_cast<int>(k % 3)] += dq * modes(k, col);
  return grid::Structure(atoms);
}

}  // namespace

namespace {

/// C2v water with bond length r (bohr) and HOH angle (degrees).
grid::Structure water_geometry(double r, double angle_deg) {
  grid::Structure s;
  const double half = 0.5 * angle_deg * constants::pi / 180.0;
  s.add_atom(8, {0.0, 0.0, 0.0});
  s.add_atom(1, {0.0, r * std::sin(half), r * std::cos(half)});
  s.add_atom(1, {0.0, -r * std::sin(half), r * std::cos(half)});
  return s;
}

double energy_of(double r, double angle_deg) {
  const auto res = scf::ScfSolver(water_geometry(r, angle_deg), scf_options()).run();
  if (!res.converged) throw Error("geometry scan: SCF not converged");
  return res.total_energy;
}

}  // namespace

int main() {
  // Step 0: relax the two symmetry-unique parameters on this basis's own
  // potential surface, so the Hessian is evaluated at a true minimum
  // (otherwise soft modes turn imaginary).
  std::printf("Step 0: relaxing r(OH) and the HOH angle (coordinate "
              "descent)...\n");
  double r = 1.85, angle = 104.5;
  // Robust shrinking-step descent on each parameter in turn: only ever move
  // downhill, halve the step when bracketed.
  auto relax = [&](double& x, double step, double step_min, bool is_r) {
    while (step >= step_min) {
      const double e0 = energy_of(r, angle);
      const double saved = x;
      x = saved + step;
      const double ep = energy_of(r, angle);
      x = saved - step;
      const double em = energy_of(r, angle);
      x = saved;
      if (ep < e0 - 1e-9 && ep <= em)
        x = saved + step;
      else if (em < e0 - 1e-9)
        x = saved - step;
      else
        step *= 0.5;
      (void)is_r;
    }
  };
  for (int sweep = 0; sweep < 2; ++sweep) {
    relax(r, 0.06, 0.01, true);
    relax(angle, 3.0, 0.5, false);
  }
  std::printf("  relaxed: r(OH) = %.4f bohr, angle = %.2f deg\n", r, angle);
  const grid::Structure h2o = water_geometry(r, angle);

  std::printf("Step 1: 9x9 finite-difference Hessian of H2O "
              "(~90 SCF runs)...\n");
  HessianOptions hopt;
  hopt.scf = scf_options();
  const auto hess = energy_hessian(h2o, hopt);
  const auto modes = harmonic_analysis(h2o, hess);

  // The three hardest modes are the vibrations (bend + two stretches).
  std::vector<std::size_t> order(9);
  for (std::size_t i = 0; i < 9; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::fabs(modes.frequencies_cm[a]) > std::fabs(modes.frequencies_cm[b]);
  });

  std::printf("Step 2: DFPT polarizability derivatives along each mode...\n");
  std::printf("\n  %-10s %-14s %-14s\n", "mode", "freq (cm^-1)",
              "Raman activity");
  const double dq = 0.05;
  std::vector<SpectralLine> sticks;
  for (int m = 0; m < 3; ++m) {
    const std::size_t col = order[static_cast<std::size_t>(m)];
    // Normalize the Cartesian mode vector for a well-defined step.
    double norm = 0.0;
    for (std::size_t k = 0; k < 9; ++k)
      norm += modes.cartesian_modes(k, col) * modes.cartesian_modes(k, col);
    norm = std::sqrt(norm);
    linalg::Matrix unit = modes.cartesian_modes;
    for (std::size_t k = 0; k < 9; ++k) unit(k, col) /= norm;

    const auto ap = alpha_at(displace_along(h2o, unit, col, +dq));
    const auto am = alpha_at(displace_along(h2o, unit, col, -dq));
    Tensor3 da{};
    for (std::size_t k = 0; k < 9; ++k) da[k] = (ap[k] - am[k]) / (2.0 * dq);

    std::printf("  #%-9d %-14.1f %-14.3f\n", m + 1, modes.frequencies_cm[col],
                raman_activity(da));
    if (modes.frequencies_cm[col] > 0)
      sticks.push_back({modes.frequencies_cm[col], raman_activity(da)});
  }

  // Step 3: broadened spectrum and peak list.
  if (!sticks.empty()) {
    const auto spec = lorentzian_spectrum(sticks, 500.0, 9000.0, 1701, 40.0);
    std::printf("\nBroadened Raman spectrum peaks (Lorentzian, HWHM 40 "
                "cm^-1):\n");
    for (auto i : find_peaks(spec))
      std::printf("  %7.0f cm^-1  intensity %8.2f\n", spec.frequency_at(i),
                  spec.intensity[i]);
  }
  std::printf(
      "\n(Water reference: bend ~1600 cm^-1, stretches ~3700-3900 cm^-1, with "
      "the symmetric\n stretch carrying the strongest Raman activity. The "
      "compact STO basis used here\n overbinds, stiffening all frequencies by "
      "~1.5-2x; the mode ordering, the real\n (non-imaginary) spectrum at the "
      "relaxed geometry, and the activity ranking are\n the quantities this "
      "example validates.)\n");
  return 0;
}
