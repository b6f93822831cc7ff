// Ablation: multipole expansion order of the Hartree solver (the accuracy
// knob of the Rho phase). Runs *real* DFPT on water at increasing l_max and
// shows the polarizability converging, together with the producer-side cost
// growth (spline channels ~ (l_max+1)^2, the Fig. 12(a) volume driver).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "basis/spline.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

void print_sweep() {
  Table t({"poisson l_max", "alpha_zz (bohr^3)", "DFPT seconds",
           "splines built", "spline KB"});
  double reference = 0.0;
  for (int lmax : {0, 1, 2, 4, 6}) {
    scf::ScfOptions opt;
    opt.tier = basis::BasisTier::Light;
    opt.grid.radial_points = 32;
    opt.grid.angular_degree = 9;
    opt.poisson.l_max = lmax;
    opt.poisson.radial_points = 64;
    const auto ground = scf::ScfSolver(core::water(), opt).run();
    if (!ground.converged) continue;

    basis::CubicSpline::reset_construction_counter();
    Timer timer;
    const core::DfptSolver dfpt(ground, {});
    const auto r = dfpt.solve_direction(2);
    const double seconds = timer.seconds();
    const std::size_t splines = basis::CubicSpline::constructions();
    if (lmax == 6) reference = r.dipole_response.z;

    t.add_row({std::to_string(lmax), Table::num(r.dipole_response.z, 4),
               Table::num(seconds, 2), std::to_string(splines),
               Table::num(static_cast<double>(splines) * 64 * 2 * 8 / 1024.0, 0)});
  }
  t.print("Ablation: Hartree multipole order vs DFPT polarizability (water)");
  std::printf("alpha converges by l_max ~ 4 (reference at l_max=6: %.4f); "
              "producer cost grows as (l_max+1)^2.\n",
              reference);
}

void BM_HartreeSolve(benchmark::State& state) {
  const auto mol = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = static_cast<int>(state.range(0));
  spec.radial_points = 64;
  const poisson::HartreeSolver solver(mol, spec);
  const auto density = [](const Vec3& p) { return std::exp(-p.norm2()); };
  const auto rho = solver.project(density);
  for (auto _ : state) {
    auto v = solver.solve(rho);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_HartreeSolve)->Arg(0)->Arg(2)->Arg(4)->Arg(6);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
