// Tests for the Rho-phase batching stack: the raw real_ylm_all overload,
// SplineBundle::eval_all, ipow, BasisSet::evaluate_batch + the symmetric
// dense-tile contract_density and BatchIntegrator kernels, cutoff
// screening, the projection's cached Becke weights,
// HartreeSolver::potential_batch, and the tune/ persistence layer.
// The headline claims are all bit-for-bit: the batched kernels must
// reproduce the per-point call chain exactly, and screening at tau = 0 must
// change nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <thread>
#include <vector>

#include "basis/basis_set.hpp"
#include "basis/spherical_harmonics.hpp"
#include "basis/spline.hpp"
#include "common/ipow.hpp"
#include "common/rng.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "exec/thread_pool.hpp"
#include "grid/angular_grid.hpp"
#include "grid/molecular_grid.hpp"
#include "grid/partition.hpp"
#include "obs/memaudit.hpp"
#include "poisson/multipole.hpp"
#include "scf/integrator.hpp"
#include "scf/scf_solver.hpp"
#include "tune/tune.hpp"

namespace {

using namespace aeqp;

TEST(RhoBatch, RawYlmMatchesVectorOverloadAndPerHarmonic) {
  Rng rng(1234);
  const int l_max = 8;
  std::vector<double> ref;
  std::vector<double> raw(basis::lm_count(l_max), -1.0);
  for (int trial = 0; trial < 50; ++trial) {
    Vec3 d{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (d.norm() < 1e-8) d = {0, 0, 1};
    const Vec3 u = d / d.norm();
    basis::real_ylm_all(l_max, u, ref);
    basis::real_ylm_all(l_max, u, raw.data());
    ASSERT_EQ(ref.size(), raw.size());
    for (int l = 0; l <= l_max; ++l)
      for (int m = -l; m <= l; ++m) {
        const std::size_t i = basis::lm_index(l, m);
        EXPECT_EQ(raw[i], ref[i]) << "l=" << l << " m=" << m;
        EXPECT_EQ(raw[i], basis::real_ylm(l, m, u)) << "l=" << l << " m=" << m;
      }
  }
}

TEST(RhoBatch, SplineBundleBitIdenticalToCubicSpline) {
  const std::size_t nk = 40;
  std::vector<double> x(nk);
  for (std::size_t i = 0; i < nk; ++i) x[i] = 0.05 * static_cast<double>(i * i);
  std::vector<basis::CubicSpline> splines;
  for (int c = 0; c < 5; ++c) {
    std::vector<double> y(nk);
    for (std::size_t i = 0; i < nk; ++i)
      y[i] = std::sin(0.7 * (c + 1) * x[i]) + 0.1 * c * x[i];
    splines.emplace_back(x, y);
  }
  const basis::SplineBundle bundle = basis::SplineBundle::pack(splines);
  ASSERT_EQ(bundle.channels(), splines.size());

  std::vector<double> out(splines.size());
  // Interior points, the knots themselves, and both extrapolation sides.
  std::vector<double> probes = {-1.0, -0.001, 0.0,    0.013, 1.7,
                                x.back(),     x.back() + 0.5, x.back() + 10.0};
  Rng rng(99);
  for (int t = 0; t < 200; ++t) probes.push_back(rng.uniform(-0.5, x.back() + 0.5));
  for (const double p : probes) {
    bundle.eval_all(p, out.data());
    for (std::size_t c = 0; c < splines.size(); ++c)
      EXPECT_EQ(out[c], splines[c].value(p)) << "x=" << p << " ch=" << c;
  }
}

TEST(RhoBatch, IpowIsAFixedMultiplyChain) {
  EXPECT_EQ(ipow(3.7, 0), 1.0);
  EXPECT_EQ(ipow(3.7, 1), 3.7);
  EXPECT_EQ(ipow(3.7, 3), 3.7 * 3.7 * 3.7);
  EXPECT_EQ(ipow(0.2, 5), 0.2 * 0.2 * 0.2 * 0.2 * 0.2);
  EXPECT_EQ(ipow(2.5, -2), 1.0 / (2.5 * 2.5));
  EXPECT_EQ(ipow(0.0, 3), 0.0);
  EXPECT_EQ(ipow(-2.0, 3), -8.0);
}

struct BasisFixture {
  std::shared_ptr<const basis::BasisSet> basis;
  std::vector<Vec3> pts;
};

BasisFixture water_points() {
  BasisFixture f;
  const grid::Structure s = core::water();
  f.basis = std::make_shared<const basis::BasisSet>(s, basis::BasisTier::Light);
  grid::GridSpec spec;
  spec.radial_points = 20;
  spec.angular_degree = 7;
  const auto grid = grid::MolecularGrid::build(s, spec);
  for (std::size_t i = 0; i < grid.size(); ++i) f.pts.push_back(grid.point(i).pos);
  // A few points far outside every cutoff: must yield empty rows.
  f.pts.push_back({50.0, 0.0, 0.0});
  f.pts.push_back({0.0, -80.0, 3.0});
  return f;
}

TEST(RhoBatch, EvaluateBatchMatchesPerPointEntryForEntry) {
  const BasisFixture f = water_points();
  basis::BatchEval batch;
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), {}, batch);
  ASSERT_EQ(batch.points(), f.pts.size());

  basis::PointEval point;
  for (std::size_t k = 0; k < f.pts.size(); ++k) {
    f.basis->evaluate(f.pts[k], false, point);
    const std::size_t b0 = batch.offsets[k], b1 = batch.offsets[k + 1];
    ASSERT_EQ(b1 - b0, point.indices.size()) << "point " << k;
    for (std::size_t e = 0; e < point.indices.size(); ++e) {
      EXPECT_EQ(batch.indices[b0 + e], point.indices[e]) << "point " << k;
      EXPECT_EQ(batch.values[b0 + e], point.values[e]) << "point " << k;
    }
  }
  // The two far points contribute nothing.
  const std::size_t n = f.pts.size();
  EXPECT_EQ(batch.offsets[n], batch.offsets[n - 2]);
}

TEST(RhoBatch, ScreeningAtTauZeroIsBitExact) {
  const BasisFixture f = water_points();
  const std::vector<double> radii = f.basis->screening_radii(0.0);
  ASSERT_EQ(radii.size(), f.basis->structure().size());

  basis::BatchEval off, on;
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), {}, off);
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), radii, on);
  EXPECT_EQ(on.offsets, off.offsets);
  EXPECT_EQ(on.indices, off.indices);
  EXPECT_EQ(on.values, off.values);
}

TEST(RhoBatch, ScreeningRadiiShrinkWithTau) {
  const BasisFixture f = water_points();
  const std::vector<double> r0 = f.basis->screening_radii(0.0);
  const std::vector<double> r1 = f.basis->screening_radii(1e-12);
  const std::vector<double> r2 = f.basis->screening_radii(1e-4);
  for (std::size_t a = 0; a < r0.size(); ++a) {
    EXPECT_GT(r2[a], 0.0);
    EXPECT_LE(r1[a], r0[a]);
    EXPECT_LE(r2[a], r1[a]);
  }
}

/// The per-point oracle of contract_density: the ascending symmetric loop
/// over one point's entries, t = P'_aa chi_a; t += P'_ab chi_b (b > a);
/// n += chi_a t with P'_ab = P_ab + P_ba. It is written in the kernel's
/// expression shape, so FMA contraction fuses both the same way.
double density_symmetric_loop(const linalg::Matrix& p, const std::uint32_t* idx,
                              const double* val, std::size_t ne) {
  double n = 0.0;
  for (std::size_t a = 0; a < ne; ++a) {
    const double va = val[a];
    double t = p(idx[a], idx[a]) * va;
    for (std::size_t b = a + 1; b < ne; ++b) {
      const double pab = p(idx[a], idx[b]) + p(idx[b], idx[a]);
      t += pab * val[b];
    }
    n += va * t;
  }
  return n;
}

/// The plain double loop sum_ab P_ab chi_a chi_b in entry order (the
/// association of the earlier ring-dense kernel), and its absolute-value
/// sum sum_ab |P_ab chi_a chi_b| -- the scale of its rounding error.
std::pair<double, double> density_double_loop(const linalg::Matrix& p,
                                              const std::uint32_t* idx,
                                              const double* val,
                                              std::size_t ne) {
  double n = 0.0, scale = 0.0;
  for (std::size_t a = 0; a < ne; ++a)
    for (std::size_t b = 0; b < ne; ++b) {
      const double term = p(idx[a], idx[b]) * val[a] * val[b];
      n += term;
      scale += std::fabs(term);
    }
  return {n, scale};
}

TEST(RhoBatch, ContractDensityMatchesSymmetricLoop) {
  const BasisFixture f = water_points();
  const std::size_t nb = f.basis->size();
  Rng rng(7);
  linalg::Matrix p(nb, nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j <= i; ++j) p(i, j) = p(j, i) = rng.uniform(-1, 1);

  basis::BatchEval ev;
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), {}, ev);
  std::vector<double> n(f.pts.size());
  basis::contract_density(p, ev, n.data());

  basis::PointEval pe;
  for (std::size_t k = 0; k < f.pts.size(); ++k) {
    f.basis->evaluate(f.pts[k], false, pe);
    const std::size_t ne = pe.indices.size();
    EXPECT_EQ(n[k], density_symmetric_loop(p, pe.indices.data(),
                                           pe.values.data(), ne))
        << "point " << k;
    const auto [plain, scale] =
        density_double_loop(p, pe.indices.data(), pe.values.data(), ne);
    EXPECT_LE(std::fabs(n[k] - plain), 1e-14 * scale) << "point " << k;
  }
}

TEST(RhoBatch, ContractDensityHeterogeneousBlocksMatchSymmetricLoop) {
  // H(C2H4)2H: 14 atoms, so a block's basis union is far larger than any
  // one point's entry list, and neighbouring points see different atoms.
  const grid::Structure s = core::polyethylene_chain(2);
  const basis::BasisSet basis(s, basis::BasisTier::Light);
  const double rc = basis.r_cut();
  const std::size_t nb = basis.size();

  // Point pool: projection-style rings around several atoms with radii on
  // both sides of r_cut; axis-aligned points (Y_lm == 0 skips thin their
  // entry lists); an atom center (r = 0); and far points with no entries.
  std::vector<Vec3> pts;
  const grid::AngularGrid ang = grid::AngularGrid::for_degree(10);
  for (const std::size_t a : {std::size_t{0}, std::size_t{3}, s.size() - 1})
    for (const double r : {0.4, 2.5, rc - 0.05, rc + 0.05, 9.5})
      for (std::size_t k = 0; k < ang.size(); ++k)
        pts.push_back(s.atom(a).pos + r * ang.direction(k));
  for (const double r : {0.0, 0.7, 1.9})
    for (const Vec3 u : {Vec3{1, 0, 0}, Vec3{0, -1, 0}, Vec3{0, 0, 1}})
      pts.push_back(s.atom(1).pos + r * u);
  pts.push_back({60.0, 0.0, 0.0});
  pts.push_back({0.0, -80.0, 3.0});
  // Entries a point would carry without the v == 0 skip: every function of
  // every atom within r_cut.
  std::vector<std::size_t> full_rows(pts.size(), 0);
  for (std::size_t k = 0; k < pts.size(); ++k)
    for (std::size_t a = 0; a < s.size(); ++a)
      if ((pts[k] - s.atom(a).pos).norm2() < rc * rc) {
        const auto [first, last] = basis.atom_range(a);
        full_rows[k] += last - first;
      }

  // A non-symmetric P with entries spread over six decades: any change in
  // the (a, b) summation order, or a fold that assumes P symmetric, shows up
  // in the last bits.
  Rng rng(11);
  linalg::Matrix p(nb, nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j < nb; ++j)
      p(i, j) = rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-3, 3));

  basis::BatchEval ev;
  std::size_t empty_points = 0, thinned_points = 0;
  for (const double tau : {0.0, 1e-12}) {
    const std::vector<double> screen = basis.screening_radii(tau);
    for (const std::size_t n : {1, 7, 8, 66, 67, 300}) {
      std::vector<double> out;
      for (std::size_t b = 0; b < pts.size(); b += n) {
        const std::size_t m = std::min(n, pts.size() - b);
        basis.evaluate_batch(pts.data() + b, m, screen, ev);
        out.assign(m, -1.0);
        basis::contract_density(p, ev, out.data());
        for (std::size_t k = 0; k < m; ++k) {
          const std::uint32_t* idx = ev.indices.data() + ev.offsets[k];
          const double* val = ev.values.data() + ev.offsets[k];
          const std::size_t ne = ev.offsets[k + 1] - ev.offsets[k];
          EXPECT_EQ(out[k], density_symmetric_loop(p, idx, val, ne))
              << "tau=" << tau << " n=" << n << " point " << b + k;
          const auto [plain, scale] = density_double_loop(p, idx, val, ne);
          EXPECT_LE(std::fabs(out[k] - plain), 1e-14 * scale)
              << "tau=" << tau << " n=" << n << " point " << b + k;
          EXPECT_FALSE(std::signbit(out[k]) && out[k] == 0.0)
              << "-0 at point " << b + k;
          empty_points += ne == 0;
          thinned_points += tau == 0.0 && ne > 0 && ne < full_rows[b + k];
        }
      }
    }
  }
  // The pool really exercises empty rows and partial (skipped-Y_lm) rows.
  EXPECT_GT(empty_points, 0u);
  EXPECT_GT(thinned_points, 0u);
}

// --- BatchIntegrator dense-tile kernels -------------------------------------

/// H(C2H4)2H on a small grid: its tiles see different atoms, so their
/// unions differ from tile to tile and from any one point's entries.
struct ChainIntegrator {
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  std::unique_ptr<scf::BatchIntegrator> integ;
};

const ChainIntegrator& chain_integrator() {
  static const ChainIntegrator f = [] {
    ChainIntegrator c;
    const grid::Structure s = core::polyethylene_chain(2);
    c.basis = std::make_shared<const basis::BasisSet>(s, basis::BasisTier::Light);
    grid::GridSpec spec;
    spec.radial_points = 20;
    spec.angular_degree = 7;
    c.grid = std::make_shared<const grid::MolecularGrid>(
        grid::MolecularGrid::build(s, spec));
    c.integ = std::make_unique<scf::BatchIntegrator>(c.basis, c.grid);
    return c;
  }();
  return f;
}

/// A potential with both signs, several decades and exact zeros.
std::vector<double> test_potential(const grid::MolecularGrid& grid) {
  std::vector<double> v(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const Vec3 r = grid.point(p).pos;
    v[p] = p % 11 == 0 ? 0.0
                       : std::sin(1.3 * r[0]) * std::cos(0.7 * r[1]) +
                             0.1 * r[2] * std::exp(-0.05 * r.norm2());
  }
  return v;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::span<const double> all(const linalg::Matrix& m) {
  return {m.data(), m.rows() * m.cols()};
}

TEST(DenseTile, IntegratorDensityMatchesSymmetricLoop) {
  const ChainIntegrator& c = chain_integrator();
  const std::size_t nb = c.basis->size();
  Rng rng(23);
  linalg::Matrix p(nb, nb);  // non-symmetric, six decades
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j < nb; ++j)
      p(i, j) = rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-3, 3));
  const std::vector<double> n = c.integ->density(p);
  ASSERT_EQ(n.size(), c.grid->size());

  basis::PointEval pe;
  std::size_t empty_points = 0, odd_tiles = 0;
  std::vector<std::uint32_t> tile_union;
  for (std::size_t k = 0; k < c.grid->size(); ++k) {
    c.basis->evaluate(c.grid->point(k).pos, /*with_laplacian=*/true, pe);
    const std::size_t ne = pe.indices.size();
    EXPECT_EQ(n[k], density_symmetric_loop(p, pe.indices.data(),
                                           pe.values.data(), ne))
        << "point " << k;
    EXPECT_FALSE(std::signbit(n[k]) && n[k] == 0.0) << "-0 at point " << k;
    empty_points += ne == 0;
    // Union of the integrator's 128-point tile this point belongs to.
    tile_union.insert(tile_union.end(), pe.indices.begin(), pe.indices.end());
    if ((k + 1) % 128 == 0 || k + 1 == c.grid->size()) {
      std::sort(tile_union.begin(), tile_union.end());
      const auto last = std::unique(tile_union.begin(), tile_union.end());
      odd_tiles += (last - tile_union.begin()) % 2;
      tile_union.clear();
    }
  }
  // The grid really exercises empty points and odd union sizes.
  EXPECT_GT(empty_points, 0u);
  EXPECT_GT(odd_tiles, 0u);
}

/// Scalar per-point reference of the matrix builders: the sum over grid
/// points in order of (chi_a w f) y_b, y = chi or its Laplacian (then
/// symmetrized), with no tiles.
template <typename Factor>
linalg::Matrix per_point_matrix(const ChainIntegrator& c, Factor&& factor,
                                bool laplacian) {
  const std::size_t nb = c.basis->size();
  linalg::Matrix m(nb, nb);
  basis::PointEval pe;
  for (std::size_t p = 0; p < c.grid->size(); ++p) {
    c.basis->evaluate(c.grid->point(p).pos, true, pe);
    const double w = c.grid->point(p).weight * factor(p);
    for (std::size_t i = 0; i < pe.indices.size(); ++i) {
      const double xi = pe.values[i] * w;
      for (std::size_t j = 0; j < pe.indices.size(); ++j)
        m(pe.indices[i], pe.indices[j]) +=
            xi * (laplacian ? pe.laplacians[j] : pe.values[j]);
    }
  }
  if (laplacian) m.symmetrize();
  return m;
}

/// Every entry within 1e-14 of max |reference|: the tile kernels regroup
/// the point sum (tile partials, then the ordered flush) and mirror the
/// upper triangle, which moves entries by a few ulps of the largest one.
void expect_matches_reference(const linalg::Matrix& m, const linalg::Matrix& r,
                              const char* what) {
  ASSERT_EQ(m.rows(), r.rows());
  double max_ref = 0.0;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j) {
      max_ref = std::max(max_ref, std::fabs(r(i, j)));
      nonzero += r(i, j) != 0.0;
    }
  EXPECT_GT(nonzero, m.rows()) << what;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_LE(std::fabs(m(i, j) - r(i, j)), 1e-14 * max_ref)
          << what << " (" << i << ", " << j << ")";
}

TEST(DenseTile, IntegratorMatricesMatchPerPointReference) {
  const ChainIntegrator& c = chain_integrator();
  const std::vector<double> v = test_potential(*c.grid);
  expect_matches_reference(
      c.integ->potential_matrix(v),
      per_point_matrix(c, [&](std::size_t p) { return v[p]; }, false),
      "potential_matrix");
  expect_matches_reference(
      c.integ->overlap(),
      per_point_matrix(c, [](std::size_t) { return 1.0; }, false), "overlap");
  expect_matches_reference(
      c.integ->kinetic(),
      per_point_matrix(c, [](std::size_t) { return -0.5; }, true), "kinetic");
}

TEST(DenseTile, PotentialMatrixIsExactlySymmetric) {
  const ChainIntegrator& c = chain_integrator();
  const linalg::Matrix m = c.integ->potential_matrix(test_potential(*c.grid));
  std::size_t off_diagonal = 0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = i + 1; j < m.cols(); ++j) {
      EXPECT_EQ(m(i, j), m(j, i)) << "(" << i << ", " << j << ")";
      off_diagonal += m(i, j) != 0.0;
    }
  EXPECT_GT(off_diagonal, 0u);
}

TEST(DenseTile, IntegratorKernelsBitIdenticalAcrossThreadCounts) {
  const ChainIntegrator& c = chain_integrator();
  const std::size_t nb = c.basis->size();
  Rng rng(5);
  linalg::Matrix p(nb, nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j <= i; ++j) p(i, j) = p(j, i) = rng.uniform(-1, 1);
  const std::vector<double> v = test_potential(*c.grid);

  struct Out {
    std::vector<double> n;
    linalg::Matrix h, s, t;
  };
  const auto run = [&](std::size_t threads) {
    exec::ThreadPool::set_global_threads(threads);
    Out o{c.integ->density(p), c.integ->potential_matrix(v),
          c.integ->overlap(), c.integ->kinetic()};
    exec::ThreadPool::set_global_threads(0);
    return o;
  };
  const Out one = run(1), four = run(4);
  EXPECT_TRUE(bitwise_equal(one.n, four.n));
  EXPECT_TRUE(bitwise_equal(all(one.h), all(four.h)));
  EXPECT_TRUE(bitwise_equal(all(one.s), all(four.s)));
  EXPECT_TRUE(bitwise_equal(all(one.t), all(four.t)));
}

// --- Cached Becke weights of the projection ---------------------------------

poisson::PoissonSpec cache_spec() {
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 40;
  return spec;
}

/// Smooth model density: a Gaussian per atom, evaluated ring by ring.
poisson::BatchDensityFn gaussian_density(const grid::Structure& s) {
  return [s](const Vec3* pts, std::size_t n, double* out) {
    for (std::size_t k = 0; k < n; ++k) {
      double v = 0.0;
      for (std::size_t a = 0; a < s.size(); ++a)
        v += std::exp(-0.9 * (pts[k] - s.atom(a).pos).norm2());
      out[k] = v;
    }
  };
}

/// The projection with BeckePartition::weight called per point: the
/// pre-cache arithmetic, rebuilt from public pieces.
std::vector<std::vector<std::vector<double>>> reference_projection(
    const grid::Structure& s, const poisson::HartreeSolver& solver,
    const poisson::BatchDensityFn& density) {
  const int l_max = solver.spec().l_max;
  const std::size_t nlm = basis::lm_count(l_max);
  const std::size_t nr = solver.mesh().size();
  const grid::AngularGrid ang =
      grid::AngularGrid::for_degree(static_cast<std::size_t>(2 * l_max + 2));
  const grid::BeckePartition part(s);
  std::vector<std::vector<std::vector<double>>> samples(
      s.size(), std::vector<std::vector<double>>(nlm, std::vector<double>(nr, 0.0)));
  std::vector<double> ylm;
  for (std::size_t a = 0; a < s.size(); ++a)
    for (std::size_t i = 0; i < nr; ++i) {
      std::vector<Vec3> ring(ang.size());
      std::vector<double> dens(ang.size());
      for (std::size_t k = 0; k < ang.size(); ++k)
        ring[k] = s.atom(a).pos + solver.mesh().r(i) * ang.direction(k);
      density(ring.data(), ring.size(), dens.data());
      for (std::size_t k = 0; k < ang.size(); ++k) {
        const double val = dens[k] * part.weight(a, ring[k]) * ang.weight(k);
        if (val == 0.0) continue;
        basis::real_ylm_all(l_max, ang.direction(k), ylm);
        for (std::size_t lm = 0; lm < nlm; ++lm) samples[a][lm][i] += val * ylm[lm];
      }
    }
  return samples;
}

TEST(RhoBatch, BeckeWeightCacheColdWarmAndPerPointAgree) {
  const grid::Structure s = core::polyethylene_chain(1);
  const poisson::HartreeSolver solver(s, cache_spec());
  const auto density = gaussian_density(s);
  const auto cold = solver.project(density);  // builds the cache
  const auto warm = solver.project(density);  // reads it
  const auto ref = reference_projection(s, solver, density);
  EXPECT_EQ(cold.samples, ref);
  EXPECT_EQ(warm.samples, ref);
}

TEST(RhoBatch, BeckeWeightCacheProjectionBitIdenticalAcrossThreadCounts) {
  const grid::Structure s = core::water();
  const auto density = gaussian_density(s);
  exec::ThreadPool::set_global_threads(1);
  const poisson::HartreeSolver one(s, cache_spec());
  const auto r1 = one.project(density);
  exec::ThreadPool::set_global_threads(4);
  const poisson::HartreeSolver four(s, cache_spec());
  const auto r4 = four.project(density);
  const auto r1_warm_at_4 = one.project(density);  // cache built at 1 thread
  exec::ThreadPool::set_global_threads(0);
  EXPECT_EQ(r1.samples, r4.samples);
  EXPECT_EQ(r1_warm_at_4.samples, r4.samples);
}

TEST(RhoBatch, BeckeWeightCacheConcurrentFirstProjectIsRaceFree) {
  const grid::Structure s = core::water();
  const auto density = gaussian_density(s);
  const poisson::HartreeSolver reference_solver(s, cache_spec());
  const auto expected = reference_solver.project(density);

  // Four threads race into project() on a fresh solver: one builds the
  // cache under call_once, the others wait and then read it.
  const poisson::HartreeSolver solver(s, cache_spec());
  std::vector<poisson::MultipoleDensity> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] { got[t] = solver.project(density); });
  for (auto& th : threads) th.join();
  for (const auto& g : got) EXPECT_EQ(g.samples, expected.samples);
}

TEST(RhoBatch, BeckeWeightCacheIsAuditedAndLazy) {
  const bool audit_was_on = obs::memaudit_enabled();
  obs::set_memaudit(true);
  const obs::MemGauge& gauge = obs::mem_gauge("poisson/becke_weights");
  const std::int64_t base = gauge.current();
  const grid::Structure s = core::water();
  {
    const poisson::PoissonSpec spec;  // library default: 96 shells, l_max 4
    const poisson::HartreeSolver solver(s, spec);
    EXPECT_EQ(gauge.current(), base);  // nothing built by the constructor
    (void)solver.project(gaussian_density(s));
    // N x 96 shells x 66 angular points doubles: 0.15 MB for water.
    const auto bytes =
        static_cast<std::int64_t>(s.size() * 96 * 66 * sizeof(double));
    EXPECT_EQ(gauge.current(), base + bytes);
    (void)solver.project(gaussian_density(s));
    EXPECT_EQ(gauge.current(), base + bytes);  // built once
  }
  EXPECT_EQ(gauge.current(), base);
  obs::set_memaudit(audit_was_on);
}

TEST(RhoBatch, PotentialBatchBitIdenticalToScalar) {
  const grid::Structure s = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 60;
  const poisson::HartreeSolver hartree(s, spec);
  // A smooth two-center model density; no SCF needed for a kernel test.
  const auto v = hartree.solve_density(poisson::DensityFn([&s](const Vec3& p) {
    double n = 0.0;
    for (std::size_t a = 0; a < s.size(); ++a)
      n += std::exp(-1.3 * (p - s.atom(a).pos).norm2());
    return n;
  }));

  // Probe blocks straddling near-field, far-field, and mixed geometry.
  std::vector<Vec3> pts;
  Rng rng(42);
  for (int t = 0; t < 300; ++t)
    pts.push_back({rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)});
  for (int t = 0; t < 50; ++t)  // tight near-field cluster
    pts.push_back(s.atom(0).pos + Vec3{rng.uniform(-0.3, 0.3),
                                       rng.uniform(-0.3, 0.3),
                                       rng.uniform(-0.3, 0.3)});

  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    std::vector<double> out(pts.size());
    for (std::size_t b = 0; b < pts.size(); b += block) {
      const std::size_t e = std::min(pts.size(), b + block);
      hartree.potential_batch(v, pts.data() + b, e - b, out.data() + b);
    }
    for (std::size_t k = 0; k < pts.size(); ++k)
      EXPECT_EQ(out[k], hartree.potential(v, pts[k])) << "block=" << block;
  }
}

scf::ScfResult h2_ground() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 32;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 70;
  opt.poisson.l_max = 2;
  return scf::ScfSolver(s, opt).run();
}

TEST(RhoBatch, PolarizabilityInsensitiveToScreeningThreshold) {
  const scf::ScfResult ground = h2_ground();
  ASSERT_TRUE(ground.converged);

  core::DfptOptions base;
  base.tolerance = 1e-8;
  auto exact = base;
  exact.screening_threshold = 0.0;  // tau = 0: screening is a no-op

  const auto r_tau = core::DfptSolver(ground, base).solve_direction(2);
  const auto r_exact = core::DfptSolver(ground, exact).solve_direction(2);
  ASSERT_TRUE(r_tau.converged);
  ASSERT_TRUE(r_exact.converged);
  EXPECT_NEAR(r_tau.dipole_response.z, r_exact.dipole_response.z, 1e-10);
  EXPECT_NEAR(r_tau.dipole_response.x, r_exact.dipole_response.x, 1e-10);
}

TEST(RhoBatch, RhoPhaseDeterministicAcrossThreadCounts) {
  const scf::ScfResult ground = h2_ground();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions opt;
  opt.tolerance = 1e-8;

  exec::ThreadPool::set_global_threads(1);
  const auto r1 = core::DfptSolver(ground, opt).solve_direction(2);
  exec::ThreadPool::set_global_threads(4);
  const auto r4 = core::DfptSolver(ground, opt).solve_direction(2);
  exec::ThreadPool::set_global_threads(0);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r4.converged);
  EXPECT_EQ(r1.dipole_response.x, r4.dipole_response.x);
  EXPECT_EQ(r1.dipole_response.y, r4.dipole_response.y);
  EXPECT_EQ(r1.dipole_response.z, r4.dipole_response.z);
  EXPECT_EQ(r1.iterations, r4.iterations);
}

TEST(TunePersistence, JsonRoundTrip) {
  tune::TuneConfig c;
  c.rho_block_size = 96;
  c.grid_batch_points = 192;
  c.pack_window_bytes = 12345678;
  c.poisson_l_max = 6;
  c.machine = "test-host";
  tune::TuneConfig back;
  ASSERT_TRUE(tune::parse_json(tune::to_json(c), back));
  EXPECT_EQ(back.rho_block_size, c.rho_block_size);
  EXPECT_EQ(back.grid_batch_points, c.grid_batch_points);
  EXPECT_EQ(back.pack_window_bytes, c.pack_window_bytes);
  EXPECT_EQ(back.poisson_l_max, c.poisson_l_max);
  EXPECT_EQ(back.machine, c.machine);
}

TEST(TunePersistence, VersionMismatchLeavesDefaults) {
  tune::TuneConfig c;
  c.rho_block_size = 96;
  std::string text = tune::to_json(c);
  const auto pos = text.find("\"aeqp_tune_version\"");
  ASSERT_NE(pos, std::string::npos);
  const auto colon = text.find(':', pos);
  text.replace(colon + 1, text.find_first_of(",\n", colon) - colon - 1, " 999");
  tune::TuneConfig out;
  const std::size_t before = out.rho_block_size;
  EXPECT_FALSE(tune::parse_json(text, out));
  EXPECT_EQ(out.rho_block_size, before);  // untouched on rejection
  EXPECT_FALSE(tune::parse_json("not json at all", out));
}

TEST(TunePersistence, EnvFileLoadsIntoResolvers) {
  tune::TuneConfig c;
  c.rho_block_size = 208;
  c.grid_batch_points = 176;
  c.pack_window_bytes = 4 * 1024 * 1024;
  const std::string path = "aeqp_tune_test_env.json";
  ASSERT_TRUE(tune::save_file(path, c));

  ::setenv("AEQP_TUNE_FILE", path.c_str(), 1);
  tune::reset_config_for_testing();  // force a re-read of the env
  EXPECT_EQ(tune::rho_block_size(0), 208u);
  EXPECT_EQ(tune::grid_batch_points(0), 176u);
  EXPECT_EQ(tune::pack_window_bytes(0), 4u * 1024 * 1024);
  // Explicit requests always beat the tuned value.
  EXPECT_EQ(tune::rho_block_size(17), 17u);
  EXPECT_EQ(tune::grid_batch_points(33), 33u);

  ::unsetenv("AEQP_TUNE_FILE");
  tune::reset_config_for_testing();
  std::remove(path.c_str());
  const tune::TuneConfig defaults;
  EXPECT_EQ(tune::rho_block_size(0), defaults.rho_block_size);
}

TEST(TunePersistence, MissingFileFallsBackToDefaults) {
  ::setenv("AEQP_TUNE_FILE", "/nonexistent/aeqp_tune.json", 1);
  tune::reset_config_for_testing();
  const tune::TuneConfig defaults;
  EXPECT_EQ(tune::rho_block_size(0), defaults.rho_block_size);
  ::unsetenv("AEQP_TUNE_FILE");
  tune::reset_config_for_testing();
}

}  // namespace
