#include "basis/dense_tile.hpp"

#include <cstring>

namespace aeqp::basis::tile {

namespace {

using Lane2 = double __attribute__((vector_size(16)));

inline Lane2 load2(const double* p) {
  Lane2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Lane2 v) { std::memcpy(p, &v, sizeof v); }

inline Lane2 splat(double s) { return Lane2{s, s}; }

}  // namespace

Scratch& thread_scratch() {
  thread_local Scratch s;
  return s;
}

void fold_upper(double* m, std::size_t n, std::size_t ld) {
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) m[a * ld + b] += m[b * ld + a];
}

void gather_folded(const double* p, std::size_t ldp, const std::uint32_t* ids,
                   std::size_t n, std::vector<double>& out) {
  out.resize(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    const double* prow = p + std::size_t{ids[a]} * ldp;
    for (std::size_t b = 0; b < n; ++b) out[a * n + b] = prow[ids[b]];
  }
  fold_upper(out.data(), n, n);
}

void symmetric_density(const double* v, std::size_t nk, const double* f,
                       std::size_t nl, std::size_t nc, double* out) {
  // Two a-rows per pass share every v_b load of the inner loop; each of the
  // kLanes points owns an accumulator lane, so the add chains of 8 points
  // run side by side. Per point and row, t runs over ascending b >= a --
  // the per-point loop's sequence of rounded operations.
  for (std::size_t kb = 0; kb < nc; kb += kLanes) {
    Lane2 n0 = splat(0.0), n1 = n0, n2 = n0, n3 = n0;
    std::size_t a = 0;
    for (; a + 1 < nl; a += 2) {
      const double* va = v + a * nk + kb;
      const double* vc = va + nk;  // row a + 1
      const double* f0 = f + a * nl;
      const double* f1 = f0 + nl;
      const Lane2 x0 = load2(va), x1 = load2(va + 2), x2 = load2(va + 4),
                  x3 = load2(va + 6);
      const Lane2 y0 = load2(vc), y1 = load2(vc + 2), y2 = load2(vc + 4),
                  y3 = load2(vc + 6);
      const Lane2 faa = splat(f0[a]), fab = splat(f0[a + 1]),
                  fbb = splat(f1[a + 1]);
      Lane2 s0 = faa * x0, s1 = faa * x1, s2 = faa * x2, s3 = faa * x3;
      s0 += fab * y0;
      s1 += fab * y1;
      s2 += fab * y2;
      s3 += fab * y3;
      Lane2 t0 = fbb * y0, t1 = fbb * y1, t2 = fbb * y2, t3 = fbb * y3;
      for (std::size_t b = a + 2; b < nl; ++b) {
        const double* vb = v + b * nk + kb;
        const Lane2 g0 = splat(f0[b]), g1 = splat(f1[b]);
        const Lane2 w0 = load2(vb), w1 = load2(vb + 2), w2 = load2(vb + 4),
                    w3 = load2(vb + 6);
        s0 += g0 * w0;
        s1 += g0 * w1;
        s2 += g0 * w2;
        s3 += g0 * w3;
        t0 += g1 * w0;
        t1 += g1 * w1;
        t2 += g1 * w2;
        t3 += g1 * w3;
      }
      n0 += x0 * s0;
      n1 += x1 * s1;
      n2 += x2 * s2;
      n3 += x3 * s3;
      n0 += y0 * t0;
      n1 += y1 * t1;
      n2 += y2 * t2;
      n3 += y3 * t3;
    }
    if (a < nl) {  // odd nl: the last row has only its diagonal term
      const double* va = v + a * nk + kb;
      const Lane2 x0 = load2(va), x1 = load2(va + 2), x2 = load2(va + 4),
                  x3 = load2(va + 6);
      const Lane2 faa = splat(f[a * nl + a]);
      const Lane2 s0 = faa * x0, s1 = faa * x1, s2 = faa * x2, s3 = faa * x3;
      n0 += x0 * s0;
      n1 += x1 * s1;
      n2 += x2 * s2;
      n3 += x3 * s3;
    }
    double lanes[kLanes];
    store2(lanes, n0);
    store2(lanes + 2, n1);
    store2(lanes + 4, n2);
    store2(lanes + 6, n3);
    const std::size_t m = nc - kb < kLanes ? nc - kb : kLanes;
    for (std::size_t j = 0; j < m; ++j) out[kb + j] = lanes[j];
  }
}

void weighted_gram(const double* v, const double* w, const double* y,
                   std::size_t ld, std::size_t np, std::size_t nl,
                   bool upper_only, double* c, std::vector<double>& panel) {
  // 4 x 4 register blocks: per point, two 2-wide loads of y, four scalar
  // x broadcasts from the packed panel and eight multiply-adds into
  // accumulators that live in registers for the whole point loop.
  constexpr std::size_t kc = kGramCols;
  const std::size_t nr = round_up(nl, kc);
  panel.resize(np * kc);
  for (std::size_t a0 = 0; a0 < nr; a0 += kc) {
    for (std::size_t k = 0; k < np; ++k)
      for (std::size_t i = 0; i < kc; ++i)
        panel[k * kc + i] = v[k * ld + a0 + i] * w[k];
    for (std::size_t b0 = upper_only ? a0 : 0; b0 < nr; b0 += kc) {
      Lane2 c00 = splat(0.0), c01 = c00, c10 = c00, c11 = c00, c20 = c00,
            c21 = c00, c30 = c00, c31 = c00;
      const double* xk = panel.data();
      const double* yk = y + b0;
      for (std::size_t k = 0; k < np; ++k, xk += kc, yk += ld) {
        const Lane2 y0 = load2(yk), y1 = load2(yk + 2);
        Lane2 s = splat(xk[0]);
        c00 += s * y0;
        c01 += s * y1;
        s = splat(xk[1]);
        c10 += s * y0;
        c11 += s * y1;
        s = splat(xk[2]);
        c20 += s * y0;
        c21 += s * y1;
        s = splat(xk[3]);
        c30 += s * y0;
        c31 += s * y1;
      }
      double* c0 = c + a0 * ld + b0;
      store2(c0, c00);
      store2(c0 + 2, c01);
      store2(c0 + ld, c10);
      store2(c0 + ld + 2, c11);
      store2(c0 + 2 * ld, c20);
      store2(c0 + 2 * ld + 2, c21);
      store2(c0 + 3 * ld, c30);
      store2(c0 + 3 * ld + 2, c31);
    }
  }
}

}  // namespace aeqp::basis::tile
