#pragma once

/// \file dense_tile.hpp
/// Register-blocked dense-tile kernels of the grid phases: the density
/// contraction of Rho, Sumup and the SCF Hartree density, and the weighted
/// Gram product of the H phase (H, S, T, V, dipole).
///
/// Every caller works on a small block of points (a projection ring chunk
/// or an integrator tile) and on the ascending union of the basis ids any
/// of its points carries. The block's sparse per-point entries are
/// densified into a zero-padded dense buffer indexed by that union, so the
/// inner loops run over contiguous memory with no indirect access (the
/// paper's Sec. 4.3 indirect-access elimination). Padded entries are exact
/// zeros; docs/performance.md ("Symmetric dense-tile kernels") shows why
/// the terms they add are exactly +-0 and change no bit.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aeqp::basis::tile {

/// Points per lane block of symmetric_density: four independent 2-wide
/// accumulators. At the portable -O2 x86-64 baseline (SSE2) explicit 2-wide
/// vectors are what the compiler keeps in registers (docs/performance.md,
/// "Vectorization evidence").
inline constexpr std::size_t kLanes = 8;

/// Columns per register block of weighted_gram; its leading dimension must
/// be a multiple of this.
inline constexpr std::size_t kGramCols = 4;

[[nodiscard]] inline std::size_t round_up(std::size_t n, std::size_t m) {
  return (n + m - 1) / m * m;
}

/// Reusable buffers of the dense-tile kernels, one set per thread
/// (thread_scratch()). Contents are transient: each kernel call sizes and
/// overwrites what it uses.
struct Scratch {
  std::vector<double> v;  ///< densified basis values
  std::vector<double> x;  ///< weighted_gram's packed panel of w o V
  std::vector<double> m;  ///< square block: folded P, or the Gram block
};

/// The calling thread's scratch.
[[nodiscard]] Scratch& thread_scratch();

/// Densify the CSR entries of `n` consecutive points into `out`, zero
/// padded to `size` doubles: entry e of point k (offsets[k] <= e <
/// offsets[k + 1]) lands at out[local(e) * stride_a + k * stride_k], where
/// local(e) is the entry's index in the block's union. stride_k = 1 gives
/// the basis-major layout of symmetric_density, stride_a = 1 the
/// point-major layout of weighted_gram.
template <typename Local>
void densify(const std::uint32_t* offsets, std::size_t n, const double* values,
             Local&& local, std::size_t stride_a, std::size_t stride_k,
             std::size_t size, std::vector<double>& out) {
  out.assign(size, 0.0);
  for (std::size_t k = 0; k < n; ++k)
    for (std::uint32_t e = offsets[k]; e < offsets[k + 1]; ++e)
      out[std::size_t{local(e)} * stride_a + k * stride_k] = values[e];
}

/// Fold a square n x n block (row stride ld) into its upper triangle:
/// m_ab += m_ba for b > a, the diagonal unchanged. The strict lower
/// triangle is left as it was and must not be read afterwards.
void fold_upper(double* m, std::size_t n, std::size_t ld);

/// Gather the n x n block P[ids[a]][ids[b]] of a row-major matrix with row
/// stride ldp into `out` (row stride n) and fold it: out holds the upper
/// triangle of P'_aa = P_aa, P'_ab = P_ab + P_ba (b > a).
void gather_folded(const double* p, std::size_t ldp, const std::uint32_t* ids,
                   std::size_t n, std::vector<double>& out);

/// n_k = sum_a v_ak * (P'_aa v_ak + sum_{b>a} P'_ab v_bk) for k < nc: the
/// density n_k = sum_ab P_ab v_ak v_bk from the folded upper triangle `f`
/// (row stride nl). `v` is basis-major with row stride nk, a multiple of
/// kLanes, zero padded; out receives nc values. Per point the rounded
/// operations are those of the ascending per-point loop
///   t = P'_aa * v_a;  t += P'_ab * v_b (b > a);  n += v_a * t,
/// with padded terms that are exactly +-0.
void symmetric_density(const double* v, std::size_t nk, const double* f,
                       std::size_t nl, std::size_t nc, double* out);

/// c_ab = sum_k (v_ka w_k) y_kb over the np points of a tile, accumulated
/// in point order from +0 for every a, b < nl: the Gram block X Y^T with
/// X = w o V. `v` and `y` (y may alias v) are point-major with row stride
/// ld (a multiple of kGramCols), columns >= nl zero; `c` gets row stride ld.
/// Each row block of X is packed into `panel` once, so the weights cost no
/// inner-loop work. With `upper_only` only register blocks that touch
/// b >= a are computed (the caller reads the upper triangle alone).
void weighted_gram(const double* v, const double* w, const double* y,
                   std::size_t ld, std::size_t np, std::size_t nl,
                   bool upper_only, double* c, std::vector<double>& panel);

}  // namespace aeqp::basis::tile
