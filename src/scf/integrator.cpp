#include "scf/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "basis/dense_tile.hpp"
#include "common/error.hpp"
#include "exec/thread_pool.hpp"

namespace aeqp::scf {

using linalg::Matrix;

namespace {
/// Points per accumulation tile. Comparable to the paper's batch sizes
/// (100-300 points); small enough to keep the dense local blocks in cache
/// and to load-balance across the pool.
constexpr std::size_t kTilePoints = 128;
}  // namespace

BatchIntegrator::BatchIntegrator(std::shared_ptr<const basis::BasisSet> basis,
                                 std::shared_ptr<const grid::MolecularGrid> grid)
    : basis_(std::move(basis)), grid_(std::move(grid)) {
  AEQP_CHECK(basis_ && grid_, "BatchIntegrator: null basis or grid");
  const std::size_t np = grid_->size();
  offsets_.assign(np + 1, 0);
  // Reserve the sparse cache from the geometry-only entry bound. Doubling
  // growth would leave the outgrown buffers behind on the heap and raise
  // peak RSS once several integrators live in one process.
  std::size_t entry_bound = 0;
  for (std::size_t p = 0; p < np; ++p)
    entry_bound += basis_->evaluate_bound(grid_->point(p).pos);
  indices_.reserve(entry_bound);
  values_.reserve(entry_bound);
  laplacians_.reserve(entry_bound);
  basis::PointEval ev;
  for (std::size_t p = 0; p < np; ++p) {
    basis_->evaluate(grid_->point(p).pos, /*with_laplacian=*/true, ev);
    offsets_[p + 1] = offsets_[p] + static_cast<std::uint32_t>(ev.indices.size());
    indices_.insert(indices_.end(), ev.indices.begin(), ev.indices.end());
    values_.insert(values_.end(), ev.values.begin(), ev.values.end());
    laplacians_.insert(laplacians_.end(), ev.laplacians.begin(),
                       ev.laplacians.end());
  }

  // Cut the point range into tiles and build each tile's dense local index
  // space (sorted union of active basis ids). Grid points are laid out
  // atom-by-atom, so contiguous ranges are spatially compact and their
  // unions stay small.
  const std::size_t n_tiles = (np + kTilePoints - 1) / kTilePoints;
  tiles_.resize(n_tiles);
  exec::parallel_for(0, n_tiles, [&](std::size_t t) {
    Tile& tile = tiles_[t];
    tile.p_begin = static_cast<std::uint32_t>(t * kTilePoints);
    tile.p_end = static_cast<std::uint32_t>(
        std::min(np, (t + 1) * kTilePoints));
    const std::uint32_t e_begin = offsets_[tile.p_begin];
    const std::uint32_t e_end = offsets_[tile.p_end];
    tile.basis_ids.assign(indices_.begin() + e_begin, indices_.begin() + e_end);
    std::sort(tile.basis_ids.begin(), tile.basis_ids.end());
    tile.basis_ids.erase(
        std::unique(tile.basis_ids.begin(), tile.basis_ids.end()),
        tile.basis_ids.end());
    AEQP_CHECK(tile.basis_ids.size() < 65536,
               "BatchIntegrator: tile active-basis union too large");
    tile.local_index.resize(e_end - e_begin);
    for (std::uint32_t e = e_begin; e < e_end; ++e) {
      const auto it = std::lower_bound(tile.basis_ids.begin(),
                                       tile.basis_ids.end(), indices_[e]);
      tile.local_index[e - e_begin] =
          static_cast<std::uint16_t>(it - tile.basis_ids.begin());
    }
  });
}

template <typename Getter>
Matrix BatchIntegrator::accumulate_weighted(Getter&& point_factor,
                                            bool use_laplacian) const {
  const std::size_t nb = basis_->size();
  // Phase 1 (parallel): per tile, dense V (and its Laplacian for the
  // kinetic matrix) over the tile's union, then blk = (w o V) Y^T by the
  // register-blocked Gram kernel, Y = V or the Laplacian. With Y = V the
  // block is symmetric and only its upper triangle is formed; the
  // Laplacian block is formed whole and folded, blk_ab + blk_ba. Either way
  // a tile keeps its packed upper triangle, nl (nl + 1) / 2 doubles.
  std::vector<std::vector<double>> blocks(tiles_.size());
  exec::parallel_for(0, tiles_.size(), [&](std::size_t t) {
    const Tile& tile = tiles_[t];
    const std::size_t nl = tile.basis_ids.size();
    const std::size_t np = tile.p_end - tile.p_begin;
    const std::size_t ld = basis::tile::round_up(nl, basis::tile::kGramCols);
    const std::uint32_t* off = offsets_.data() + tile.p_begin;
    const std::uint32_t e_base = off[0];
    const auto local = [&](std::uint32_t e) {
      return tile.local_index[e - e_base];
    };
    basis::tile::Scratch& s = basis::tile::thread_scratch();
    basis::tile::densify(off, np, values_.data(), local, 1, ld, np * ld, s.v);
    // The Laplacian operand serves the one kinetic build of a set-up; it
    // is not kept in the thread's scratch.
    std::vector<double> lap;
    if (use_laplacian)
      basis::tile::densify(off, np, laplacians_.data(), local, 1, ld, np * ld,
                           lap);
    double w[kTilePoints];
    for (std::size_t k = 0; k < np; ++k) {
      const std::size_t p = tile.p_begin + k;
      w[k] = grid_->point(p).weight * point_factor(p);
    }
    s.m.resize(ld * ld);
    const double* y = use_laplacian ? lap.data() : s.v.data();
    basis::tile::weighted_gram(s.v.data(), w, y, ld, np, nl, !use_laplacian,
                               s.m.data(), s.x);
    if (use_laplacian) basis::tile::fold_upper(s.m.data(), nl, ld);
    std::vector<double>& blk = blocks[t];
    blk.resize(nl * (nl + 1) / 2);
    double* out = blk.data();
    for (std::size_t a = 0; a < nl; ++a)
      for (std::size_t b = a; b < nl; ++b) *out++ = s.m[a * ld + b];
  });
  // Phase 2 (ordered): flush the packed blocks in tile order, so the
  // floating-point accumulation sequence per element is fixed for every
  // thread count. Unions are ascending, so a block's upper triangle lands
  // in the matrix's upper triangle.
  Matrix m(nb, nb);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const Tile& tile = tiles_[t];
    const std::size_t nl = tile.basis_ids.size();
    const double* in = blocks[t].data();
    for (std::size_t a = 0; a < nl; ++a) {
      double* mrow = m.data() + std::size_t{tile.basis_ids[a]} * nb;
      for (std::size_t b = a; b < nl; ++b) mrow[tile.basis_ids[b]] += *in++;
    }
  }
  // Mirror once: the result is exactly symmetric. A folded Laplacian sum is
  // halved, the symmetrized estimate (T_ab + T_ba) / 2.
  const double half = use_laplacian ? 0.5 : 1.0;
  for (std::size_t a = 0; a < nb; ++a)
    for (std::size_t b = a + 1; b < nb; ++b) m(b, a) = m(a, b) = half * m(a, b);
  return m;
}

Matrix BatchIntegrator::overlap() const {
  return accumulate_weighted([](std::size_t) { return 1.0; }, false);
}

Matrix BatchIntegrator::kinetic() const {
  // The asymmetric grid estimate of <mu|nabla^2|nu> is symmetrized (inside
  // accumulate_weighted), the standard practice for NAO grid integration
  // (FHI-aims does the same).
  return accumulate_weighted([](std::size_t) { return -0.5; }, true);
}

Matrix BatchIntegrator::external_potential() const {
  std::call_once(vnuc_once_, [&] {
    const auto& atoms = basis_->structure().atoms();
    const std::size_t np = grid_->size();
    vnuc_samples_.resize(np);
    exec::parallel_for_ranges(0, np, 256, [&](std::size_t b, std::size_t e) {
      for (std::size_t p = b; p < e; ++p) {
        const Vec3 pos = grid_->point(p).pos;
        double v = 0.0;
        for (const auto& a : atoms) {
          const double r = distance(pos, a.pos);
          v += -static_cast<double>(a.z) / std::max(r, 1e-10);
        }
        vnuc_samples_[p] = v;
      }
    });
  });
  return accumulate_weighted(
      [&](std::size_t p) { return vnuc_samples_[p]; }, false);
}

Matrix BatchIntegrator::potential_matrix(std::span<const double> v_samples) const {
  AEQP_CHECK(v_samples.size() == grid_->size(),
             "potential_matrix: sample count mismatch");
  return accumulate_weighted([&](std::size_t p) { return v_samples[p]; }, false);
}

Matrix BatchIntegrator::dipole_matrix(int axis) const {
  AEQP_CHECK(axis >= 0 && axis < 3, "dipole_matrix: axis must be 0..2");
  return accumulate_weighted(
      [&](std::size_t p) { return grid_->point(p).pos[axis]; }, false);
}

std::vector<double> BatchIntegrator::density(const Matrix& p_mat) const {
  const std::size_t nb = basis_->size();
  AEQP_CHECK(p_mat.rows() == nb && p_mat.cols() == nb,
             "density: density matrix shape mismatch");
  std::vector<double> n(grid_->size(), 0.0);
  // The Rho contraction's kernel over each tile's union: every point owns
  // its own output slot and depends on its tile alone, so the result is
  // bit-identical for any thread count.
  exec::parallel_for(0, tiles_.size(), [&](std::size_t t) {
    const Tile& tile = tiles_[t];
    const std::size_t nl = tile.basis_ids.size();
    const std::size_t np = tile.p_end - tile.p_begin;
    const std::size_t nk = basis::tile::round_up(np, basis::tile::kLanes);
    const std::uint32_t* off = offsets_.data() + tile.p_begin;
    const std::uint32_t e_base = off[0];
    basis::tile::Scratch& s = basis::tile::thread_scratch();
    basis::tile::densify(
        off, np, values_.data(),
        [&](std::uint32_t e) { return tile.local_index[e - e_base]; }, nk, 1,
        nl * nk, s.v);
    basis::tile::gather_folded(p_mat.data(), nb, tile.basis_ids.data(), nl,
                               s.m);
    basis::tile::symmetric_density(s.v.data(), nk, s.m.data(), nl, np,
                                   n.data() + tile.p_begin);
  });
  return n;
}

double BatchIntegrator::moment(std::span<const double> samples, int axis) const {
  AEQP_CHECK(samples.size() == grid_->size(), "moment: sample count mismatch");
  AEQP_CHECK(axis >= 0 && axis < 3, "moment: axis must be 0..2");
  double s = 0.0;
  for (std::size_t p = 0; p < grid_->size(); ++p)
    s += grid_->point(p).weight * grid_->point(p).pos[axis] * samples[p];
  return s;
}

double BatchIntegrator::integrate(std::span<const double> samples) const {
  AEQP_CHECK(samples.size() == grid_->size(), "integrate: sample count mismatch");
  double s = 0.0;
  for (std::size_t p = 0; p < grid_->size(); ++p)
    s += grid_->point(p).weight * samples[p];
  return s;
}

std::size_t BatchIntegrator::active_points() const {
  std::size_t n = 0;
  for (std::size_t p = 0; p < grid_->size(); ++p)
    n += (offsets_[p + 1] > offsets_[p]);
  return n;
}

}  // namespace aeqp::scf
