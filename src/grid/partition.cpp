#include "grid/partition.hpp"

#include <cmath>

#include "common/error.hpp"

namespace aeqp::grid {
namespace {

/// Becke's smoothing polynomial f(mu) = 1.5 mu - 0.5 mu^3 iterated 3 times.
double becke_s(double mu) {
  double f = mu;
  for (int k = 0; k < 3; ++k) f = 1.5 * f - 0.5 * f * f * f;
  return 0.5 * (1.0 - f);
}

}  // namespace

BeckePartition::BeckePartition(const Structure& structure) {
  const std::size_t n = structure.size();
  positions_.reserve(n);
  for (const auto& a : structure.atoms()) positions_.push_back(a.pos);
  inv_pair_dist_.assign(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const double d = distance(positions_[a], positions_[b]);
      AEQP_CHECK(d > 1e-8, "BeckePartition: coincident nuclei");
      inv_pair_dist_[a * n + b] = 1.0 / d;
    }
}

double BeckePartition::cell(std::size_t a, const Vec3& /*point*/,
                            const std::vector<double>& dist) const {
  const std::size_t n = positions_.size();
  double p = 1.0;
  for (std::size_t b = 0; b < n; ++b) {
    if (b == a) continue;
    const double mu = (dist[a] - dist[b]) * inv_pair_dist_[a * n + b];
    p *= becke_s(mu);
    if (p == 0.0) break;
  }
  return p;
}

double BeckePartition::weight(std::size_t center, const Vec3& point) const {
  const std::size_t n = positions_.size();
  AEQP_CHECK(center < n, "BeckePartition: atom index out of range");
  if (n == 1) return 1.0;

  // Thread-local scratch: weight() sits on the grid-build and projection
  // hot paths, which call it from every pool worker.
  thread_local std::vector<double> dist;
  dist.resize(n);
  for (std::size_t a = 0; a < n; ++a) dist[a] = distance(positions_[a], point);

  const double pc = cell(center, point, dist);
  if (pc == 0.0) return 0.0;
  double total = 0.0;
  for (std::size_t a = 0; a < n; ++a) total += cell(a, point, dist);
  return pc / total;
}

}  // namespace aeqp::grid
