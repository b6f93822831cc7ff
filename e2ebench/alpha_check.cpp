// Correctness of every alpha the benchmark produces.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "e2ebench.hpp"

namespace e2e {

namespace {

/// Grid-moment vs matrix-trace alpha, relative to max |alpha|. Both paths
/// contract the same converged response (they agree to ~1e-14 today), so
/// this is far tighter than the physics tolerances below.
constexpr double kPathTolerance = 1e-6;
/// |alpha_ij - alpha_ji| relative to max |alpha|: the response is
/// symmetric up to the integration-grid error.
constexpr double kSymmetryTolerance = 5e-3;

double max_abs(const Tensor& t) {
  double m = 0.0;
  for (const double v : t) m = std::max(m, std::fabs(v));
  return m;
}

std::string fail(const char* what, double value, double limit) {
  std::ostringstream os;
  os << what << " " << value << " exceeds " << limit;
  return os.str();
}

std::int64_t ordered_bits(double v) {
  std::int64_t i = 0;
  std::memcpy(&i, &v, sizeof i);
  // Map sign-magnitude onto a monotone integer line.
  return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
}

}  // namespace

// Generated with the library defaults (ScfOptions{}, DfptOptions{}) on
// core::water() and core::polyethylene_chain(1|2), 4 pool threads.
const Tensor kWaterAlpha = {
    6.0329425040108386, -2.0938420222358272e-14, 0.0067577052924839634,
    -2.1072163329360107e-14, 9.5437830850463747, 9.8093926489056655e-15,
    0.0058648248644956559, 7.8804222868173043e-15, 6.3148376420217547};
const Tensor kChain1Alpha = {
    21.787852802373809, -4.6164974444660915e-14, 4.0784278155012075,
    -4.385196357614343e-14, 26.275235695181934, -1.1371475613931592e-13,
    4.0513186857708741, -1.2461978843335885e-13, 30.426791431049139};
const Tensor kChain2Alpha = {
    38.782781489808897, -3.1154825050892006e-13, 5.1751940628951303,
    -3.1664129243763221e-13, 45.690563867622657, 2.5703378367669682e-14,
    5.1654519559601964, 3.051770135223072e-14, 64.447184335998273};

double max_rel_dev(const Tensor& alpha, const Tensor& ref) {
  double dev = 0.0;
  for (std::size_t k = 0; k < 9; ++k)
    dev = std::max(dev, std::fabs(alpha[k] - ref[k]));
  return dev / max_abs(ref);
}

double max_ulp_distance(const Tensor& a, const Tensor& b) {
  // Components that vanish by symmetry carry only rounding noise around
  // zero, where ulps are meaningless; compare the structural ones.
  const double floor = 1e-8 * max_abs(b);
  double worst = 0.0;
  for (std::size_t k = 0; k < 9; ++k) {
    if (std::fabs(b[k]) < floor) continue;
    // Compare signed, subtract unsigned: the ordered bit patterns are near
    // 2^62, where a double cannot resolve a few ulps.
    const std::int64_t ia = ordered_bits(a[k]), ib = ordered_bits(b[k]);
    const auto hi = static_cast<std::uint64_t>(std::max(ia, ib));
    const auto lo = static_cast<std::uint64_t>(std::min(ia, ib));
    worst = std::max(worst, static_cast<double>(hi - lo));
  }
  return worst;
}

std::string check_alpha(const Tensor& alpha, const Tensor& trace,
                        const Expectation& expected) {
  for (std::size_t k = 0; k < 9; ++k)
    if (!std::isfinite(alpha[k]) || !std::isfinite(trace[k]))
      return "alpha is not finite";
  const double scale = max_abs(alpha);
  if (!(scale > 0.0)) return "alpha is zero";
  double path = 0.0, asym = 0.0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      path = std::max(path, std::fabs(alpha[3 * i + j] - trace[3 * i + j]));
      asym = std::max(asym, std::fabs(alpha[3 * i + j] - alpha[3 * j + i]));
    }
  if (path > kPathTolerance * scale)
    return fail("grid-moment vs matrix-trace alpha:", path / scale, kPathTolerance);
  if (asym > kSymmetryTolerance * scale)
    return fail("alpha asymmetry:", asym / scale, kSymmetryTolerance);
  if (expected.alpha != nullptr) {
    const double dev = max_rel_dev(alpha, *expected.alpha);
    if (dev > expected.tolerance)
      return fail("deviation from the reference alpha:", dev, expected.tolerance);
  }
  return {};
}

bool self_check(const Solve& good, const Expectation& expected) {
  if (!check_alpha(good.alpha, good.alpha_trace, expected).empty()) return false;
  if (expected.alpha == nullptr) return true;
  // Shift alpha_xx on both paths: the tensor stays symmetric and the paths
  // agree, so only the reference comparison can catch it.
  Solve bad;
  bad.alpha = good.alpha;
  bad.alpha_trace = good.alpha_trace;
  const double delta = 3.0 * expected.tolerance * max_abs(*expected.alpha);
  bad.alpha[0] += delta;
  bad.alpha_trace[0] += delta;
  bad.failure = check_alpha(bad.alpha, bad.alpha_trace, expected);
  Tally tally;
  tally.add(bad);
  return tally.failed == 1;
}

}  // namespace e2e
