#include "scf/diis.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "linalg/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/guards.hpp"

namespace aeqp::scf {

using linalg::Matrix;
using linalg::Vector;

PulayHistory::PulayHistory(std::size_t max_history) : max_history_(max_history) {
  AEQP_CHECK(max_history_ >= 1, "PulayHistory: history must hold at least 1 entry");
}

void PulayHistory::push(Matrix x, Matrix e) {
  history_.emplace_back(std::move(x), std::move(e));
  if (history_.size() > max_history_) history_.pop_front();
}

std::optional<Vector> PulayHistory::coefficients() {
  const std::size_t m = history_.size();
  if (m == 1) return Vector{1.0};

  // Bordered Lagrange system: minimize |sum c_i e_i|^2 with sum c_i = 1.
  Matrix b(m + 1, m + 1);
  Vector rhs(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double dot = 0.0;
      const Matrix& ei = history_[i].second;
      const Matrix& ej = history_[j].second;
      for (std::size_t k = 0; k < ei.rows() * ei.cols(); ++k)
        dot += ei.data()[k] * ej.data()[k];
      b(i, j) = dot;
    }
    b(i, m) = -1.0;
    b(m, i) = -1.0;
  }
  rhs[m] = -1.0;

  try {
    Vector c = linalg::solve_linear(b, rhs);
    c.resize(m);  // drop the Lagrange multiplier
    return c;
  } catch (const Error&) {
    // Ill-conditioned subspace: drop the oldest entries and carry on.
    AEQP_LOG_DEBUG << "DIIS B-matrix singular; resetting history";
    auto latest = std::move(history_.back());
    history_.clear();
    history_.push_back(std::move(latest));
    return std::nullopt;
  }
}

std::size_t PulayHistory::bytes() const {
  std::size_t n = 0;
  for (const auto& [x, e] : history_) n += x.bytes() + e.bytes();
  return n;
}

PulayPairs PulayHistory::export_pairs() const {
  return {history_.begin(), history_.end()};
}

void PulayHistory::import_pairs(PulayPairs pairs) {
  history_.clear();
  const std::size_t skip =
      pairs.size() > max_history_ ? pairs.size() - max_history_ : 0;
  for (std::size_t i = skip; i < pairs.size(); ++i)
    history_.push_back(std::move(pairs[i]));
}

DiisMixer::DiisMixer(std::size_t max_history) : history_(max_history) {
  AEQP_CHECK(max_history >= 2, "DiisMixer: history must hold at least 2 entries");
}

Matrix DiisMixer::residual(const Matrix& h, const Matrix& p, const Matrix& s) {
  // e = H P S - S P H; antisymmetric, zero at self-consistency.
  const Matrix hp = linalg::matmul(h, p);
  const Matrix sp = linalg::matmul(s, p);
  Matrix e = linalg::matmul(hp, s);
  e.axpy(-1.0, linalg::matmul(sp, h));
  return e;
}

void DiisMixer::reset() {
  history_.clear();
  last_residual_norm_ = 0.0;
}

void DiisMixer::import_history(PulayPairs history) {
  history_.import_pairs(std::move(history));
  last_residual_norm_ =
      history_.size() == 0 ? 0.0 : history_.e(history_.size() - 1).max_abs();
}

Matrix DiisMixer::extrapolate(const Matrix& h, const Matrix& p, const Matrix& s) {
  // A single non-finite entry admitted to the history poisons every later
  // extrapolation (the B-matrix dots touch all stored residuals), so refuse
  // corrupt input at the door instead of letting it spread.
  if (resilience::guards_enabled()) {
    resilience::guard_finite(h, "diis/h");
    resilience::guard_finite(p, "diis/p");
  }
  Matrix e = residual(h, p, s);
  if (resilience::guards_enabled()) resilience::guard_finite(e, "diis/residual");
  last_residual_norm_ = e.max_abs();
  history_.push(h, std::move(e));
  if (history_.size() < 2) return h;

  const std::optional<Vector> coeff = history_.coefficients();
  if (!coeff) {
    if (obs::enabled()) {
      static obs::Counter& resets = obs::counter("scf/pulay_resets");
      resets.increment();
    }
    return h;
  }
  Matrix mixed(h.rows(), h.cols());
  for (std::size_t i = 0; i < coeff->size(); ++i)
    mixed.axpy((*coeff)[i], history_.x(i));
  return mixed;
}

}  // namespace aeqp::scf
