#pragma once

/// \file diis.hpp
/// Pulay's Direct Inversion in the Iterative Subspace (DIIS).
///
/// PulayHistory is the shared core: a bounded history of (iterate,
/// residual) pairs and the bordered Lagrange solve for the coefficients
/// that minimize the extrapolated residual norm. Two mixers drive it:
///  - DiisMixer (SCF): iterate = Hamiltonian H, residual = the
///    commutator-like e = H P S - S P H, which vanishes exactly at
///    self-consistency; the next H is sum_i c_i H_i.
///  - the CPSCF loop (core/cpscf_loop.cpp): iterate = the input response
///    density matrix P^(1)_in, residual = P^(1)_out - P^(1)_in; the next
///    input is sum_i c_i (P^(1)_in,i + beta R_i).

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace aeqp::scf {

/// Stored (iterate, residual) pairs, oldest first -- the checkpoint form of
/// a PulayHistory.
using PulayPairs = std::vector<std::pair<linalg::Matrix, linalg::Matrix>>;

/// Bounded (x, e) history with the Pulay extrapolation coefficients.
class PulayHistory {
public:
  /// `max_history`: number of pairs retained (>= 1).
  explicit PulayHistory(std::size_t max_history);

  /// Append (x, e), evicting the oldest pair beyond max_history.
  void push(linalg::Matrix x, linalg::Matrix e);

  /// Coefficients c (sum c_i = 1, oldest first) minimizing
  /// |sum_i c_i e_i|^2 over the stored pairs; one stored pair yields {1}.
  /// The B-matrix dot products run in a fixed serial order, so c is
  /// bit-identical for every thread count. A singular B matrix (linearly
  /// dependent residuals) drops every pair but the latest and returns
  /// nullopt: the caller falls back to the latest pair alone.
  [[nodiscard]] std::optional<linalg::Vector> coefficients();

  [[nodiscard]] std::size_t size() const { return history_.size(); }
  [[nodiscard]] const linalg::Matrix& x(std::size_t i) const {
    return history_[i].first;
  }
  [[nodiscard]] const linalg::Matrix& e(std::size_t i) const {
    return history_[i].second;
  }
  /// Bytes held by the stored matrices.
  [[nodiscard]] std::size_t bytes() const;

  void clear() { history_.clear(); }

  /// The stored pairs, oldest first, for checkpointing.
  [[nodiscard]] PulayPairs export_pairs() const;

  /// Replace the history with pairs from export_pairs() (oldest first;
  /// truncated to the most recent max_history entries). Restores the exact
  /// exported state, so coefficients() after import are bit-identical to
  /// ones without the round-trip.
  void import_pairs(PulayPairs pairs);

private:
  std::size_t max_history_;
  std::deque<std::pair<linalg::Matrix, linalg::Matrix>> history_;
};

/// SCF Hamiltonian DIIS: PulayHistory over (H, H P S - S P H) pairs.
class DiisMixer {
public:
  /// `max_history`: number of (H, e) pairs retained.
  explicit DiisMixer(std::size_t max_history = 8);

  /// The DIIS residual e = H P S - S P H.
  static linalg::Matrix residual(const linalg::Matrix& h, const linalg::Matrix& p,
                                 const linalg::Matrix& s);

  /// Push the latest Hamiltonian/density pair and return the extrapolated
  /// Hamiltonian. With fewer than two stored pairs (or an ill-conditioned
  /// B matrix, counted as `scf/pulay_resets`) the input H is returned
  /// unchanged.
  [[nodiscard]] linalg::Matrix extrapolate(const linalg::Matrix& h,
                                           const linalg::Matrix& p,
                                           const linalg::Matrix& s);

  /// Max |e_ij| of the most recent residual (a convergence diagnostic).
  [[nodiscard]] double last_residual_norm() const { return last_residual_norm_; }

  [[nodiscard]] std::size_t history_size() const { return history_.size(); }

  void reset();

  /// Serialize the stored (H, e) pairs, oldest first, for checkpointing.
  [[nodiscard]] PulayPairs export_history() const {
    return history_.export_pairs();
  }

  /// Replace the history with pairs from export_history() (oldest first;
  /// truncated to the most recent `max_history` entries). Restores the
  /// mixer to the exact state it was exported from, so an extrapolation
  /// after import is bit-identical to one without the round-trip.
  void import_history(PulayPairs history);

private:
  PulayHistory history_;
  double last_residual_norm_ = 0.0;
};

}  // namespace aeqp::scf
