#pragma once

/// \file metrics.hpp
/// Process-wide metrics registry: named monotonic counters plus pluggable
/// snapshot sources. The registry is what turns the repo's previously
/// isolated telemetry structs (simt::KernelStats, ParallelDfptStats,
/// FaultInjectorStats, RecoveryStats) into one queryable surface: each
/// owner registers a source callback that contributes (name, value) pairs
/// to a snapshot, and hot paths bump counters directly.
///
/// Counters are relaxed atomics -- cheap enough to stay on even when
/// tracing is off, and purely observational (they never feed back into a
/// computation, preserving determinism).

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace aeqp::obs {

/// One (name, value) pair of a metrics snapshot.
struct MetricSample {
  std::string name;
  double value = 0.0;
};

/// Callback contributing samples to a snapshot.
using MetricsFn = std::function<void(std::vector<MetricSample>&)>;

/// A monotonic counter. Obtain via obs::counter(name); references stay
/// valid for the process lifetime.
class Counter {
public:
  void add(std::uint64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Look up (creating on first use) the process-wide counter `name`. The
/// lookup takes a mutex -- cache the reference on hot paths (function-local
/// static references are the intended idiom).
[[nodiscard]] Counter& counter(const std::string& name);

/// Register a snapshot source; returns an id for remove_source. The
/// callback runs whenever metrics_snapshot() is taken, so the referenced
/// data must outlive the registration.
std::size_t add_metrics_source(MetricsFn fn);
void remove_metrics_source(std::size_t id);

/// RAII registration of a snapshot source.
class ScopedMetricsSource {
public:
  ScopedMetricsSource() = default;
  explicit ScopedMetricsSource(MetricsFn fn)
      : id_(add_metrics_source(std::move(fn))), armed_(true) {}
  ~ScopedMetricsSource() { release(); }
  ScopedMetricsSource(ScopedMetricsSource&& o) noexcept
      : id_(o.id_), armed_(o.armed_) {
    o.armed_ = false;
  }
  ScopedMetricsSource& operator=(ScopedMetricsSource&& o) noexcept {
    if (this != &o) {
      release();
      id_ = o.id_;
      armed_ = o.armed_;
      o.armed_ = false;
    }
    return *this;
  }
  ScopedMetricsSource(const ScopedMetricsSource&) = delete;
  ScopedMetricsSource& operator=(const ScopedMetricsSource&) = delete;

private:
  void release() {
    if (armed_) remove_metrics_source(id_);
    armed_ = false;
  }
  std::size_t id_ = 0;
  bool armed_ = false;
};

/// All counters (nonzero ones) plus every registered source's samples,
/// sorted by name. Deterministic for a given registry state.
[[nodiscard]] std::vector<MetricSample> metrics_snapshot();

/// Zero every counter (sources are left registered). For tests/benches.
void reset_counters();

/// Append `value` to the process-wide series `name`: per-iteration
/// telemetry such as the SCF and CPSCF convergence residuals. Like the
/// hot-path counters, callers append only while obs::enabled(), so with
/// tracing off no series exists. Takes a mutex (once per iteration).
void series_append(const std::string& name, double value);

/// One named series, values in append order.
struct Series {
  std::string name;
  std::vector<double> values;
};

/// Every series, sorted by name.
[[nodiscard]] std::vector<Series> series_snapshot();

/// The values of series `name` (empty when it was never appended to).
[[nodiscard]] std::vector<double> series(const std::string& name);

/// Drop every series. ScopedRunProfile calls it at the start of a run.
void reset_series();

}  // namespace aeqp::obs
