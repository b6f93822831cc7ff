#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

namespace aeqp::obs {

namespace {

struct MetricsState {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::size_t, MetricsFn> sources;
  std::size_t next_id = 1;
  std::map<std::string, std::vector<double>> series;
};

MetricsState& state() {
  static MetricsState* s = new MetricsState();  // leaked: process lifetime
  return *s;
}

}  // namespace

Counter& counter(const std::string& name) {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  auto& slot = s.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::size_t add_metrics_source(MetricsFn fn) {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const std::size_t id = s.next_id++;
  s.sources.emplace(id, std::move(fn));
  return id;
}

void remove_metrics_source(std::size_t id) {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.sources.erase(id);
}

std::vector<MetricSample> metrics_snapshot() {
  MetricsState& s = state();
  std::vector<MetricSample> out;
  std::vector<MetricsFn> sources;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& [name, c] : s.counters)
      if (c->value() != 0)
        out.push_back({name, static_cast<double>(c->value())});
    sources.reserve(s.sources.size());
    for (const auto& [id, fn] : s.sources) sources.push_back(fn);
  }
  // Sources run outside the lock so a source may itself query counters.
  for (const auto& fn : sources) fn(out);
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_counters() {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [name, c] : s.counters) c->reset();
}

void series_append(const std::string& name, double value) {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.series[name].push_back(value);
}

std::vector<Series> series_snapshot() {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<Series> out;
  out.reserve(s.series.size());
  for (const auto& [name, values] : s.series) out.push_back({name, values});
  return out;
}

std::vector<double> series(const std::string& name) {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.series.find(name);
  return it == s.series.end() ? std::vector<double>{} : it->second;
}

void reset_series() {
  MetricsState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.series.clear();
}

}  // namespace aeqp::obs
