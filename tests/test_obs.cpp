// Tests for src/obs: span recording and nesting, deterministic merge,
// Chrome trace-event export (parse-back), disabled-mode zero registration,
// the metrics registry, the phase report / profile JSON exporters, fault
// instants from the simmpi runtime, the unified log sink, and the
// bit-for-bit determinism of a traced vs untraced SCF run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/thread_ident.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "exec/thread_pool.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "scf/diis.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

/// Every test starts from a clean tracing state and restores Off on exit so
/// tests cannot leak mode into one another.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::set_mode(obs::TraceMode::Full);
    obs::reset();
    obs::reset_counters();
    obs::reset_series();
  }
  void TearDown() override {
    obs::set_mode(obs::TraceMode::Off);
    obs::reset();
    obs::reset_counters();
    obs::reset_series();
  }
};

TEST_F(ObsTest, SpansNestAndComplete) {
  {
    AEQP_TRACE_SCOPE("outer");
    {
      AEQP_TRACE_SCOPE("inner");
      obs::trace_instant("tick");
    }
    AEQP_TRACE_SCOPE("sibling");
  }
  const auto spans = obs::completed_spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans complete in End order per lane but are reported in Begin order.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].depth, 1);
  // The inner span is contained in the outer one.
  EXPECT_GE(spans[1].ts_us, spans[0].ts_us);
  EXPECT_LE(spans[1].ts_us + spans[1].dur_us,
            spans[0].ts_us + spans[0].dur_us + 1e-3);

  std::size_t instants = 0;
  for (const auto& ce : obs::collect_events())
    instants += ce.event.type == obs::EventType::Instant;
  EXPECT_EQ(instants, 1u);
}

TEST_F(ObsTest, PhaseSpanDelimitsManually) {
  obs::PhaseSpan span;
  span.begin("a");
  span.begin("b");  // implicitly ends "a"
  span.end();
  span.end();  // idempotent
  const auto spans = obs::completed_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "a");
  EXPECT_STREQ(spans[1].name, "b");
}

TEST_F(ObsTest, MergeIsDeterministicAcrossCollects) {
  const std::size_t n_threads = 4, per_thread = 200;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t)
    threads.emplace_back([t] {
      const ScopedThreadRank tag(static_cast<int>(t));
      for (std::size_t i = 0; i < per_thread; ++i) {
        AEQP_TRACE_SCOPE("work");
      }
    });
  for (auto& th : threads) th.join();

  const auto a = obs::collect_events();
  const auto b = obs::collect_events();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), n_threads * per_thread * 2);  // Begin + End each
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].thread_index, b[i].thread_index);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_STREQ(a[i].event.name, b[i].event.name);
    EXPECT_EQ(a[i].event.ts_us, b[i].event.ts_us);
  }
  // Lanes are contiguous and ordered by registration index; seq increases
  // within a lane.
  for (std::size_t i = 1; i < a.size(); ++i) {
    ASSERT_GE(a[i].thread_index, a[i - 1].thread_index);
    if (a[i].thread_index == a[i - 1].thread_index) {
      ASSERT_EQ(a[i].seq, a[i - 1].seq + 1);
    }
  }
  const auto spans = obs::completed_spans();
  EXPECT_EQ(spans.size(), n_threads * per_thread);
  for (const auto& s : spans) {
    EXPECT_GE(s.rank, 0);
    EXPECT_LT(s.rank, static_cast<int>(n_threads));
  }
}

/// Minimal JSON well-formedness scan: balanced {} / [] outside strings,
/// valid escapes. Not a full parser, but catches truncation, stray commas
/// in structure, and unescaped quotes.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST_F(ObsTest, ChromeTraceExportsValidJson) {
  {
    AEQP_TRACE_SCOPE("phase/outer");
    { AEQP_TRACE_SCOPE("phase/inner"); }
  }
  std::thread([] {
    const ScopedThreadRank tag(3);
    AEQP_TRACE_SCOPE("phase/ranked");
    obs::trace_instant("fault/test");
  }).join();

  const std::string path =
      (std::filesystem::temp_directory_path() / "aeqp_test_trace.json").string();
  ASSERT_TRUE(obs::write_chrome_trace(path, "unit test"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::filesystem::remove(path);

  EXPECT_TRUE(json_balanced(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"phase/inner\""), std::string::npos);
  // The ranked lane appears as pid 4 (rank + 1) with a process_name.
  EXPECT_NE(text.find("\"rank 3\""), std::string::npos);
  EXPECT_NE(text.find("\"host\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);

  // Count complete events: one per completed span.
  std::size_t x_events = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"ph\": \"X\"", pos)) != std::string::npos; ++pos)
    ++x_events;
  EXPECT_EQ(x_events, obs::completed_spans().size());
}

TEST_F(ObsTest, DisabledModeRegistersNothing) {
  obs::set_mode(obs::TraceMode::Off);
  obs::reset();
  const std::size_t before = obs::registered_thread_count();
  // A fresh thread recording spans in off mode must not allocate a buffer
  // or register a lane.
  std::thread([] {
    for (int i = 0; i < 1000; ++i) {
      AEQP_TRACE_SCOPE("never/recorded");
    }
    obs::trace_instant("never/instant");
  }).join();
  EXPECT_EQ(obs::registered_thread_count(), before);
  EXPECT_TRUE(obs::collect_events().empty());
}

TEST_F(ObsTest, CountersAndSources) {
  obs::counter("test/alpha").add(3);
  obs::counter("test/alpha").increment();
  obs::counter("test/beta").add(7);
  {
    const obs::ScopedMetricsSource src([](std::vector<obs::MetricSample>& out) {
      out.push_back({"test/source_value", 1.5});
    });
    const auto snap = obs::metrics_snapshot();
    ASSERT_EQ(snap.size(), 3u);  // sorted by name
    EXPECT_EQ(snap[0].name, "test/alpha");
    EXPECT_EQ(snap[0].value, 4.0);
    EXPECT_EQ(snap[1].name, "test/beta");
    EXPECT_EQ(snap[1].value, 7.0);
    EXPECT_EQ(snap[2].name, "test/source_value");
    EXPECT_EQ(snap[2].value, 1.5);
  }
  // Source deregistered, zeroed counters disappear from the snapshot.
  obs::reset_counters();
  EXPECT_TRUE(obs::metrics_snapshot().empty());
}

TEST_F(ObsTest, PhaseReportAndProfileJson) {
  { AEQP_TRACE_SCOPE("report/phase"); }
  obs::trace_instant("report/instant");
  obs::counter("report/counter").add(42);

  std::ostringstream os;
  obs::write_phase_report(os, "unit");
  const std::string report = os.str();
  EXPECT_NE(report.find("report/phase"), std::string::npos);
  EXPECT_NE(report.find("report/instant"), std::string::npos);
  EXPECT_NE(report.find("report/counter"), std::string::npos);
  EXPECT_NE(report.find("profiled wall time"), std::string::npos);

  const std::string json = obs::profile_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"report/phase\""), std::string::npos);
  EXPECT_NE(json.find("\"report/counter\": 42"), std::string::npos);
}

TEST_F(ObsTest, FaultInstantsFromSimmpiRun) {
  parallel::FaultPlan plan;
  parallel::FaultEvent kill;
  kill.kind = parallel::FaultKind::Kill;
  kill.rank = 1;
  kill.collective = 2;
  plan.add(kill);
  parallel::FaultInjector injector(plan);
  const auto injector_metrics = parallel::register_metrics(injector);

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  EXPECT_THROW(cluster.run([](parallel::Communicator& c) {
                 const ScopedThreadRank tag(static_cast<int>(c.rank()));
                 std::vector<double> x(4, 1.0);
                 for (int i = 0; i < 8; ++i) c.allreduce_sum(x);
               }),
               parallel::RankFailure);

  std::size_t kills = 0, failures = 0;
  for (const auto& ce : obs::collect_events()) {
    if (ce.event.type != obs::EventType::Instant) continue;
    kills += std::string(ce.event.name) == "fault/kill";
    failures += std::string(ce.event.name) == "fault/rank_failure";
  }
  EXPECT_EQ(kills, 1u);
  EXPECT_EQ(failures, 1u);

  bool found = false;
  for (const auto& m : obs::metrics_snapshot())
    if (m.name == "fault/kills") {
      found = true;
      EXPECT_EQ(m.value, 1.0);
    }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, LogSinkCapturesRankPrefixedLines) {
  Log::set_level(LogLevel::Info);
  std::vector<std::string> lines;
  Log::set_sink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  AEQP_LOG_INFO << "host line";
  {
    const ScopedThreadRank tag(5);
    AEQP_LOG_INFO << "rank line";
  }
  AEQP_LOG_DEBUG << "dropped";  // below threshold
  Log::set_sink({});
  Log::set_level(LogLevel::Warn);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "[aeqp INFO] host line");
  EXPECT_EQ(lines[1], "[aeqp INFO r5] rank line");
}

scf::ScfResult run_small_scf() {
  grid::Structure h2;
  h2.add_atom(1, {0, 0, -0.7});
  h2.add_atom(1, {0, 0, 0.7});
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Minimal;
  opt.grid.radial_points = 24;
  opt.grid.angular_degree = 7;
  opt.poisson.radial_points = 48;
  opt.poisson.l_max = 2;
  return scf::ScfSolver(h2, opt).run();
}

TEST_F(ObsTest, TracedScfIsBitIdenticalToUntraced) {
  obs::set_mode(obs::TraceMode::Off);
  const scf::ScfResult untraced = run_small_scf();
  obs::set_mode(obs::TraceMode::Full);
  obs::reset();
  const scf::ScfResult traced = run_small_scf();

  ASSERT_TRUE(untraced.converged);
  ASSERT_TRUE(traced.converged);
  // Tracing observes; it must not perturb a single bit of the physics.
  EXPECT_EQ(untraced.total_energy, traced.total_energy);
  EXPECT_EQ(untraced.density_matrix.max_abs_diff(traced.density_matrix), 0.0);
  EXPECT_EQ(untraced.iterations, traced.iterations);

  // And the traced run actually recorded the SCF phases.
  const auto aggs = obs::aggregate_spans();
  const auto has = [&](const char* name) {
    for (const auto& a : aggs)
      if (a.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has("scf/run"));
  EXPECT_TRUE(has("scf/iteration"));
  EXPECT_TRUE(has("scf/hartree"));
  EXPECT_TRUE(has("scf/hamiltonian"));
  EXPECT_TRUE(has("scf/diagonalize"));
  EXPECT_TRUE(has("scf/density"));
  EXPECT_TRUE(has("poisson/project"));
  EXPECT_TRUE(has("poisson/solve"));
}

double counter_value(const std::string& name) {
  for (const auto& m : obs::metrics_snapshot())
    if (m.name == name) return m.value;
  return 0.0;
}

// Convergence telemetry: one count per SCF/CPSCF iteration, once per solve
// (a distributed solve counts on rank 0 only), and nothing at all with
// tracing off.
TEST_F(ObsTest, ConvergenceCountersCountEachIterationOnce) {
  core::ParallelDfptOptions popt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;

  obs::set_mode(obs::TraceMode::Off);
  const scf::ScfResult ground_off = run_small_scf();
  ASSERT_TRUE(ground_off.converged);
  (void)core::DfptSolver(ground_off, {}).solve_direction(2);
  (void)core::solve_direction_parallel(ground_off, popt, 2);
  EXPECT_EQ(counter_value("scf/iterations"), 0.0);
  EXPECT_EQ(counter_value("cpscf/iterations"), 0.0);
  EXPECT_EQ(counter_value("cpscf/pulay_resets"), 0.0);

  obs::set_mode(obs::TraceMode::Summary);
  const scf::ScfResult ground = run_small_scf();
  ASSERT_TRUE(ground.converged);
  EXPECT_EQ(counter_value("scf/iterations"), ground.iterations);
  const auto serial = core::DfptSolver(ground, {}).solve_direction(2);
  ASSERT_TRUE(serial.converged);
  EXPECT_EQ(counter_value("cpscf/iterations"), serial.iterations);
  const auto par = core::solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(par.direction.converged);
  EXPECT_EQ(counter_value("cpscf/iterations"),
            serial.iterations + par.direction.iterations);
  EXPECT_LE(counter_value("cpscf/pulay_resets"),
            counter_value("cpscf/iterations"));
}

// Per-iteration convergence telemetry: one residual per SCF iteration
// (max|dn|) and per CPSCF iteration (max|dP1|, rank 0 only in a distributed
// solve), the converged one last, and no series at all with tracing off.
TEST_F(ObsTest, ConvergenceSeriesHoldOneResidualPerIteration) {
  core::ParallelDfptOptions popt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;

  obs::set_mode(obs::TraceMode::Off);
  const scf::ScfResult ground_off = run_small_scf();
  ASSERT_TRUE(ground_off.converged);
  (void)core::DfptSolver(ground_off, {}).solve_direction(2);
  (void)core::solve_direction_parallel(ground_off, popt, 2);
  EXPECT_TRUE(obs::series_snapshot().empty());

  obs::set_mode(obs::TraceMode::Summary);
  const scf::ScfResult ground = run_small_scf();
  ASSERT_TRUE(ground.converged);
  const std::vector<double> dn = obs::series("scf/max_dn");
  ASSERT_EQ(dn.size(), static_cast<std::size_t>(ground.iterations));
  EXPECT_LT(dn.back(), scf::ScfOptions{}.density_tolerance);
  EXPECT_LT(dn.back(), dn.front());

  const core::DfptOptions dopt;
  const auto serial = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(serial.converged);
  std::vector<double> dp1 = obs::series("cpscf/max_dp1");
  ASSERT_EQ(dp1.size(), static_cast<std::size_t>(serial.iterations));
  EXPECT_LT(dp1.back(), dopt.tolerance);
  for (const double d : dp1) EXPECT_TRUE(std::isfinite(d) && d >= 0.0);

  const auto par = core::solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(par.direction.converged);
  dp1 = obs::series("cpscf/max_dp1");
  ASSERT_EQ(dp1.size(), static_cast<std::size_t>(serial.iterations +
                                                 par.direction.iterations));
  EXPECT_LT(dp1.back(), dopt.tolerance);

  const std::string json = obs::profile_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"scf/max_dn\": ["), std::string::npos);
  EXPECT_NE(json.find("\"cpscf/max_dp1\": ["), std::string::npos);
}

// A singular SCF B matrix (two identical residuals) falls back to the latest
// H and is counted once as scf/pulay_resets; with tracing off, never.
TEST_F(ObsTest, ScfPulayResetIsCountedOnlyWhileEnabled) {
  linalg::Matrix h(3, 3), p(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      h(i, j) = 1.0 / static_cast<double>(i + j + 1);
      p(i, j) = i == j ? 1.0 : 0.25;
    }
  linalg::Matrix s = linalg::Matrix::identity(3);
  s(0, 1) = s(1, 0) = 0.5;
  ASSERT_GT(scf::DiisMixer::residual(h, p, s).max_abs(), 0.0);

  obs::set_mode(obs::TraceMode::Off);
  scf::DiisMixer off(4);
  (void)off.extrapolate(h, p, s);
  (void)off.extrapolate(h, p, s);
  EXPECT_EQ(counter_value("scf/pulay_resets"), 0.0);

  obs::set_mode(obs::TraceMode::Summary);
  scf::DiisMixer on(4);
  (void)on.extrapolate(h, p, s);
  EXPECT_EQ(counter_value("scf/pulay_resets"), 0.0);
  const linalg::Matrix out = on.extrapolate(h, p, s);
  EXPECT_EQ(counter_value("scf/pulay_resets"), 1.0);
  EXPECT_EQ(out.max_abs_diff(h), 0.0);
  EXPECT_EQ(on.history_size(), 1u);
}

// ---------------------------------------------------------------------------
// Memory audit (obs/memaudit.hpp): observe-only contract and gauge
// semantics. Deeper comm-matrix / flight-recorder coverage lives in
// test_memobs.cpp.

TEST_F(ObsTest, MemauditOffRegistersNoGauges) {
  obs::set_memaudit(false);
  const std::size_t before = obs::registered_gauge_count();
  // Instrumented owners built with the audit off must not touch the
  // registry: the whole per-site cost is the single gate load.
  const scf::ScfResult r = run_small_scf();
  ASSERT_TRUE(r.converged);
  obs::mem_track("obs_test/never_armed", 4096);
  EXPECT_EQ(obs::registered_gauge_count(), before);
}

TEST_F(ObsTest, MemauditScfCpscfBitIdentical) {
  obs::set_mode(obs::TraceMode::Off);
  obs::set_memaudit(false);
  const scf::ScfResult ground_off = run_small_scf();
  ASSERT_TRUE(ground_off.converged);
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto dfpt_off = core::DfptSolver(ground_off, dopt).solve_direction(2);

  obs::set_memaudit(true);
  obs::reset_mem_gauges();
  const scf::ScfResult ground_on = run_small_scf();
  ASSERT_TRUE(ground_on.converged);
  const auto dfpt_on = core::DfptSolver(ground_on, dopt).solve_direction(2);
  obs::set_memaudit(false);

  // The audit observes; it must not perturb a single bit of the physics.
  EXPECT_EQ(ground_off.total_energy, ground_on.total_energy);
  EXPECT_EQ(ground_off.density_matrix.max_abs_diff(ground_on.density_matrix),
            0.0);
  EXPECT_EQ(dfpt_off.iterations, dfpt_on.iterations);
  EXPECT_EQ(dfpt_off.dipole_response.z, dfpt_on.dipole_response.z);
  EXPECT_EQ(dfpt_off.p1.max_abs_diff(dfpt_on.p1), 0.0);

  // And the audited run actually measured the N-scaling structures.
  double spline_bytes = 0, table_bytes = 0;
  for (const auto& g : obs::mem_snapshot()) {
    if (g.name == "basis/spline_tables")
      spline_bytes = static_cast<double>(g.peak_bytes);
    if (g.name == "basis/function_table")
      table_bytes = static_cast<double>(g.peak_bytes);
  }
  EXPECT_GT(spline_bytes, 0.0);
  EXPECT_GT(table_bytes, 0.0);

  // The Pulay history peaks at its full (P_in, R) pairs and is released
  // when the solve returns.
  const std::size_t nb = dfpt_on.p1.rows();
  bool pulay_gauge = false;
  for (const auto& g : obs::mem_snapshot())
    if (g.name == "cpscf/pulay_history") {
      pulay_gauge = true;
      EXPECT_EQ(g.current_bytes, 0);
      EXPECT_GT(g.peak_bytes, 0);
      EXPECT_LE(g.peak_bytes, static_cast<std::int64_t>(
                                  2 * core::kCpscfPulayHistory * nb * nb *
                                  sizeof(double)));
    }
  EXPECT_TRUE(pulay_gauge);
}

TEST_F(ObsTest, MemGaugePeakUnderThreadPool) {
  obs::set_memaudit(true);
  obs::reset_mem_gauges();
  constexpr std::size_t kItems = 64;
  constexpr std::int64_t kBytes = 4096;
  // Concurrent adds only: every interleaving ends at the same current, and
  // peak equals it because the gauge never decreases during this phase.
  exec::parallel_for(0, kItems,
                     [](std::size_t) { obs::mem_track("obs_test/pool", kBytes); });
  obs::MemGauge& g = obs::mem_gauge("obs_test/pool");
  EXPECT_EQ(g.current(), static_cast<std::int64_t>(kItems) * kBytes);
  EXPECT_EQ(g.peak(), g.current());

  const std::int64_t high_water = g.peak();
  exec::parallel_for(0, kItems, [](std::size_t) {
    obs::mem_track("obs_test/pool", -kBytes);
  });
  EXPECT_EQ(g.current(), 0);
  EXPECT_EQ(g.peak(), high_water);  // the high-water mark survives release
  obs::set_memaudit(false);
}

}  // namespace
