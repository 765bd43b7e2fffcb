// Tests for the pipeline observability layer: counters, timers, trace
// spans, the disabled no-op guarantee, cross-thread aggregation, and the
// three render formats.
#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace mmx::metrics {
namespace {

/// Re-enables metrics for one test and restores the prior state (tests
/// share one process-wide registry).
class MetricsGuard {
public:
  MetricsGuard() : was_(enabled()) {
    enable(true);
    reset();
  }
  ~MetricsGuard() {
    reset();
    enable(was_);
  }

private:
  bool was_;
};

TEST(Metrics, DisabledCountersAreNoops) {
  enable(false);
  Counter c = counter("test.disabled");
  c.add(42);
  EXPECT_EQ(c.value(), 0u);
  Timer t = timer("test.disabledTimer");
  t.record(1000);
  traceSpan("x", "y", 0, 10);
  Snapshot s = snapshot();
  for (const auto& row : s.counters) EXPECT_NE(row.name, "test.disabled");
  for (const auto& row : s.timers) EXPECT_NE(row.name, "test.disabledTimer");
  EXPECT_TRUE(s.events.empty());
}

TEST(Metrics, CounterAccumulates) {
  MetricsGuard g;
  Counter c = counter("test.counter");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  Snapshot s = snapshot();
  bool found = false;
  for (const auto& row : s.counters)
    if (row.name == "test.counter") {
      found = true;
      EXPECT_EQ(row.value, 10u);
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, SameNameSameHandle) {
  MetricsGuard g;
  counter("test.shared").add(3);
  counter("test.shared").add(4);
  EXPECT_EQ(counter("test.shared").value(), 7u);
}

TEST(Metrics, ResetZeroesButKeepsHandlesValid) {
  MetricsGuard g;
  Counter c = counter("test.reset");
  c.add(5);
  reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(Metrics, TimerRecordsCountTotalMax) {
  MetricsGuard g;
  Timer t = timer("test.timer");
  t.record(100);
  t.record(300);
  t.record(200);
  Snapshot s = snapshot();
  bool found = false;
  for (const auto& row : s.timers)
    if (row.name == "test.timer") {
      found = true;
      EXPECT_EQ(row.count, 3u);
      EXPECT_EQ(row.totalNs, 600u);
      EXPECT_EQ(row.maxNs, 300u);
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, CountsSurviveThreadExit) {
  MetricsGuard g;
  Counter c = counter("test.threads");
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) c.add();
    });
  for (auto& t : threads) t.join();
  // The worker shards were destroyed with the threads; their totals must
  // have been flushed into the registry.
  EXPECT_EQ(c.value(), 4000u);
}

TEST(Metrics, ScopedTimerEmitsTimerAndSpan) {
  MetricsGuard g;
  { ScopedTimer t("test.phase", "testcat"); }
  Snapshot s = snapshot();
  bool timerFound = false;
  for (const auto& row : s.timers)
    if (row.name == "test.phase") timerFound = true;
  EXPECT_TRUE(timerFound);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].name, "test.phase");
  EXPECT_EQ(s.events[0].category, "testcat");
}

TEST(Metrics, NowNsIsMonotonic) {
  uint64_t a = nowNs();
  uint64_t b = nowNs();
  EXPECT_LE(a, b);
}

TEST(Metrics, StatsJsonIsFlatAndContainsRows) {
  MetricsGuard g;
  counter("test.json").add(7);
  timer("test.jsonTimer").record(1234);
  std::string json = renderStatsJson(snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"test.json\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.jsonTimer.ns\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"test.jsonTimer.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.jsonTimer.max_ns\": 1234"), std::string::npos);
}

TEST(Metrics, TraceJsonHasTraceEventsArray) {
  MetricsGuard g;
  traceSpan("spanA", "phase", 1000, 2000);
  std::string json = renderTraceJson(snapshot());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"spanA\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Microsecond timestamps: 1000ns -> 1.000us, 2000ns -> 2.000us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos) << json;
}

TEST(Metrics, SteadyClockBacksTimestamps) {
  // The observability layer's timestamps must come from a monotonic
  // source — wall-clock (system_clock) would tear spans across NTP steps.
  // The compile-time assert lives in metrics.cpp; this documents and
  // pins the runtime guarantee.
  static_assert(std::chrono::steady_clock::is_steady);
  uint64_t a = nowNs();
  uint64_t b = nowNs();
  EXPECT_LE(a, b);
}

TEST(Metrics, JsonEscapesHostileNames) {
  // Span and counter names flow into JSON verbatim from instrumentation
  // sites (which may embed file paths); quotes, backslashes, newlines,
  // and control bytes must round-trip as valid JSON.
  MetricsGuard g;
  const char* hostile = "evil\"name\\with\nnewline\tand\x01" "ctrl";
  counter(hostile).add(7);
  traceSpan(hostile, "cat\"egory", 1000, 2000);
  auto snap = snapshot();

  std::string stats = renderStatsJson(snap);
  EXPECT_NE(stats.find("\"evil\\\"name\\\\with\\nnewline\\tand\\u0001ctrl\""),
            std::string::npos)
      << stats;
  // No raw quote/control byte survives inside any string literal.
  EXPECT_EQ(stats.find("evil\"name"), std::string::npos);

  std::string trace = renderTraceJson(snap);
  EXPECT_NE(trace.find("\"evil\\\"name\\\\with\\nnewline\\tand\\u0001ctrl\""),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"cat\\\"egory\""), std::string::npos);
}

TEST(Metrics, GaugesArePolledAtSnapshot) {
  MetricsGuard g;
  static uint64_t value = 0;
  registerGauge("test.gauge", [] { return value; });
  // Zero-valued gauges stay out of the snapshot (they'd be noise in every
  // stats file); nonzero values appear as counter rows.
  auto empty = snapshot();
  for (const auto& c : empty.counters) EXPECT_NE(c.name, "test.gauge");
  value = 41;
  auto snap = snapshot();
  bool found = false;
  for (const auto& c : snap.counters)
    if (c.name == "test.gauge") {
      found = true;
      EXPECT_EQ(c.value, 41u);
    }
  EXPECT_TRUE(found);
  // Re-registering the same name replaces the callback instead of
  // duplicating the row.
  registerGauge("test.gauge", [] { return uint64_t{5}; });
  int rows = 0;
  for (const auto& c : snapshot().counters)
    if (c.name == "test.gauge") ++rows;
  EXPECT_EQ(rows, 1);
}

TEST(Metrics, SnapshotIncludeZerosKeepsExplicitZeroRows) {
  // `--analyze --stats-json` consumers diff runs against baselines, so a
  // pass that found nothing must still emit its counters as explicit
  // zeros (ISSUE 6): snapshot(true) keeps zero-valued rows the default
  // snapshot drops.
  MetricsGuard g;
  counter("test.zeroCounter");
  timer("test.zeroTimer");
  registerGauge("test.zeroGauge", [] { return uint64_t{0}; });
  counter("test.nonzero").add(2);

  auto names = [](const Snapshot& s) {
    std::set<std::string> out;
    for (const auto& c : s.counters) out.insert(c.name);
    for (const auto& t : s.timers) out.insert(t.name);
    return out;
  };

  auto dropped = names(snapshot());
  EXPECT_FALSE(dropped.count("test.zeroCounter"));
  EXPECT_FALSE(dropped.count("test.zeroTimer"));
  EXPECT_FALSE(dropped.count("test.zeroGauge"));
  EXPECT_TRUE(dropped.count("test.nonzero"));

  auto kept = names(snapshot(/*includeZeros=*/true));
  EXPECT_TRUE(kept.count("test.zeroCounter"));
  EXPECT_TRUE(kept.count("test.zeroTimer"));
  EXPECT_TRUE(kept.count("test.zeroGauge"));

  std::string json = renderStatsJson(snapshot(true));
  EXPECT_NE(json.find("\"test.zeroCounter\": 0"), std::string::npos) << json;
}

TEST(Metrics, TimeReportAlwaysShowsKernelCounters) {
  // The --time-report counter section pins the kernel/pool headline rows
  // even when they are zero, so a run that never hit the matmul engine
  // still renders a comparable table.
  MetricsGuard g;
  std::string report = renderTimeReport(snapshot());
  EXPECT_NE(report.find("kernel.matmul.tiles"), std::string::npos) << report;
  EXPECT_NE(report.find("kernel.matmul.packedBytes"), std::string::npos);
  EXPECT_NE(report.find("pool.inlinedDispatches"), std::string::npos);
}

TEST(Metrics, TimeReportMentionsPhaseAndCounter) {
  MetricsGuard g;
  counter("test.reportCounter").add(1);
  timer("test.reportPhase").record(5000);
  std::string report = renderTimeReport(snapshot());
  EXPECT_NE(report.find("test.reportPhase"), std::string::npos) << report;
  EXPECT_NE(report.find("test.reportCounter"), std::string::npos) << report;
}

// --- histograms (ISSUE 10 pillar 1) ---------------------------------------

TEST(Metrics, HistogramDisabledIsNoop) {
  enable(false);
  Histogram h = histogram("test.hist.disabled");
  h.record(123);
  enable(true);
  Snapshot s = snapshot();
  enable(false);
  for (const auto& row : s.histograms)
    EXPECT_NE(row.name, "test.hist.disabled");
}

TEST(Metrics, HistogramCountSumMax) {
  MetricsGuard g;
  Histogram h = histogram("test.hist.basic");
  h.record(3);
  h.record(5);
  h.record(100);
  Snapshot s = snapshot();
  bool found = false;
  for (const auto& row : s.histograms)
    if (row.name == "test.hist.basic") {
      found = true;
      EXPECT_EQ(row.count, 3u);
      EXPECT_EQ(row.sum, 108u);
      EXPECT_EQ(row.max, 100u);
      // Quantiles are log2-bucket estimates, but they are bounded by the
      // observed extremes and ordered.
      EXPECT_LE(row.p50, row.p95);
      EXPECT_LE(row.p95, row.p99);
      EXPECT_LE(row.p99, row.max);
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, HistogramSingleValueQuantilesAreExact) {
  // One sample: every quantile clamps to the observed max — the estimate
  // must not invent values outside what was recorded.
  MetricsGuard g;
  Histogram h = histogram("test.hist.single");
  h.record(777);
  Snapshot s = snapshot();
  for (const auto& row : s.histograms)
    if (row.name == "test.hist.single") {
      EXPECT_EQ(row.p50, 777u);
      EXPECT_EQ(row.p95, 777u);
      EXPECT_EQ(row.p99, 777u);
      EXPECT_EQ(row.max, 777u);
    }
}

TEST(Metrics, HistogramZeroValuesLandInBucketZero) {
  MetricsGuard g;
  Histogram h = histogram("test.hist.zeros");
  h.record(0);
  h.record(0);
  Snapshot s = snapshot();
  for (const auto& row : s.histograms)
    if (row.name == "test.hist.zeros") {
      EXPECT_EQ(row.count, 2u);
      EXPECT_EQ(row.sum, 0u);
      EXPECT_EQ(row.max, 0u);
      EXPECT_EQ(row.p50, 0u);
      EXPECT_EQ(row.p99, 0u);
    }
}

TEST(Metrics, HistogramSkewedQuantilesSeparate) {
  // 90 small values and 10 huge ones: p50 must stay near the bulk while
  // p99/max see the tail — the property dashboards rely on.
  MetricsGuard g;
  Histogram h = histogram("test.hist.skew");
  for (int i = 0; i < 90; ++i) h.record(8);
  for (int i = 0; i < 10; ++i) h.record(1 << 20);
  Snapshot s = snapshot();
  for (const auto& row : s.histograms)
    if (row.name == "test.hist.skew") {
      EXPECT_LE(row.p50, 16u);
      EXPECT_GE(row.p99, 1u << 19);
      EXPECT_EQ(row.max, 1u << 20);
    }
}

TEST(Metrics, HistogramRowsRenderInStatsJsonAndTimeReport) {
  MetricsGuard g;
  histogram("test.hist.render").record(42);
  Snapshot s = snapshot();
  std::string json = renderStatsJson(s);
  EXPECT_NE(json.find("\"test.hist.render.count\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.hist.render.sum\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist.render.p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"test.hist.render.p95\": "), std::string::npos);
  EXPECT_NE(json.find("\"test.hist.render.p99\": "), std::string::npos);
  EXPECT_NE(json.find("\"test.hist.render.max\": 42"), std::string::npos);
  std::string report = renderTimeReport(s);
  EXPECT_NE(report.find("=== histograms ==="), std::string::npos) << report;
  EXPECT_NE(report.find("test.hist.render"), std::string::npos);
}

TEST(Metrics, HistogramSameNameSameCell) {
  MetricsGuard g;
  Histogram a = histogram("test.hist.shared");
  Histogram b = histogram("test.hist.shared");
  a.record(1);
  b.record(2);
  Snapshot s = snapshot();
  for (const auto& row : s.histograms) {
    if (row.name == "test.hist.shared") {
      EXPECT_EQ(row.count, 2u);
    }
  }
}

// --- trace saturation (ISSUE 10 satellite) --------------------------------

TEST(Metrics, TraceBufferSaturationCountsDropsAndStaysWellFormed) {
  // Shrink the cap so the test can overflow it quickly, then emit more
  // spans than fit: every span past the cap must count into
  // trace.droppedEvents while the trace JSON stays parseable with exactly
  // `cap` events.
  MetricsGuard g;
  constexpr size_t kCap = 1u << 16; // the emitted-C ring size, shrunk here
  constexpr size_t kEmit = kCap + 300;
  detail::setTraceCapForTest(kCap);
  for (size_t i = 0; i < kEmit; ++i) traceSpan("span", "test", i, 1);
  Snapshot s = snapshot();
  EXPECT_EQ(s.events.size(), kCap);
  EXPECT_EQ(s.droppedEvents, kEmit - kCap);

  std::string json = renderStatsJson(s);
  EXPECT_NE(json.find("\"trace.droppedEvents\": 300"), std::string::npos)
      << json;
  std::string report = renderTimeReport(s);
  EXPECT_NE(report.find("trace buffer saturated"), std::string::npos)
      << report;

  // The trace JSON itself stays well-formed at the cap: one event object
  // per retained span, array closed, trailing newline intact.
  std::string trace = renderTraceJson(s);
  size_t events = 0;
  for (size_t p = trace.find("\"ph\""); p != std::string::npos;
       p = trace.find("\"ph\"", p + 1))
    ++events;
  EXPECT_EQ(events, kCap);
  EXPECT_EQ(trace.back(), '\n');
  EXPECT_NE(trace.find("\n],"), std::string::npos);
}

TEST(Metrics, DroppedEventsRowOmittedWhenZero) {
  MetricsGuard g;
  traceSpan("span", "test", 0, 1);
  std::string json = renderStatsJson(snapshot());
  EXPECT_EQ(json.find("trace.droppedEvents"), std::string::npos) << json;
}

// --- continuous export (ISSUE 10 pillar 4) --------------------------------

TEST(Metrics, IntervalExportWritesJsonlDeltas) {
  MetricsGuard g;
  std::string path = ::testing::TempDir() + "mmx_metrics_export_test.jsonl";
  counter("test.export.counter").add(5);
  ASSERT_TRUE(startIntervalExport(path, 5));
  counter("test.export.counter").add(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stopIntervalExport();
  stopIntervalExport(); // idempotent

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  // Synchronous first line plus at least the final flush.
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines.front().find("\"export.seq\": 0"), std::string::npos)
      << lines.front();
  EXPECT_NE(lines.front().find("\"export.ts_ms\": "), std::string::npos);
  // The counter's 8 total ticks appear as deltas across the stream; every
  // line is one object on one line.
  uint64_t total = 0;
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    constexpr std::string_view kKey = "\"test.export.counter\": ";
    size_t p = line.find(kKey);
    if (p != std::string::npos)
      total += std::strtoull(line.c_str() + p + kKey.size(), nullptr, 10);
  }
  EXPECT_EQ(total, 8u);
  std::remove(path.c_str());
}

TEST(Metrics, IntervalExportRejectsUnwritablePath) {
  MetricsGuard g;
  EXPECT_FALSE(startIntervalExport("/nonexistent-dir/x/y/z.jsonl", 5));
  stopIntervalExport(); // harmless when nothing started
}

// --- crash snapshot writer (ISSUE 10 pillar 3) ----------------------------

#if defined(__unix__) || defined(__APPLE__)
TEST(Metrics, WriteCrashJsonSnapshotsRegistryWithoutLocks) {
  MetricsGuard g;
  counter("test.crash.counter").add(7);
  timer("test.crash.phase").record(1234);
  histogram("test.crash.hist").record(9);
  traceSpan("crash-span", "test", 0, 5);

  std::string path = ::testing::TempDir() + "mmx_metrics_crash_test.json";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  void* frames[2];
  frames[0] = reinterpret_cast<void*>(&enable);
  frames[1] = nullptr;
  writeCrashJson(fd, 11, "SIGSEGV", frames, 1);
  ::close(fd);

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string json = ss.str();
  EXPECT_NE(json.find("\"crash.signal\": 11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"crash.signalName\": \"SIGSEGV\""),
            std::string::npos);
  EXPECT_NE(json.find("\"test.crash.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.crash.phase.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.crash.hist.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.crash.hist.sum\": 9"), std::string::npos);
  EXPECT_NE(json.find("crash-span"), std::string::npos);
  EXPECT_NE(json.find("\"backtrace\": ["), std::string::npos);
  EXPECT_NE(json.find("\"events\": ["), std::string::npos);
  // Balanced object: opens with '{', the last non-whitespace char is '}'.
  EXPECT_EQ(json.front(), '{');
  size_t lastNonWs = json.find_last_not_of(" \n\t");
  ASSERT_NE(lastNonWs, std::string::npos);
  EXPECT_EQ(json[lastNonWs], '}');
  std::remove(path.c_str());
}
#endif

} // namespace
} // namespace mmx::metrics
