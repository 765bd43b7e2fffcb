// Tests for the crash-safe flight recorder and the PMU sampling layer
// (ISSUE 10 pillars 2 and 3). The recorder is exercised through a real
// SIGSEGV/SIGABRT in a gtest death-test child; the parent then inspects
// the dump the dying process left behind. PMU tests accept both outcomes
// — a real sample on capable hosts, the presence-only pmu.skipped counter
// everywhere else (containers and CI usually deny perf_event_open).
#include "support/crash.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/metrics.hpp"
#include "support/perf.hpp"

namespace mmx {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

#if defined(__unix__) || defined(__APPLE__)

class CrashRecorderTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Death-test children may coexist with harness threads (the interval
    // exporter, pool workers from earlier suites).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

/// Populates the registry and crashes through an armed recorder; run
/// inside a death-test child so the parent survives to read the dump.
[[noreturn]] void crashWithRecorder(const std::string& path, int how) {
  metrics::enable(true);
  metrics::counter("crash.test.counter").add(3);
  metrics::histogram("crash.test.hist").record(17);
  metrics::traceSpan("crash-test-span", "test", 0, 7);
  crash::install(path.c_str());
  if (how == 0) {
    volatile int* p = nullptr;
    *p = 42; // SIGSEGV
  }
  std::abort(); // SIGABRT
}

TEST_F(CrashRecorderTest, SegvDumpsCountersSpansAndBacktrace) {
  std::string path = ::testing::TempDir() + "mmx_crash_segv.json";
  std::remove(path.c_str());
  EXPECT_DEATH(crashWithRecorder(path, 0), "");
  std::string json = readFile(path);
  ASSERT_FALSE(json.empty()) << "handler did not write " << path;
  EXPECT_NE(json.find("\"crash.signal\": 11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"crash.signalName\": \"SIGSEGV\""),
            std::string::npos);
  EXPECT_NE(json.find("\"crash.test.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"crash.test.hist.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("crash-test-span"), std::string::npos);
  EXPECT_NE(json.find("\"backtrace\": ["), std::string::npos);
  // Complete document: the handler reached the closing brace.
  size_t lastNonWs = json.find_last_not_of(" \n\t");
  ASSERT_NE(lastNonWs, std::string::npos);
  EXPECT_EQ(json[lastNonWs], '}');
  std::remove(path.c_str());
}

TEST_F(CrashRecorderTest, AbortDumpsSigabrt) {
  std::string path = ::testing::TempDir() + "mmx_crash_abort.json";
  std::remove(path.c_str());
  EXPECT_DEATH(crashWithRecorder(path, 1), "");
  std::string json = readFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"crash.signalName\": \"SIGABRT\""),
            std::string::npos)
      << json;
  std::remove(path.c_str());
}

TEST_F(CrashRecorderTest, InstallFromEnvWithoutVarIsNoop) {
  ::unsetenv("MMX_CRASH_JSON");
  EXPECT_FALSE(crash::installFromEnv());
}

TEST_F(CrashRecorderTest, InstallFromEnvArmsRecorderInChild) {
  std::string path = ::testing::TempDir() + "mmx_crash_env.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        ::setenv("MMX_CRASH_JSON", path.c_str(), 1);
        if (!crash::installFromEnv()) _exit(97); // wrong kind of death
        volatile int* p = nullptr;
        *p = 1;
      },
      "");
  std::string json = readFile(path);
  EXPECT_NE(json.find("\"crash.signal\": 11"), std::string::npos) << json;
  std::remove(path.c_str());
}

#endif // __unix__ || __APPLE__

TEST(Perf, NotRequestedByDefault) { EXPECT_FALSE(perf::requested()); }

TEST(Perf, SamplesOrSkipsGracefully) {
  metrics::enable(true);
  metrics::reset();
  perf::setRequested(true);
  if (perf::begin()) {
    // Capable host: a measured busy loop must read back a live sample.
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i * 0.5;
    perf::Sample s = perf::end();
    EXPECT_TRUE(s.ok);
    EXPECT_GT(s.instructions, 0u);
  } else {
    // Denied host (typical in containers): the only trace is the
    // presence-only skip counter — no error, no partial rows.
    metrics::Snapshot snap = metrics::snapshot();
    uint64_t skipped = 0;
    for (const auto& c : snap.counters)
      if (c.name == "pmu.skipped") skipped = c.value;
    EXPECT_GE(skipped, 1u);
    EXPECT_FALSE(perf::available());
  }
  perf::setRequested(false);
  metrics::reset();
  metrics::enable(false);
}

TEST(Perf, RepeatBeginEndIsStable) {
  // Whatever the host supports, begin/end pairs must stay cheap and
  // consistent: the state machine never flips between open and denied.
  bool first = perf::begin();
  perf::end();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(perf::begin(), first);
    perf::Sample s = perf::end();
    EXPECT_EQ(s.ok, first);
  }
}

} // namespace
} // namespace mmx
