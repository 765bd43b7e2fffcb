// CompilerInvocation: the declarative flag table behind mmc. Parsing,
// defaulting, error paths, and the generated help text.
#include "driver/invocation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mmx::driver {
namespace {

CompilerInvocation::ParseResult parse(CompilerInvocation& inv,
                                      std::vector<const char*> args) {
  args.insert(args.begin(), "mmc");
  return inv.parseArgv(static_cast<int>(args.size()), args.data());
}

TEST(CompilerInvocation, DefaultsMatchTranslateOptions) {
  CompilerInvocation inv;
  auto r = parse(inv, {"prog.xc"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(inv.inputPath, "prog.xc");
  EXPECT_TRUE(inv.opts.fusion);
  EXPECT_TRUE(inv.opts.sliceElimination);
  EXPECT_TRUE(inv.opts.autoParallel);
  EXPECT_TRUE(inv.opts.warnParallel);
  EXPECT_FALSE(inv.opts.strictParallel);
  EXPECT_EQ(inv.threads, 1u);
  EXPECT_FALSE(inv.emitIr);
  EXPECT_FALSE(inv.metricsRequested());
}

TEST(CompilerInvocation, AblationFlagsMapOntoOptions) {
  CompilerInvocation inv;
  auto r = parse(inv, {"p.xc", "--no-fusion", "--no-slice-elim",
                       "--no-parallel", "--strict-parallel", "-Wno-parallel"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(inv.opts.fusion);
  EXPECT_FALSE(inv.opts.sliceElimination);
  EXPECT_FALSE(inv.opts.autoParallel);
  EXPECT_FALSE(inv.opts.warnParallel);
  EXPECT_TRUE(inv.opts.strictParallel);
}

TEST(CompilerInvocation, ThreadsAndExecutorSelection) {
  CompilerInvocation inv;
  auto r = parse(inv, {"p.xc", "--threads", "4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(inv.threads, 4u);
  EXPECT_EQ(inv.runtimeConfig().make()->name(), "forkjoin");

  CompilerInvocation one;
  ASSERT_TRUE(parse(one, {"p.xc"}).ok);
  EXPECT_EQ(one.runtimeConfig().make()->name(), "serial");

  CompilerInvocation naive;
  ASSERT_TRUE(parse(naive, {"p.xc", "--threads", "4", "--executor",
                            "naive"}).ok);
  EXPECT_EQ(naive.runtimeConfig().make()->name(), "naive");
}

TEST(CompilerInvocation, ObservabilityFlags) {
  CompilerInvocation inv;
  auto r = parse(inv, {"p.xc", "--time-report", "--stats-json", "s.json",
                       "--trace-json", "t.json"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(inv.timeReport);
  EXPECT_EQ(inv.statsJsonPath, "s.json");
  EXPECT_EQ(inv.traceJsonPath, "t.json");
  EXPECT_TRUE(inv.metricsRequested());
}

TEST(CompilerInvocation, PerfCountersFlagImpliesMetrics) {
  // --perf-counters alone must light up the registry: its pmu.* rows land
  // there, and without metrics they would be sampled into the void.
  CompilerInvocation inv;
  EXPECT_FALSE(inv.perfCounters);
  auto r = parse(inv, {"p.xc", "--perf-counters"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(inv.perfCounters);
  EXPECT_TRUE(inv.metricsRequested());
}

TEST(CompilerInvocation, EqualsJoinedValuesParseLikeSeparateArgs) {
  CompilerInvocation inv;
  auto r = parse(inv, {"p.xc", "--stats-json=s.json", "--trace-json=t.json",
                       "--threads=8", "--bounds-checks=off"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(inv.statsJsonPath, "s.json");
  EXPECT_EQ(inv.traceJsonPath, "t.json");
  EXPECT_EQ(inv.threads, 8u);
  EXPECT_EQ(inv.opts.boundsChecks, ir::BoundsCheckMode::Off);

  // Joined values still validate...
  CompilerInvocation bad;
  EXPECT_FALSE(parse(bad, {"p.xc", "--threads=zero"}).ok);
  // ...valueless flags reject one...
  CompilerInvocation val;
  EXPECT_FALSE(parse(val, {"p.xc", "--time-report=yes"}).ok);
  // ...and a positional with '=' is not treated as a flag.
  CompilerInvocation pos;
  ASSERT_TRUE(parse(pos, {"a=b.xc"}).ok);
  EXPECT_EQ(pos.inputPath, "a=b.xc");
}

TEST(CompilerInvocation, InstrumentFlag) {
  CompilerInvocation inv;
  ASSERT_TRUE(parse(inv, {"p.xc"}).ok);
  EXPECT_EQ(inv.instrument, ir::InstrumentMode::Off);

  CompilerInvocation cnt;
  ASSERT_TRUE(parse(cnt, {"p.xc", "--instrument", "counters"}).ok);
  EXPECT_EQ(cnt.instrument, ir::InstrumentMode::Counters);

  CompilerInvocation trc;
  ASSERT_TRUE(parse(trc, {"p.xc", "--instrument=trace"}).ok);
  EXPECT_EQ(trc.instrument, ir::InstrumentMode::Trace);

  CompilerInvocation off;
  ASSERT_TRUE(parse(off, {"p.xc", "--instrument=off"}).ok);
  EXPECT_EQ(off.instrument, ir::InstrumentMode::Off);

  CompilerInvocation bad;
  EXPECT_FALSE(parse(bad, {"p.xc", "--instrument", "everything"}).ok);
}

TEST(CompilerInvocation, ErrorsOnUnknownFlagMissingValueExtraInput) {
  CompilerInvocation a;
  EXPECT_FALSE(parse(a, {"p.xc", "--frobnicate"}).ok);

  CompilerInvocation b;
  EXPECT_FALSE(parse(b, {"p.xc", "--threads"}).ok);

  CompilerInvocation c;
  EXPECT_FALSE(parse(c, {"p.xc", "q.xc"}).ok);

  CompilerInvocation d;
  EXPECT_FALSE(parse(d, {}).ok); // input required without --help

  CompilerInvocation e;
  EXPECT_FALSE(parse(e, {"p.xc", "--executor", "quantum"}).ok);

  CompilerInvocation f;
  EXPECT_FALSE(parse(f, {"p.xc", "--threads", "zero"}).ok);
}

TEST(CompilerInvocation, HelpWorksWithoutInput) {
  CompilerInvocation inv;
  auto r = parse(inv, {"--help"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(inv.showHelp);
}

TEST(CompilerInvocation, HelpTextListsEveryFlagOnce) {
  std::string help = CompilerInvocation::helpText();
  for (const char* flag :
       {"--emit-ir", "--emit-c", "--analyze", "--threads", "--executor",
        "--no-fusion", "--no-parallel", "--no-slice-elim", "--strict-parallel",
        "-Wparallel", "-Wno-parallel", "--time-report", "--stats-json",
        "--trace-json", "--instrument", "--backend", "--help"}) {
    size_t first = help.find(flag);
    EXPECT_NE(first, std::string::npos) << flag << " missing from help";
  }
}

TEST(CompilerInvocation, BackendFlagParsesBothArgvSpellings) {
  // ISSUE 7 bugfix: --backend must accept the =-joined and the
  // space-separated spelling alike.
  CompilerInvocation joined;
  auto r = parse(joined, {"p.xc", "--backend=sse"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(joined.backend, "sse");

  CompilerInvocation spaced;
  r = parse(spaced, {"p.xc", "--backend", "scalar"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(spaced.backend, "scalar");

  CompilerInvocation missing;
  r = parse(missing, {"p.xc", "--backend"});
  EXPECT_FALSE(r.ok);

  // Names are not validated at parse time (the driver renders a
  // structured diagnostic); any token is accepted into the field.
  CompilerInvocation unknown;
  r = parse(unknown, {"p.xc", "--backend=definitely-not-a-backend"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(unknown.backend, "definitely-not-a-backend");
}

TEST(CompilerInvocation, HelpListsRegisteredBackendNames) {
  std::string help = CompilerInvocation::helpText();
  for (const char* name : {"scalar", "sse", "avx", "avx2fma", "auto"})
    EXPECT_NE(help.find(name), std::string::npos)
        << name << " missing from --backend help";
}

TEST(CompilerInvocation, AllocFlagParsesBothArgvSpellings) {
  // ISSUE 9: --alloc selects the matrix allocator, mirroring --backend.
  CompilerInvocation joined;
  auto r = parse(joined, {"p.xc", "--alloc=arena"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(joined.alloc, "arena");

  CompilerInvocation spaced;
  r = parse(spaced, {"p.xc", "--alloc", "cache"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(spaced.alloc, "cache");

  CompilerInvocation dflt;
  ASSERT_TRUE(parse(dflt, {"p.xc"}).ok);
  EXPECT_EQ(dflt.alloc, "auto");

  CompilerInvocation missing;
  EXPECT_FALSE(parse(missing, {"p.xc", "--alloc"}).ok);

  // Like --backend, names validate in the driver (structured diagnostic
  // with the available list), not at argv-parse time.
  CompilerInvocation unknown;
  r = parse(unknown, {"p.xc", "--alloc=definitely-not-an-allocator"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(unknown.alloc, "definitely-not-an-allocator");
}

TEST(CompilerInvocation, HelpListsRegisteredAllocatorNames) {
  std::string help = CompilerInvocation::helpText();
  EXPECT_NE(help.find("--alloc"), std::string::npos);
  for (const char* name : {"system", "cache", "arena"})
    EXPECT_NE(help.find(name), std::string::npos)
        << name << " missing from --alloc help";
}

TEST(CompilerInvocation, RuntimeConfigCarriesAllocator) {
  CompilerInvocation inv;
  auto r = parse(inv, {"p.xc", "--alloc=cache"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(inv.runtimeConfig().alloc, "cache");

  CompilerInvocation dflt;
  ASSERT_TRUE(parse(dflt, {"p.xc"}).ok);
  EXPECT_EQ(dflt.runtimeConfig().alloc, "auto");
}

TEST(CompilerInvocation, RuntimeConfigCarriesBackendAndExecutor) {
  CompilerInvocation inv;
  auto r = parse(inv, {"p.xc", "--threads", "4", "--backend=scalar"});
  ASSERT_TRUE(r.ok) << r.error;
  rt::RuntimeConfig cfg = inv.runtimeConfig();
  EXPECT_EQ(cfg.executor, rt::ExecutorKind::ForkJoin);
  EXPECT_EQ(cfg.threads, 4u);
  EXPECT_EQ(cfg.backend, "scalar");

  CompilerInvocation dflt;
  ASSERT_TRUE(parse(dflt, {"p.xc"}).ok);
  rt::RuntimeConfig d = dflt.runtimeConfig();
  EXPECT_EQ(d.executor, rt::ExecutorKind::Serial);
  EXPECT_EQ(d.backend, "auto");
}

} // namespace
} // namespace mmx::driver
