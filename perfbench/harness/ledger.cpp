// The traced per-layer run. Spans are recorded here, around the calls
// into each layer's public entry points, never inside the layers; the
// runtime layers below Machine::runMain are read through the counters
// they already export (metrics::snapshot). Compile-layer times are medians
// over kLedgerReps passes of the corpus with the metrics registry off, so
// Translator::translate does the same work as in a plain `mmc` run.
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <random>

#include "analysis/depend.hpp"
#include "analysis/parsafe.hpp"
#include "analysis/shapecheck.hpp"
#include "cminus/host_grammar.hpp"
#include "common.hpp"
#include "ext/fragment.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "interp/interp.hpp"
#include "ir/optimize.hpp"
#include "parse/lalr.hpp"
#include "parse/parser.hpp"
#include "support/metrics.hpp"

namespace pb {
namespace {

constexpr int kLedgerReps = 5;
constexpr int kRunReps = 3;

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written out as Chrome trace JSON when the run ends.
class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer& t, std::string name) : t_(t), idx_(t.open(std::move(name))) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& t_;
    size_t idx_;
  };

  size_t size() const { return spans_.size(); }

  /// Total duration, in ms, of the spans named `name` from index `first`.
  double totalMs(const std::string& name, size_t first) const {
    uint64_t ns = 0;
    for (size_t i = first; i < spans_.size(); ++i)
      if (spans_[i].name == name) ns += spans_[i].end - spans_[i].start;
    return ns / 1e6;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n")
          << JsonObject()
                 .str("name", s.name)
                 .str("ph", "X")
                 .num("ts", s.start / 1e3)
                 .num("dur", (s.end - s.start) / 1e3)
                 .num("pid", 1)
                 .num("tid", 1)
                 .raw("args", JsonObject().num("parent", s.parent).done())
                 .done();
    }
    out << "]}\n";
  }

private:
  struct Span {
    std::string name;
    int parent; // index of the enclosing span, -1 at the root
    uint64_t start, end;
  };
  size_t open(std::string name) {
    int parent = stack_.empty() ? -1 : int(stack_.back());
    spans_.push_back({std::move(name), parent, mmx::metrics::nowNs(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(size_t i) {
    spans_[i].end = mmx::metrics::nowNs();
    stack_.pop_back();
  }
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

size_t countStmts(const mmx::ir::Stmt* s) {
  if (!s) return 0;
  size_t n = s->k == mmx::ir::Stmt::K::Block ? 0 : 1;
  for (const auto& k : s->kids) n += countStmts(k.get());
  return n;
}

size_t countStmts(const mmx::ir::Module& m) {
  size_t n = 0;
  for (const auto& f : m.functions) n += countStmts(f->body.get());
  return n;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Counter and timer totals of the metrics registry, keyed like
/// --stats-json ("<timer>.ns", "<timer>.count").
std::map<std::string, double> registry() {
  std::map<std::string, double> out;
  auto snap = mmx::metrics::snapshot(true);
  for (const auto& c : snap.counters) out[c.name] = double(c.value);
  for (const auto& t : snap.timers) {
    out[t.name + ".ns"] = double(t.totalNs);
    out[t.name + ".count"] = double(t.count);
  }
  return out;
}

using Metrics = std::map<std::string, double>;

/// Compile layers over the corpus: compose split into its three steps,
/// then per program parse, lower, optimizer, the analyses and emit.
Metrics compileLedger(const std::vector<Program>& corpus, Tracer& tr) {
  auto inv0 = invocation({"-O0", "--emit-c"});
  auto inv1 = invocation({"-O1", "--emit-c"});
  std::map<std::string, std::vector<double>> reps;
  Metrics counts;
  for (int rep = 0; rep < kLedgerReps; ++rep) {
    size_t first = tr.size();
    Tracer::Scope pass(tr, "ledger.compile");
    mmx::grammar::Grammar g;
    {
      Tracer::Scope s(tr, "compose.grammar");
      auto host = mmx::cm::hostFragment();
      auto tuple = mmx::cm::tupleFragment();
      auto m = mmx::ext_matrix::matrixExtension()->grammarFragment();
      auto r = mmx::ext_refcount::refcountExtension()->grammarFragment();
      auto x = mmx::ext_transform::transformExtension()->grammarFragment();
      mmx::DiagnosticEngine d;
      if (!mmx::ext::composeGrammar({&host, &tuple, &m, &r, &x}, g, d))
        throw std::runtime_error("composeGrammar failed");
    }
    {
      Tracer::Scope s(tr, "compose.lalr");
      counts["compose.lalr_states"] =
          double(mmx::parse::LalrTables::build(g).stateCount());
    }
    {
      Tracer::Scope s(tr, "compose.parser");
      mmx::parse::Parser p(g);
    }
    std::unique_ptr<mmx::driver::Translator> t0 = composeTranslator(inv0.opts),
                                             t1;
    {
      Tracer::Scope s(tr, "compose.total");
      t1 = composeTranslator(inv1.opts);
    }
    Metrics c;
    double sourceBytes = 0, emitted = 0;
    mmx::analysis::ParSafeOptions po;
    po.warnParallel = false;
    for (const Program& p : corpus) {
      sourceBytes += p.source.size();
      mmx::DiagnosticEngine d;
      {
        mmx::SourceManager sm;
        mmx::FileId f = sm.add(p.name + ".xc", p.source);
        Tracer::Scope s(tr, "parse");
        if (!t0->parser()->parse(sm, f, d))
          throw std::runtime_error(p.name + ": parse failed");
      }
      mmx::driver::TranslateResult r0;
      {
        Tracer::Scope s(tr, "translate.O0");
        r0 = translateOrThrow(*t0, p);
      }
      c["ir.stmts"] += double(countStmts(*r0.module));
      {
        Tracer::Scope s(tr, "parsafe.O0");
        mmx::analysis::enforceParallelSafety(*r0.module, d, po);
      }
      {
        Tracer::Scope s(tr, "shapecheck.O0");
        mmx::ir::GuardPlan plan;
        mmx::analysis::checkShapes(*r0.module, plan, d);
      }
      mmx::ir::OptStats os;
      {
        Tracer::Scope s(tr, "optimizer");
        os = mmx::ir::optimizeModule(*r0.module, mmx::ir::OptOptions::o1());
      }
      c["optimizer.rewrites"] +=
          double(os.fused + os.tempsEliminated + os.inplaceConverted);
      c["autopar.promoted"] += double(os.autoparPromoted);
      c["autopar.blocked"] += double(os.autoparBlocked);

      mmx::driver::TranslateResult r1 = translateOrThrow(*t1, p);
      c["ir.stmts_o1"] += double(countStmts(*r1.module));
      {
        Tracer::Scope s(tr, "parsafe");
        mmx::analysis::enforceParallelSafety(*r1.module, d, po);
      }
      {
        Tracer::Scope s(tr, "shapecheck");
        mmx::ir::GuardPlan plan;
        auto st = mmx::analysis::checkShapes(*r1.module, plan, d);
        c["guards.elided"] += double(st.guardsSafe);
        c["guards.kept"] += double(st.guardsKept());
      }
      {
        Tracer::Scope s(tr, "depend");
        mmx::analysis::DependStats ds;
        mmx::analysis::Depend(*r1.module).analyzeModule(&ds);
        c["depend.unknown"] += double(ds.unknown);
      }
      {
        Tracer::Scope s(tr, "cemit");
        emitted += double(emitOrThrow(r1, inv1).size());
      }
    }
    auto ms = [&](const char* n) { return tr.totalMs(n, first); };
    auto& r = reps;
    r["compose.grammar_ms"].push_back(ms("compose.grammar"));
    r["compose.lalr_ms"].push_back(ms("compose.lalr"));
    r["compose.scanner_ms"].push_back(ms("compose.parser") - ms("compose.lalr"));
    r["compose.total_ms"].push_back(ms("compose.total"));
    r["parse.ms"].push_back(ms("parse"));
    r["parse.kb_per_s"].push_back(sourceBytes / 1024 / (ms("parse") / 1e3));
    r["lower.ms"].push_back(ms("translate.O0") - ms("parse") -
                            ms("parsafe.O0") - ms("shapecheck.O0"));
    r["optimizer.ms"].push_back(ms("optimizer"));
    r["parsafe.ms"].push_back(ms("parsafe"));
    r["shapecheck.ms"].push_back(ms("shapecheck"));
    r["depend.ms"].push_back(ms("depend"));
    r["cemit.ms"].push_back(ms("cemit"));
    counts["cemit.kb"] = emitted / 1024;
    counts["ir.stmts"] = c["ir.stmts"];
    counts["ir.stmts_o1"] = c["ir.stmts_o1"];
    counts["optimizer.rewrites"] = c["optimizer.rewrites"];
    counts["optimizer.autopar_ratio"] =
        ratio(c["autopar.promoted"], c["autopar.promoted"] + c["autopar.blocked"]);
    counts["shapecheck.elided_ratio"] =
        ratio(c["guards.elided"], c["guards.elided"] + c["guards.kept"]);
    counts["depend.unknown"] = c["depend.unknown"];
  }
  Metrics out = counts;
  for (const auto& [name, v] : reps) out[name] = median(v);
  return out;
}

/// Interpreter and runtime layers: untraced run time per program, then one
/// run with the metrics registry on for the runtime counters.
Metrics interpLedger(const std::vector<Compiled>& progs,
                     mmx::rt::Executor& exec, Tracer& tr, JsonObject& outs) {
  Metrics m, sum;
  for (const Compiled& c : progs) {
    runProgram(c, exec); // warm-up
    std::vector<double> runs;
    for (int i = 0; i < kRunReps; ++i) {
      auto t0 = Clock::now();
      runProgram(c, exec);
      runs.push_back(secondsSince(t0) * 1e3);
    }
    m["interp.run_ms." + c.name] = median(runs);

    mmx::metrics::enable(true);
    auto before = registry();
    {
      Tracer::Scope s(tr, "interp." + c.name);
      outs.str(c.name, runProgram(c, exec));
    }
    auto after = registry();
    mmx::metrics::enable(false);
    auto d = [&](const std::string& k) { return after[k] - before[k]; };
    m["interp.stmts." + c.name] = d("interp.stmts");
    m["memsys.allocs." + c.name] = d("rt.alloc.count");
    for (const char* k :
         {"rt.alloc.bytes", "rt.alloc.cache.hits", "rt.alloc.cache.misses",
          "pool.regions", "pool.inlinedDispatches", "pool.worker.work_ns",
          "pool.worker.spin_ns", "pool.stopwait_ns", "kernel.matmul.ns",
          "kernel.matmul.count"})
      sum[k] += d(k);
  }
  m["memsys.alloc_mb"] = sum["rt.alloc.bytes"] / (1 << 20);
  m["memsys.cache_hit_ratio"] =
      ratio(sum["rt.alloc.cache.hits"],
            sum["rt.alloc.cache.hits"] + sum["rt.alloc.cache.misses"]);
  m["pool.regions"] = sum["pool.regions"];
  m["pool.inlined_ratio"] =
      ratio(sum["pool.inlinedDispatches"],
            sum["pool.inlinedDispatches"] + sum["pool.regions"]);
  m["pool.busy_ratio"] =
      ratio(sum["pool.worker.work_ns"],
            sum["pool.worker.work_ns"] + sum["pool.worker.spin_ns"]);
  m["pool.stopwait_ms"] = sum["pool.stopwait_ns"] / 1e6;
  m["kernel.matmul_ms"] = sum["kernel.matmul.ns"] / 1e6;
  m["kernel.matmul_count"] = sum["kernel.matmul.count"];
  return m;
}

/// Alternates traced and untraced in-process ops for `seconds`. Traced
/// ops turn the metrics registry on and record a span per program.
template <class Op>
Metrics tracedOps(double seconds, Tracer& tr, Op op, int& attempted,
                  int& failed) {
  std::vector<double> traced, plain;
  auto start = Clock::now();
  while (secondsSince(start) < seconds) {
    for (bool on : {true, false}) {
      mmx::metrics::enable(on);
      auto t0 = Clock::now();
      ++attempted;
      try {
        op(on ? &tr : nullptr);
      } catch (const std::exception& e) {
        std::cerr << "mmbench: traced op failed: " << e.what() << "\n";
        ++failed;
      }
      (on ? traced : plain).push_back(secondsSince(t0) * 1e3);
    }
  }
  mmx::metrics::enable(false);
  double t = median(traced), u = median(plain);
  return {{"trace.op_ms", t},
          {"trace.untraced_op_ms", u},
          {"trace.overhead_ratio", ratio(t, u)}};
}

} // namespace

int ledgerCommand(const Args& a) {
  Tracer tr;
  std::vector<Program> all = corpus(a.seed);
  Metrics m = compileLedger(all, tr);

  auto inv = invocation({"-O1", "--threads", std::to_string(a.threads)});
  auto t1 = composeTranslator(inv.opts);
  std::vector<Compiled> progs;
  for (const Program& p : all)
    if (p.runnable) progs.push_back({p.name, translateOrThrow(*t1, p)});
  auto exec = inv.runtimeConfig().make();
  JsonObject outs;
  m.merge(interpLedger(progs, *exec, tr, outs));

  int attempted = 0, failed = 0;
  std::mt19937_64 rng(a.seed);
  if (a.workload == "compile") {
    std::vector<Program> order = all;
    m.merge(tracedOps(a.seconds, tr, [&](Tracer* t) {
      std::shuffle(order.begin(), order.end(), rng);
      for (const Program& p : order) {
        std::optional<Tracer::Scope> s;
        if (t) s.emplace(*t, "op." + p.name);
        auto tp = composeTranslator(inv.opts);
        emitOrThrow(translateOrThrow(*tp, p), inv);
      }
    }, attempted, failed));
  } else if (a.workload == "interp") {
    std::vector<size_t> order(progs.size());
    std::iota(order.begin(), order.end(), 0);
    m.merge(tracedOps(a.seconds, tr, [&](Tracer* t) {
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t i : order) {
        std::optional<Tracer::Scope> s;
        if (t) s.emplace(*t, "op." + progs[i].name);
        runProgram(progs[i], *exec);
      }
    }, attempted, failed));
  }
  tr.write(a.dir + "/spans.json");

  JsonObject metrics;
  for (const auto& [name, v] : m) metrics.num(name, v);
  std::cout << JsonObject()
                   .raw("metrics", metrics.done())
                   .raw("outs", outs.done())
                   .num("attempted", attempted)
                   .num("failed", failed)
                   .done()
            << "\n";
  return 0;
}

} // namespace pb
