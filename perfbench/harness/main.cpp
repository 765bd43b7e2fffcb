// mmbench: the in-process half of the repo benchmark; perfbench/run.py
// calls it. Commands:
//   gen    --seed N --dir D --scale K
//          write the seeded inputs (scale K) and the six programs
//   refs   --dir D            write the oracle checksums as refs.json
//   host   --dir D            print the active kernel backend and allocator
//   interp --seed N --dir D --seconds S --threads T --setups R
//          --setup-seconds U
//          the `interp` workload: set up at least R times and U seconds,
//          then run ops
//   ledger --seed N --dir D --seconds S --threads T --workload W
//          the traced per-layer run (ledger.cpp)
// Each prints one JSON object on stdout; run.py checks the outputs.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>

#include "common.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "interp/interp.hpp"
#include "ir/cemit.hpp"
#include "oracle.hpp"
#include "runtime/backend.hpp"
#include "runtime/memsys.hpp"

namespace pb {

mmx::driver::CompilerInvocation invocation(std::vector<std::string> args) {
  args.insert(args.begin(), {"mmc", "program.xc"});
  std::vector<const char*> argv;
  for (const std::string& s : args) argv.push_back(s.c_str());
  mmx::driver::CompilerInvocation inv;
  auto parsed = inv.parseArgv(int(argv.size()), argv.data());
  if (!parsed.ok) throw std::runtime_error("mmc flags: " + parsed.error);
  return inv;
}

std::unique_ptr<mmx::driver::Translator>
composeTranslator(const mmx::driver::TranslateOptions& opts) {
  auto t = std::make_unique<mmx::driver::Translator>();
  t->addExtension(mmx::ext_matrix::matrixExtension());
  t->addExtension(mmx::ext_refcount::refcountExtension());
  t->addExtension(mmx::ext_transform::transformExtension());
  if (!t->compose(opts))
    throw std::runtime_error("compose: " + t->renderComposeDiagnostics());
  return t;
}

mmx::driver::TranslateResult translateOrThrow(mmx::driver::Translator& t,
                                              const Program& p) {
  auto res = t.translate(p.name + ".xc", p.source);
  if (!res.ok)
    throw std::runtime_error(p.name + ": " + res.renderDiagnostics());
  return res;
}

std::string emitOrThrow(const mmx::driver::TranslateResult& res,
                        const mmx::driver::CompilerInvocation& inv) {
  mmx::ir::CEmitOptions eo;
  eo.boundsChecks = res.boundsChecks;
  eo.plan = res.guardPlan;
  eo.instrument = inv.instrument;
  eo.sourceManager = res.sourceManager;
  eo.backend = inv.backend;
  eo.alloc = inv.alloc;
  auto c = mmx::ir::emitC(*res.module, eo);
  if (!c.ok) throw std::runtime_error("emit: " + c.errors.front());
  return std::move(c.code);
}

std::string runProgram(const Compiled& c, mmx::rt::Executor& exec) {
  mmx::interp::Machine vm(*c.res.module, exec);
  vm.setBoundsChecks(c.res.boundsChecks, c.res.guardPlan);
  if (int code = vm.runMain(); code != 0)
    throw std::runtime_error("main returned " + std::to_string(code));
  return vm.output();
}

long peakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += jsonString(k) + ": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return raw(k, buf);
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  return raw(k, jsonString(v));
}

JsonObject& JsonObject::nums(const std::string& k,
                             const std::vector<double>& v) {
  std::string a = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
    a += buf;
  }
  return raw(k, a + "]");
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

namespace {

/// The `interp` workload. Set-up (inputs, compose, translate at -O1, pool)
/// runs at least `a.setups` times and for at least `a.setupSeconds`; each
/// op runs every runnable program once in a seeded order.
int interpCommand(const Args& a) {
  auto inv = invocation({"-O1", "--threads", std::to_string(a.threads)});
  std::vector<double> setups;
  std::vector<Compiled> progs;
  std::unique_ptr<mmx::rt::Executor> exec;
  for (auto start = Clock::now();
       int(setups.size()) < a.setups || secondsSince(start) < a.setupSeconds;) {
    progs.clear();
    exec.reset();
    auto t0 = Clock::now();
    writeInputs(a.seed, 1, a.dir);
    std::vector<Program> all = corpus(a.seed);
    writePrograms(all, a.dir);
    auto tr = composeTranslator(inv.opts);
    for (const Program& p : all)
      if (p.runnable) progs.push_back({p.name, translateOrThrow(*tr, p)});
    exec = inv.runtimeConfig().make();
    setups.push_back(secondsSince(t0));
  }
  writeReferences(references(a.dir), a.dir);

  std::mt19937_64 rng(a.seed);
  std::vector<size_t> order(progs.size());
  std::iota(order.begin(), order.end(), 0);
  auto op = [&] {
    std::shuffle(order.begin(), order.end(), rng);
    JsonObject outs;
    auto t0 = Clock::now();
    for (size_t i : order) {
      try {
        outs.str(progs[i].name, runProgram(progs[i], *exec));
      } catch (const std::exception& e) {
        outs.str(progs[i].name, std::string("error: ") + e.what());
      }
    }
    double ms = secondsSince(t0) * 1e3;
    return JsonObject().num("ms", ms).raw("outs", outs.done()).done();
  };
  op(); // warm-up: first-touch of the pool, allocator caches and inputs
  std::string ops;
  auto start = Clock::now();
  while (secondsSince(start) < a.seconds) ops += (ops.empty() ? "" : ", ") + op();

  double emitted = 0;
  for (const Compiled& c : progs) emitted += emitOrThrow(c.res, inv).size();
  std::cout << JsonObject()
                   .nums("setup_s", setups)
                   .raw("ops", "[" + ops + "]")
                   .num("peak_rss_kb", double(peakRssKb()))
                   .num("emitted_c_bytes", emitted)
                   .done()
            << "\n";
  return 0;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: mmbench <command> [options]");
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--dir") a.dir = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--threads") a.threads = unsigned(std::stoul(v));
    else if (k == "--setups") a.setups = std::stoi(v);
    else if (k == "--setup-seconds") a.setupSeconds = std::stod(v);
    else if (k == "--scale") a.scale = std::stoi(v);
    else if (k == "--workload") a.workload = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.dir.empty()) throw std::runtime_error("--dir is required");
  return a;
}

} // namespace
} // namespace pb

int main(int argc, char** argv) {
  try {
    pb::Args a = pb::parseArgs(argc, argv);
    // Programs name their inputs by relative path.
    if (chdir(a.dir.c_str()) != 0)
      throw std::runtime_error("cannot enter " + a.dir);
    if (a.command == "gen") {
      pb::writeInputs(a.seed, a.scale, a.dir);
      pb::writePrograms(pb::corpus(a.seed), a.dir);
      return 0;
    }
    if (a.command == "refs") {
      pb::writeReferences(pb::references(a.dir), a.dir);
      return 0;
    }
    if (a.command == "host") {
      std::cout << pb::JsonObject()
                       .str("backend",
                            std::string(mmx::rt::activeBackend().name()))
                       .str("alloc", std::string(mmx::rt::allocatorName(
                                         mmx::rt::activeAllocator())))
                       .done()
                << "\n";
      return 0;
    }
    if (a.command == "interp") return pb::interpCommand(a);
    if (a.command == "ledger") return pb::ledgerCommand(a);
    throw std::runtime_error("unknown command " + a.command);
  } catch (const std::exception& e) {
    std::cerr << "mmbench: " << e.what() << "\n";
    return 1;
  }
}
