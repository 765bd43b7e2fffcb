// Helpers shared by the harness commands: clocks, the translator mmc
// builds, and a small JSON object writer for run.py to read.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/invocation.hpp"
#include "driver/translator.hpp"
#include "programs.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by the harness commands.
struct Args {
  std::string command;     // gen | refs | host | interp | ledger
  std::string dir;         // work directory holding inputs and programs
  uint64_t seed = 1;
  double seconds = 10;     // measured duration of an op loop
  unsigned threads = 1;    // pool size
  int setups = 1;          // interp: least set-up repetitions
  double setupSeconds = 0; // interp: least time spent setting up
  int scale = 1;           // gen: input scale (see writeInputs)
  std::string workload;    // ledger: whose in-process op to trace
};

/// Per-layer ledger: times each layer's public entry points over the
/// corpus in `args.dir` and prints one JSON object of metrics.
int ledgerCommand(const Args& args);

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// The invocation `mmc <args>` would run, parsed by mmc's own flag table
/// (so "-O1" here means exactly what it means on the command line).
mmx::driver::CompilerInvocation invocation(std::vector<std::string> args);

/// A translator over mmc's extension set, composed with `opts`.
std::unique_ptr<mmx::driver::Translator>
composeTranslator(const mmx::driver::TranslateOptions& opts);

/// Translates `p`; throws with the rendered diagnostics on failure.
mmx::driver::TranslateResult translateOrThrow(mmx::driver::Translator& t,
                                              const Program& p);

/// Emits C the way `mmc --emit-c` does for `res`.
std::string emitOrThrow(const mmx::driver::TranslateResult& res,
                        const mmx::driver::CompilerInvocation& inv);

/// A runnable program translated once, for repeated interpreter runs.
struct Compiled {
  std::string name;
  mmx::driver::TranslateResult res;
};

/// Runs main() of `c` on `exec` the way `mmc` does (honouring the
/// translation's bounds-check plan); returns its output, or throws.
std::string runProgram(const Compiled& c, mmx::rt::Executor& exec);

/// Peak resident set of this process, in KiB.
long peakRssKb();

std::string jsonString(const std::string& s);

/// Builds one flat JSON object, in insertion order.
class JsonObject {
public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

private:
  void key(const std::string& k);
  std::string body_;
};

} // namespace pb
