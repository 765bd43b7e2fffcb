// Every shipped example (examples/xc/*.xc) runs on the interpreter the way
// `mmc <file> <flag> --threads <t>` runs it, with -O0, -O1, --opt=autopar
// alone and each --alloc strategy, on 1 and 8 threads. Each configuration
// must exit 0, and all of them must print the same stdout.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/invocation.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "interp/interp.hpp"

namespace mmx::driver {
namespace {

std::vector<std::string> exampleNames() {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(MMX_EXAMPLES_DIR))
    if (e.path().extension() == ".xc")
      names.push_back(e.path().stem().string());
  std::sort(names.begin(), names.end());
  return names;
}

struct Outcome {
  int exitCode = -1;
  std::string output;
  std::string error; // diagnostics or the runtime error
};

/// Translates and interprets `path` as `mmc path <flags...>` does.
Outcome runLikeMmc(const std::string& path, std::vector<const char*> flags) {
  Outcome out;
  CompilerInvocation inv;
  flags.insert(flags.begin(), {"mmc", path.c_str()});
  if (auto parsed = inv.parseArgv(int(flags.size()), flags.data()); !parsed.ok) {
    out.error = parsed.error;
    return out;
  }
  std::ifstream in(path);
  std::stringstream src;
  src << in.rdbuf();
  Translator t;
  t.addExtension(ext_matrix::matrixExtension());
  t.addExtension(ext_refcount::refcountExtension());
  t.addExtension(ext_transform::transformExtension());
  if (!t.compose(inv.opts)) {
    out.error = t.renderComposeDiagnostics();
    return out;
  }
  auto res = t.translate(path, src.str());
  if (!res.ok) {
    out.exitCode = 1;
    out.error = res.renderDiagnostics();
    return out;
  }
  try {
    std::unique_ptr<rt::Executor> exec = inv.runtimeConfig().make();
    interp::Machine vm(*res.module, *exec);
    vm.setBoundsChecks(res.boundsChecks, res.guardPlan);
    out.exitCode = vm.runMain();
    out.output = vm.output();
  } catch (const std::exception& e) {
    out.exitCode = 3;
    out.error = e.what();
  }
  return out;
}

class Example : public ::testing::TestWithParam<std::string> {};

TEST_P(Example, InterpAgreesAcrossOptLevelsAndThreads) {
  const std::string path =
      std::string(MMX_EXAMPLES_DIR) + "/" + GetParam() + ".xc";
  const Outcome base = runLikeMmc(path, {"-O0", "--threads", "1"});
  EXPECT_EQ(base.exitCode, 0) << "-O0 --threads 1: " << base.error;
  EXPECT_FALSE(base.output.empty());
  // runtimeConfig().make() applies --alloc process-wide, so each run
  // allocates from the strategy it names (and "auto" re-arms the default).
  for (const char* flag : {"-O0", "-O1", "--opt=autopar", "--alloc=system",
                           "--alloc=cache", "--alloc=arena"}) {
    for (const char* threads : {"1", "8"}) {
      const Outcome r = runLikeMmc(path, {flag, "--threads", threads});
      EXPECT_EQ(r.exitCode, 0)
          << flag << " --threads " << threads << ": " << r.error;
      EXPECT_EQ(r.output, base.output) << flag << " --threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, Example,
                         ::testing::ValuesIn(exampleNames()),
                         [](const auto& info) { return info.param; });

} // namespace
} // namespace mmx::driver
