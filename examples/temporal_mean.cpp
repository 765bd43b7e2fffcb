// The paper's recurring example (Fig. 1): per-point temporal mean of sea
// surface height, written in extended C, auto-parallelized, validated
// against the native oracle, and timed across thread counts.
//
//   ./build/examples/temporal_mean [nlat nlon ntime]
#include <chrono>
#include <iostream>

#include "driver/translator.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "interp/interp.hpp"
#include "runtime/backend.hpp"
#include "runtime/kernels.hpp"
#include "runtime/matio.hpp"
#include "runtime/ssh_synth.hpp"

static std::string program(int64_t nlat, int64_t nlon, int64_t ntime,
                           const std::string& out) {
  return R"(
int main() {
  Matrix float <3> mat = synthSsh()" +
         std::to_string(nlat) + ", " + std::to_string(nlon) + ", " +
         std::to_string(ntime) + R"(, 42, 6);
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p);
  writeMatrix(")" + out + R"(", means);
  return 0;
}
)";
}

int main(int argc, char** argv) {
  using namespace mmx;
  int64_t nlat = argc > 1 ? std::stoll(argv[1]) : 90;
  int64_t nlon = argc > 2 ? std::stoll(argv[2]) : 180;
  int64_t ntime = argc > 3 ? std::stoll(argv[3]) : 64;

  driver::Translator t;
  t.addExtension(ext_matrix::matrixExtension());
  if (!t.compose()) {
    std::cerr << t.renderComposeDiagnostics();
    return 1;
  }
  std::string out = "/tmp/temporal_means.mmx";
  auto res = t.translate("fig1.xc", program(nlat, nlon, ntime, out));
  if (!res.ok) {
    std::cerr << res.renderDiagnostics();
    return 1;
  }

  std::cout << "SSH field: " << nlat << "x" << nlon << "x" << ntime
            << " (synthetic; the paper used 721x1440x954 satellite data)\n";

  double base = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::unique_ptr<rt::Executor> exec = rt::makeExecutor(
        threads == 1 ? rt::ExecutorKind::Serial : rt::ExecutorKind::ForkJoin,
        threads);
    interp::Machine vm(*res.module, *exec);
    auto t0 = std::chrono::steady_clock::now();
    vm.runMain();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (threads == 1) base = ms;
    std::cout << "  threads=" << threads << "  " << ms << " ms  (speedup "
              << base / ms << "x)\n";
  }

  // Validate against the native kernel.
  rt::SshParams p;
  p.nlat = nlat;
  p.nlon = nlon;
  p.ntime = ntime;
  p.numEddies = 6;
  rt::Matrix ssh = rt::synthesizeSsh(p);
  rt::SerialExecutor ser;
  rt::Matrix sums, expect;
  rt::sumInnermost3D(ser, ssh, sums, true);
  rt::ew(ser, rt::BinOp::Div, sums, static_cast<float>(ntime), expect, true);
  rt::Matrix got = rt::readMatrixFile(out);
  std::cout << (got.equals(expect, 1e-3f)
                    ? "validation: extended-C means match the native oracle\n"
                    : "validation: MISMATCH against the native oracle!\n");
  return got.equals(expect, 1e-3f) ? 0 : 1;
}
