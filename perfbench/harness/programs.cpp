#include "programs.hpp"

#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>

#include "runtime/matio.hpp"
#include "runtime/ssh_synth.hpp"

namespace pb {
namespace {

// Input sizes at scale 1. The tmean field (64x96x96 f32 = 2.25 MiB) is
// larger than one core's 2 MiB L2; the chain/hostloop plane (32 KiB)
// stays inside it at every scale.
constexpr int64_t kFieldLat = 64, kFieldLon = 96, kFieldTime = 96;
constexpr int64_t kEddyLat = 16, kEddyLon = 32, kEddyTime = 64;
constexpr int64_t kPlaneRows = 64, kPlaneCols = 128;
constexpr int64_t kMatN = 256;
// Kernels replicated into `large`.
constexpr int kLargeKernels = 30;

const char* kTmean = R"(// Fig. 1: per-point temporal mean over a field larger than L2.
int main() {
  Matrix float <3> mat = readMatrix("field.mmx");
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p);
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, means[x,y]));
  return 0;
}
)";

// Fig. 8 scoring functions; `large` replicates them under renamed
// identifiers, so they are kept apart from eddy's main().
std::string eddyFunctions(const std::string& sfx) {
  return R"(
(Matrix float <1>, int, int) getTrough)" + sfx +
         R"((Matrix float <1> ts, int i) {
  int beginning = i;
  int n = dimSize(ts, 0);
  while (i + 1 < n && ts[i] >= ts[i + 1]) { i = i + 1; }
  while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }
  return (ts[beginning : i], beginning, i);
}
Matrix float <1> computeArea)" + sfx +
         R"((Matrix float <1> areaOfInterest) {
  float y1 = areaOfInterest[0];
  float y2 = areaOfInterest[end];
  int x2 = dimSize(areaOfInterest, 0) - 1;
  float slope = 0.0;
  if (x2 > 0) { slope = (y1 - y2) / ((float)(0 - x2)); }
  float b = y1;
  Matrix float <1> Line = (0 :: x2) * slope + b;
  float area = with ([0] <= [q] < [dimSize(Line, 0)])
      fold(+, 0.0, Line[q] - areaOfInterest[q]);
  return with ([0] <= [q] < [dimSize(Line, 0)])
      genarray([dimSize(Line, 0)], area);
}
Matrix float <1> scoreTS)" + sfx +
         R"((Matrix float <1> ts) {
  Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
  int i = 0;
  int n = dimSize(ts, 0);
  while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }
  Matrix float <1> trough = init(Matrix float <1>, 1);
  int beginning = 0;
  while (i < n - 1) {
    (trough, beginning, i) = getTrough)" + sfx + R"((ts, i);
    if (i <= beginning) { return scores; }
    scores[beginning : i] = computeArea)" + sfx + R"((trough);
  }
  return scores;
}
)";
}

std::string eddyProgram() {
  return "// Fig. 8: matrixMap(scoreTS) over every point's time series.\n" +
         eddyFunctions("") + R"(
int main() {
  Matrix float <3> data = readMatrix("eddy.mmx");
  Matrix float <3> scores = matrixMap(scoreTS, data, [2]);
  int a = dimSize(scores, 0);
  int b = dimSize(scores, 1);
  int c = dimSize(scores, 2);
  printFloat(with ([0,0,0] <= [x,y,z] < [a,b,c]) fold(+, 0.0, scores[x,y,z]));
  return 0;
}
)";
}

const char* kChain = R"(// Elementwise with-loop chain: -O1 fuses tmp away and updates out in place.
int main() {
  Matrix float <2> base = readMatrix("plane.mmx");
  int m = dimSize(base, 0);
  int n = dimSize(base, 1);
  Matrix float <2> out = init(Matrix float <2>, m, n);
  for (int rep = 0; rep < 20; rep++) {
    Matrix float <2> tmp = with ([0,0] <= [i,j] < [m,n])
        genarray([m,n], base[i, j] * 2.0 + 1.0);
    out = with ([0,0] <= [i,j] < [m,n])
        genarray([m,n], tmp[i, j] + rep * 1.0);
  }
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, out[x,y]));
  return 0;
}
)";

const char* kHostloop = R"(// Host for-nest: -O1 autopar promotes the row loop, the rep loop stays serial.
int main() {
  Matrix float <2> base = readMatrix("plane.mmx");
  int m = dimSize(base, 0);
  int n = dimSize(base, 1);
  Matrix float <2> out = init(Matrix float <2>, m, n);
  for (int rep = 0; rep < 20; rep++) {
    for (int i = 0; i < m; i++) {
      for (int j = 0; j < n; j++) {
        float s = base[i, j] * 2.0 + rep * 1.0;
        out[i, j] = s + base[i, j] * 0.25;
      }
    }
  }
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, out[x,y]));
  return 0;
}
)";

const char* kMatmul = R"(// Matrix product followed by a fold.
int main() {
  Matrix float <2> a = readMatrix("a.mmx");
  Matrix float <2> b = readMatrix("b.mmx");
  int n = dimSize(a, 0);
  int q = dimSize(b, 1);
  Matrix float <2> c = a * b;
  printFloat(with ([0,0] <= [x,y] < [n,q]) fold(+, 0.0, c[x, y]));
  return 0;
}
)";

/// One renamed kernel of `large`: the body of one runnable program as a
/// function returning its checksum, with seeded constants. Returns the
/// call main() makes.
std::string largeKernel(int k, int kind, std::mt19937_64& rng,
                        std::string& defs) {
  std::string K = std::to_string(k);
  std::string c1 = std::to_string(1 + rng() % 9) + ".0";
  std::string c2 = std::to_string(1 + rng() % 9) + ".5";
  std::string reps = std::to_string(10 + rng() % 90);
  switch (kind) {
  case 0:
    defs += R"(
float tmean)" + K + R"((Matrix float <3> mat) {
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k] * )" + c1 + R"()) / p);
  return with ([0,0] <= [x,y] < [m,n]) fold(+, )" + c2 + R"(, means[x,y]);
}
)";
    return "tmean" + K + "(field)";
  case 1:
    defs += R"(
float chain)" + K + R"((Matrix float <2> base) {
  int m = dimSize(base, 0);
  int n = dimSize(base, 1);
  Matrix float <2> out = init(Matrix float <2>, m, n);
  for (int rep = 0; rep < )" + reps + R"(; rep++) {
    Matrix float <2> tmp = with ([0,0] <= [i,j] < [m,n])
        genarray([m,n], base[i, j] * )" + c1 + R"( + 1.0);
    out = with ([0,0] <= [i,j] < [m,n])
        genarray([m,n], tmp[i, j] + rep * )" + c2 + R"();
  }
  return with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, out[x,y]);
}
)";
    return "chain" + K + "(plane)";
  case 2:
    defs += R"(
float hostloop)" + K + R"((Matrix float <2> base) {
  int m = dimSize(base, 0);
  int n = dimSize(base, 1);
  Matrix float <2> out = init(Matrix float <2>, m, n);
  for (int rep = 0; rep < )" + reps + R"(; rep++) {
    for (int i = 0; i < m; i++) {
      for (int j = 0; j < n; j++) {
        float s = base[i, j] * )" + c1 + R"( + rep * 1.0;
        out[i, j] = s + base[i, j] * )" + c2 + R"(;
      }
    }
  }
  return with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, out[x,y]);
}
)";
    return "hostloop" + K + "(plane)";
  case 3:
    defs += R"(
float matmul)" + K + R"((Matrix float <2> a, Matrix float <2> b) {
  int n = dimSize(a, 0);
  int q = dimSize(b, 1);
  Matrix float <2> c = a * b;
  return with ([0,0] <= [x,y] < [n,q]) fold(+, )" + c1 + R"(, c[x, y]);
}
)";
    return "matmul" + K + "(plane, square)";
  default:
    defs += eddyFunctions(K) + R"(
float eddy)" + K + R"((Matrix float <3> data) {
  Matrix float <3> scores = matrixMap(scoreTS)" + K + R"(, data, [2]);
  int a = dimSize(scores, 0);
  int b = dimSize(scores, 1);
  int c = dimSize(scores, 2);
  return with ([0,0,0] <= [x,y,z] < [a,b,c]) fold(+, 0.0, scores[x,y,z]);
}
)";
    return "eddy" + K + "(field)";
  }
}

std::string largeProgram(uint64_t seed) {
  // Every seed replicates each kernel equally often, so the program's size
  // and compile cost do not depend on the seed; order and constants do.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<int> kinds;
  for (int k = 0; k < kLargeKernels; ++k) kinds.push_back(k % 5);
  std::shuffle(kinds.begin(), kinds.end(), rng);
  std::string defs, calls;
  for (int k = 0; k < kLargeKernels; ++k)
    calls += "  acc = acc + " + largeKernel(k, kinds[k], rng, defs) + ";\n";
  return "// Compile-only: seeded replication of the corpus kernels.\n" + defs +
         R"(
int main() {
  Matrix float <3> field = init(Matrix float <3>, 4, 4, 8);
  Matrix float <2> plane = init(Matrix float <2>, 8, 8);
  Matrix float <2> square = init(Matrix float <2>, 8, 8);
  float acc = 0.0;
)" + calls + R"(  printFloat(acc);
  return 0;
}
)";
}

void writeText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

mmx::rt::Matrix uniform(std::mt19937_64& rng, int64_t rows, int64_t cols) {
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  mmx::rt::Matrix m = mmx::rt::Matrix::zeros(mmx::rt::Elem::F32, {rows, cols});
  float* p = m.data<float>();
  for (int64_t i = 0; i < rows * cols; ++i) p[i] = u(rng);
  return m;
}

} // namespace

std::vector<Program> corpus(uint64_t seed) {
  return {{"tmean", kTmean, true},       {"eddy", eddyProgram(), true},
          {"chain", kChain, true},       {"hostloop", kHostloop, true},
          {"matmul", kMatmul, true},     {"large", largeProgram(seed), false}};
}

void writeInputs(uint64_t seed, int scale, const std::string& dir) {
  mmx::rt::SshParams field;
  field.nlat = kFieldLat * scale;
  field.nlon = kFieldLon * scale;
  field.ntime = kFieldTime;
  field.seed = seed;
  mmx::rt::writeMatrixFile(dir + "/field.mmx", mmx::rt::synthesizeSsh(field));
  mmx::rt::SshParams eddy = field;
  eddy.nlat = kEddyLat;
  eddy.nlon = kEddyLon;
  eddy.ntime = kEddyTime;
  eddy.numEddies = 3;
  mmx::rt::writeMatrixFile(dir + "/eddy.mmx", mmx::rt::synthesizeSsh(eddy));
  std::mt19937_64 rng(seed);
  mmx::rt::writeMatrixFile(dir + "/plane.mmx",
                           uniform(rng, kPlaneRows, kPlaneCols));
  int64_t n = kMatN * scale;
  mmx::rt::writeMatrixFile(dir + "/a.mmx", uniform(rng, n, n));
  mmx::rt::writeMatrixFile(dir + "/b.mmx", uniform(rng, n, n));
}

void writePrograms(const std::vector<Program>& progs, const std::string& dir) {
  for (const Program& p : progs) writeText(dir + "/" + p.name + ".xc", p.source);
}

} // namespace pb
