// C emitter tests: the emitted "plain parallel C" must (a) contain the
// structures of Figs. 10-11 (OpenMP pragma, SSE intrinsics, split loops),
// and (b) actually compile with the system C compiler and produce the
// same results as the interpreter.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <sys/wait.h>

#include "ir/cemit.hpp"
#include "runtime/backend.hpp"
#include "runtime/memsys.hpp"
#include "runtime/matio.hpp"
#include "runtime/ssh_synth.hpp"
#include "xc_helper.hpp"

namespace mmx::test {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

std::string emitOk(const std::string& src,
                   driver::TranslateOptions opts = {}) {
  auto res = translateXc(src, opts);
  EXPECT_TRUE(res.ok) << res.renderDiagnostics();
  if (!res.ok) return {};
  auto c = ir::emitC(*res.module);
  EXPECT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
  return c.code;
}

/// Compiles the C text with the system compiler and runs it; returns the
/// program stdout. Registers a test failure on any step going wrong.
/// `ccExtra` lets tests drop -fopenmp (the emitted C must also build as
/// plain serial C); `envPrefix` lets them pin OMP_NUM_THREADS.
std::string compileAndRun(const std::string& cCode, const char* tag,
                          const std::string& ccExtra = "-fopenmp",
                          const std::string& envPrefix = "") {
  std::string base = std::string(::testing::TempDir()) + "cemit_" + tag;
  std::string cPath = base + ".c";
  std::string binPath = base + ".bin";
  std::ofstream(cPath) << cCode;
  std::string cmd = "cc -O2 -std=gnu99 -msse4.2 " + ccExtra + " " + cPath +
                    " -o " + binPath + " -lm 2>" + base + ".err";
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream err(base + ".err");
    std::string msg((std::istreambuf_iterator<char>(err)),
                    std::istreambuf_iterator<char>());
    ADD_FAILURE() << "cc failed:\n" << msg << "\n--- code:\n" << cCode;
    return {};
  }
  std::string outPath = base + ".out";
  if (std::system((envPrefix + binPath + " >" + outPath).c_str()) != 0) {
    ADD_FAILURE() << "emitted binary exited nonzero";
    return {};
  }
  std::ifstream out(outPath);
  std::string text((std::istreambuf_iterator<char>(out)),
                   std::istreambuf_iterator<char>());
  std::remove(cPath.c_str());
  std::remove(binPath.c_str());
  std::remove(outPath.c_str());
  std::remove((base + ".err").c_str());
  return text;
}

TEST(CEmit, ScalarProgramCompilesAndMatchesInterpreter) {
  const char* src = R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      printInt(fib(15));
      printFloat(2.5 * 4.0);
      printBool(3 < 4 && !(2 == 2) || true);
      return 0;
    })";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(compileAndRun(c, "scalar"), runOk(src));
}

TEST(CEmit, TupleFunctionsUseOutParameters) {
  const char* src = R"(
    (int, int) divmod(int a, int b) { return (a / b, a % b); }
    int main() {
      int d = 0;
      int r = 0;
      (d, r) = divmod(47, 7);
      printInt(d);
      printInt(r);
      return 0;
    })";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(c.find("int* __out0"), std::string::npos);
  EXPECT_EQ(compileAndRun(c, "tuple"), runOk(src));
}

std::string meansProgram(const std::string& in, const std::string& out,
                         const std::string& clauses) {
  return R"(
int main() {
  Matrix float <3> mat = readMatrix(")" + in + R"(");
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p))" + clauses + R"(;
  writeMatrix(")" + out + R"(", means);
  printFloat(means[0, 0]);
  return 0;
})";
}

TEST(CEmit, TemporalMeanCompiledMatchesInterpreter) {
  TempPath in("cemit_in.mmx"), outC("cemit_c.mmx"), outI("cemit_i.mmx");
  rt::SshParams p;
  p.nlat = 6;
  p.nlon = 9;
  p.ntime = 11;
  rt::writeMatrixFile(in.path, rt::synthesizeSsh(p));

  std::string interpOut = runOk(meansProgram(in.path, outI.path, ""));
  std::string c = emitOk(meansProgram(in.path, outC.path, ""));
  ASSERT_FALSE(c.empty());
  std::string compiledOut = compileAndRun(c, "means");
  EXPECT_EQ(compiledOut, interpOut);
  EXPECT_TRUE(rt::readMatrixFile(outC.path)
                  .equals(rt::readMatrixFile(outI.path), 1e-4f));
}

TEST(CEmit, Fig11TransformedProgramEmitsOmpAndSse) {
  TempPath in("cemit_in11.mmx"), out("cemit_o11.mmx");
  rt::SshParams p;
  p.nlat = 4;
  p.nlon = 16;
  p.ntime = 8;
  rt::writeMatrixFile(in.path, rt::synthesizeSsh(p));

  std::string prog = meansProgram(in.path, out.path, R"(
    transform {
      split j by 4, jin, jout;
      vectorize jin;
      parallelize i;
    })");
  std::string c = emitOk(prog);
  ASSERT_FALSE(c.empty());
  // Fig. 11's artifacts: an OpenMP parallel-for on the outer loop and
  // 128-bit SSE operations in the vectorized inner loop. The prelude's
  // matmul cores and SSE helpers contain both, so look at the program.
  std::string code = emittedProgram(c);
  EXPECT_NE(code.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(code.find("_mm_add_ps"), std::string::npos);
  EXPECT_NE(code.find("_mm_div_ps"), std::string::npos);
  EXPECT_NE(code.find("mmx_vscatter_f("), std::string::npos);
  // Fig. 10's artifact: the split loops with the index reconstruction.
  EXPECT_NE(code.find("jout"), std::string::npos);
  EXPECT_NE(code.find("jin"), std::string::npos);

  std::string interpOut = runOk(prog);
  EXPECT_EQ(compileAndRun(c, "fig11"), interpOut);
}

TEST(CEmit, TiledTransformCompiledMatchesInterpreter) {
  // examples/xc/transform_tiled.xc (Fig. 9) on a readMatrix input:
  // `unroll k by 2` puts an integer `/ 2` into both inner-loop bounds of
  // the vectorized jin loop, which has no SSE instruction and runs lane by
  // lane through mmx_opi.
  TempPath in("cemit_tiled.mmx");
  rt::SshParams p;
  p.nlat = 6;
  p.nlon = 16;
  p.ntime = 12;
  p.seed = 5;
  p.numEddies = 2;
  rt::writeMatrixFile(in.path, rt::synthesizeSsh(p));
  std::string src = R"(
int main() {
  Matrix float <3> mat = readMatrix(")" + in.path + R"(");
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n],
      (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p)
    transform {
      split j by 4, jin, jout;
      vectorize jin;
      unroll k by 2;
      interchange i, jout;
      parallelize i;
    };
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, means[x,y]));
  return 0;
})";
  std::string interp = runOk(src);
  ASSERT_FALSE(interp.empty());
  driver::TranslateOptions o1;
  o1.optFuse = o1.optElimTemp = o1.optInplace = o1.optAutopar = true;
  for (auto [level, opts] : {std::pair{"O0", driver::TranslateOptions{}},
                             std::pair{"O1", o1}}) {
    std::string c = emitOk(src, opts);
    ASSERT_FALSE(c.empty()) << level;
    EXPECT_NE(emittedProgram(c).find("mmx_vopi(3, "), std::string::npos)
        << level;
    for (const char* threads : {"1", "4"})
      EXPECT_EQ(compileAndRun(c, (std::string("tiled_") + level).c_str(),
                              "-fopenmp",
                              std::string("OMP_NUM_THREADS=") + threads + " "),
                interp)
          << level << " at " << threads << " threads";
  }
}

TEST(CEmit, IndexingAndRangesCompile) {
  TempPath in("cemit_idx.mmx");
  rt::writeMatrixFile(in.path,
                      rt::Matrix::fromF32({3, 4}, {0, 1, 2, 3, 10, 11, 12, 13,
                                                   20, 21, 22, 23}));
  std::string src = R"(
int main() {
  Matrix float <2> m = readMatrix(")" + in.path + R"(");
  Matrix float <1> row = m[1, :];
  printFloat(row[2]);
  Matrix float <2> blk = m[0 : 1, 1 : 2];
  printFloat(blk[1, 1]);
  m[2, 0 : 1] = 99.0;
  printFloat(m[2, 0] + m[2, 1]);
  Matrix float <1> line = (0 :: 3) * 2.0 + 1.0;
  printFloat(line[3]);
  printFloat(m[0, end]);
  return 0;
})";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(compileAndRun(c, "idx"), runOk(src));
}

TEST(CEmit, LogicalIndexingCompiles) {
  std::string src = R"(
int main() {
  Matrix int <1> v = (1 :: 8);
  Matrix int <1> odd = v[v % 2 == 1];
  printInt(dimSize(odd, 0));
  printInt(odd[3]);
  v[v > 4] = 0;
  printInt(v[3] + v[6]);
  return 0;
})";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(compileAndRun(c, "logical"), runOk(src));
}

/// Compiles the C text and runs it expecting a runtime guard to fire:
/// returns the binary's exit code (mmx_fail exits 3) and its stderr text.
struct FailRun {
  int exitCode = -1;
  std::string err;
};
FailRun compileAndRunFail(const std::string& cCode, const char* tag) {
  FailRun fr;
  std::string base = std::string(::testing::TempDir()) + "cemitf_" + tag;
  std::string cPath = base + ".c";
  std::string binPath = base + ".bin";
  std::ofstream(cPath) << cCode;
  std::string cmd = "cc -O2 -std=gnu99 -msse4.2 -fopenmp " + cPath + " -o " +
                    binPath + " -lm 2>" + base + ".err";
  if (std::system(cmd.c_str()) != 0) {
    ADD_FAILURE() << "cc failed for " << tag;
    return fr;
  }
  int rc = std::system((binPath + " >/dev/null 2>" + base + ".err").c_str());
  fr.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream err(base + ".err");
  fr.err.assign(std::istreambuf_iterator<char>(err),
                std::istreambuf_iterator<char>());
  std::remove(cPath.c_str());
  std::remove(binPath.c_str());
  std::remove((base + ".err").c_str());
  return fr;
}

TEST(CEmit, RangeToEndCompiledMatchesInterpreter) {
  // `lo:end` with a runtime lower bound — the range path the guards
  // protect — must agree between interpreter and emitted C.
  std::string src = R"(
int main() {
  Matrix float <1> v = (0 :: 9) * 1.5;
  int lo = dimSize(v, 0) - 4;
  Matrix float <1> tail = v[lo : end];
  printInt(dimSize(tail, 0));
  printFloat(tail[0] + tail[3]);
  v[lo : end] = 0.0;
  printFloat(v[5] + v[6]);
  return 0;
})";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(compileAndRun(c, "rangeend"), runOk(src));
}

TEST(CEmit, RangePastEndFailsAtRuntime) {
  // v[2:n] with n == dimSize: one past `end`. The interpreter raises a
  // RuntimeError; the emitted binary hits the same guard and exits 3.
  std::string src = R"(
int main() {
  Matrix float <1> v = (0 :: 5) * 1.0;
  int n = dimSize(v, 0);
  Matrix float <1> bad = v[2 : n];
  printFloat(bad[0]);
  return 0;
})";
  RunOutcome interp = runXc(src);
  ASSERT_TRUE(interp.translated) << interp.diagnostics;
  EXPECT_FALSE(interp.ran);
  EXPECT_FALSE(interp.runtimeError.empty());

  auto res = translateXc(src);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  auto c = ir::emitC(*res.module);
  ASSERT_TRUE(c.ok);
  FailRun fr = compileAndRunFail(c.code, "rangeoob");
  EXPECT_EQ(fr.exitCode, 3) << fr.err;
  EXPECT_NE(fr.err.find("runtime error"), std::string::npos) << fr.err;
}

TEST(CEmit, MaskLengthMismatchFailsAtRuntime) {
  // Logical indexing with a mask shorter than the indexed dimension must
  // be rejected by both backends, not silently read out of bounds.
  std::string src = R"(
int main() {
  Matrix int <1> v = (1 :: 8);
  Matrix int <1> w = (1 :: 5);
  Matrix int <1> sel = v[w > 3];
  printInt(dimSize(sel, 0));
  return 0;
})";
  RunOutcome interp = runXc(src);
  ASSERT_TRUE(interp.translated) << interp.diagnostics;
  EXPECT_FALSE(interp.ran);
  EXPECT_FALSE(interp.runtimeError.empty());

  auto res = translateXc(src);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  auto c = ir::emitC(*res.module);
  ASSERT_TRUE(c.ok);
  FailRun fr = compileAndRunFail(c.code, "maskoob");
  EXPECT_EQ(fr.exitCode, 3) << fr.err;
  EXPECT_NE(fr.err.find("runtime error"), std::string::npos) << fr.err;
}

TEST(CEmit, VectorizedIntegerOperatorsMatchInterpreter) {
  // min and max map to SSE4.1 instructions; / and % run lane by lane
  // through mmx_opi, so a zero divisor fails at run time in both backends.
  auto prog = [](const char* divisor) {
    return std::string(R"(
int main() {
  int n = 11;
  int d = )") + divisor + R"(;
  Matrix int <1> v = with ([0] <= [i] < [n])
      genarray([n], min(i, 6) + max(i, 3) * 10 + (i % 4) * 100 +
                    (i / d) * 1000)
      transform { vectorize i; };
  for (int j = 0; j < n; j = j + 1) { printInt(v[j]); }
  return 0;
})";
  };
  std::string c = emitOk(prog("3"));
  ASSERT_FALSE(c.empty());
  EXPECT_NE(emittedProgram(c).find("_mm_min_epi32("), std::string::npos);
  EXPECT_EQ(compileAndRun(c, "vint"), runOk(prog("3")));

  RunOutcome interp = runXc(prog("0"));
  ASSERT_TRUE(interp.translated) << interp.diagnostics;
  EXPECT_NE(interp.runtimeError.find("integer division by zero"),
            std::string::npos)
      << interp.runtimeError;
  FailRun fr = compileAndRunFail(emitOk(prog("0")), "vintdiv0");
  EXPECT_EQ(fr.exitCode, 3) << fr.err;
  EXPECT_NE(fr.err.find("integer division by zero"), std::string::npos)
      << fr.err;
}

TEST(CEmit, MaskStoreCompiledMatchesInterpreter) {
  // Masked assignment with a runtime threshold (float mask path).
  std::string src = R"(
int main() {
  Matrix float <1> v = (0 :: 9) * 0.5;
  float cut = v[6];
  v[v > cut] = -1.0;
  printFloat(v[5] + v[6] + v[9]);
  Matrix float <1> kept = v[v > 0.0];
  printInt(dimSize(kept, 0));
  return 0;
})";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(compileAndRun(c, "maskstore"), runOk(src));
}

TEST(CEmit, SimulatorBuiltinsAreRejectedWithClearMessage) {
  auto res = translateXc("int main() { Matrix float <3> m = "
                         "synthSsh(2, 2, 2, 1, 1); printShape(m); return 0; }");
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  auto c = ir::emitC(*res.module);
  EXPECT_FALSE(c.ok);
  ASSERT_FALSE(c.errors.empty());
  EXPECT_NE(c.errors.front().find("interpreter-only"), std::string::npos);
}

rt::Matrix lcgF32(int64_t rows, int64_t cols, uint32_t seed) {
  rt::Matrix m = rt::Matrix::zeros(rt::Elem::F32, {rows, cols});
  uint32_t s = seed * 2654435761u + 1;
  for (int64_t i = 0; i < m.size(); ++i) {
    s = s * 1664525u + 1013904223u;
    m.f32()[i] = static_cast<float>(static_cast<int32_t>(s >> 16) % 97) / 8.0f;
  }
  return m;
}

rt::Matrix lcgI32(int64_t rows, int64_t cols, uint32_t seed) {
  rt::Matrix m = rt::Matrix::zeros(rt::Elem::I32, {rows, cols});
  uint32_t s = seed * 2246822519u + 7;
  for (int64_t i = 0; i < m.size(); ++i) {
    s = s * 1664525u + 1013904223u;
    m.i32()[i] = static_cast<int32_t>(s >> 24) - 128;
  }
  return m;
}

std::string matmulProgram(const char* elem, const std::string& aPath,
                          const std::string& bPath, const char* printFn) {
  return std::string(R"(
int main() {
  Matrix )") + elem + R"( <2> a = readMatrix(")" + aPath + R"(");
  Matrix )" + elem + R"( <2> b = readMatrix(")" + bPath + R"(");
  Matrix )" + elem + R"( <2> c = a * b;
  )" + printFn + R"((c[0, 0]);
  )" + printFn + R"((c[dimSize(c, 0) - 1, dimSize(c, 1) - 1]);
  )" + printFn + R"((c[dimSize(c, 0) / 2, dimSize(c, 1) / 2]);
  return 0;
})";
}

TEST(CEmit, MatmulCompiledMatchesInterpreter) {
  // Prime, off-tile shapes through both element kinds: the blocked
  // emitted-C cores must agree with the interpreter's tiled engine. Both
  // accumulate each output element in ascending-k order (k < KC here),
  // so the printed values match bit for bit.
  TempPath af("cemit_mma.mmx"), bf("cemit_mmb.mmx");
  rt::writeMatrixFile(af.path, lcgF32(17, 31, 5));
  rt::writeMatrixFile(bf.path, lcgF32(31, 13, 9));
  std::string srcF = matmulProgram("float", af.path, bf.path, "printFloat");
  std::string cF = emitOk(srcF);
  ASSERT_FALSE(cF.empty());
  EXPECT_NE(cF.find("mmx_matmul_coref"), std::string::npos);
  EXPECT_EQ(compileAndRun(cF, "mmf"), runOk(srcF));

  TempPath ai("cemit_mmai.mmx"), bi("cemit_mmbi.mmx");
  rt::writeMatrixFile(ai.path, lcgI32(23, 19, 3));
  rt::writeMatrixFile(bi.path, lcgI32(19, 29, 7));
  std::string srcI = matmulProgram("int", ai.path, bi.path, "printInt");
  std::string cI = emitOk(srcI);
  ASSERT_FALSE(cI.empty());
  EXPECT_NE(cI.find("mmx_matmul_corei"), std::string::npos);
  EXPECT_EQ(compileAndRun(cI, "mmi"), runOk(srcI));
}

TEST(CEmit, MatmulRunsWithAndWithoutOpenmp) {
  // The emitted matmul must build as plain serial C (pragma ignored) and,
  // under OpenMP, produce the same bytes at any thread count: each row
  // panel is owned by one thread and accumulated in a fixed order.
  TempPath a("cemit_mmo_a.mmx"), b("cemit_mmo_b.mmx");
  rt::writeMatrixFile(a.path, lcgF32(70, 80, 11));
  rt::writeMatrixFile(b.path, lcgF32(80, 90, 13));
  std::string src = matmulProgram("float", a.path, b.path, "printFloat");
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(c.find("#pragma omp parallel for"), std::string::npos);

  std::string interp = runOk(src);
  ASSERT_FALSE(interp.empty());
  EXPECT_EQ(compileAndRun(c, "mmo_serial", ""), interp);
  EXPECT_EQ(compileAndRun(c, "mmo_omp1", "-fopenmp", "OMP_NUM_THREADS=1 "),
            interp);
  EXPECT_EQ(compileAndRun(c, "mmo_omp4", "-fopenmp", "OMP_NUM_THREADS=4 "),
            interp);
}

TEST(CEmit, MatmulBackendSelectableViaEnv) {
  // The emitted program carries the backend registry mirror: every name
  // accepted by $MMX_BACKEND must run and agree with the interpreter on
  // exactly-representable data (products are exact, so the FMA core
  // rounds identically — see DESIGN.md "Kernel backend registry").
  TempPath a("cemit_be_a.mmx"), b("cemit_be_b.mmx");
  rt::writeMatrixFile(a.path, lcgF32(37, 41, 17));
  rt::writeMatrixFile(b.path, lcgF32(41, 23, 19));
  std::string src = matmulProgram("float", a.path, b.path, "printFloat");
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(c.find("mmx_backend_select"), std::string::npos);

  std::string interp = runOk(src);
  ASSERT_FALSE(interp.empty());
  for (const char* be : {"scalar", "sse", "avx", "avx2fma"}) {
    if (std::string(be) == "avx2fma" && !rt::findBackend("avx2fma")->available())
      continue; // graceful skip on hosts without AVX2/FMA
    EXPECT_EQ(compileAndRun(c, (std::string("be_") + be).c_str(), "-fopenmp",
                            std::string("MMX_BACKEND=") + be + " "),
              interp)
        << "backend " << be;
  }
}

TEST(CEmit, MatmulBackendUnknownEnvNameFails) {
  TempPath a("cemit_beu_a.mmx"), b("cemit_beu_b.mmx");
  rt::writeMatrixFile(a.path, lcgF32(5, 7, 1));
  rt::writeMatrixFile(b.path, lcgF32(7, 3, 2));
  std::string c =
      emitOk(matmulProgram("float", a.path, b.path, "printFloat"));
  ASSERT_FALSE(c.empty());

  std::string base = std::string(::testing::TempDir()) + "cemit_beu";
  std::ofstream(base + ".c") << c;
  ASSERT_EQ(std::system(("cc -O2 -std=gnu99 -msse4.2 -fopenmp " + base +
                         ".c -o " + base + ".bin -lm 2>" + base + ".err")
                            .c_str()),
            0);
  int rc = std::system(("MMX_BACKEND=bogus " + base + ".bin >" + base +
                        ".out 2>" + base + ".err2")
                           .c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 3); // mmx_fail's runtime-error exit code
  std::ifstream err(base + ".err2");
  std::string msg((std::istreambuf_iterator<char>(err)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(msg.find("unknown backend 'bogus'"), std::string::npos);
  for (const char* ext : {".c", ".bin", ".err", ".err2", ".out"})
    std::remove((base + ext).c_str());
}

TEST(CEmit, MatmulBackendPinnedAtEmitTime) {
  // --backend=<name> bakes MMX_BACKEND_DEFAULT into the program: the
  // compiled-in pin wins over the environment.
  TempPath a("cemit_bep_a.mmx"), b("cemit_bep_b.mmx");
  rt::writeMatrixFile(a.path, lcgF32(11, 13, 23));
  rt::writeMatrixFile(b.path, lcgF32(13, 9, 29));
  std::string src = matmulProgram("float", a.path, b.path, "printFloat");
  auto res = translateXc(src);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ir::CEmitOptions eo;
  eo.backend = "scalar";
  auto c = ir::emitC(*res.module, eo);
  ASSERT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
  EXPECT_NE(c.code.find("#define MMX_BACKEND_DEFAULT \"scalar\""),
            std::string::npos);
  // Runs fine even when the environment names a different (or bogus)
  // backend — the pin is consulted first.
  EXPECT_EQ(compileAndRun(c.code, "bep", "-fopenmp", "MMX_BACKEND=bogus "),
            runOk(src));

  // The default "auto" emits no pin (the prelude's #ifndef fallback is
  // all that remains), keeping the output stable.
  EXPECT_EQ(c.code.rfind("#define MMX_BACKEND_DEFAULT \"scalar\"", 0), 0u);
  auto cAuto = ir::emitC(*res.module);
  ASSERT_TRUE(cAuto.ok);
  EXPECT_NE(cAuto.code.rfind("#define MMX_BACKEND_DEFAULT", 0), 0u);

  ir::CEmitOptions bad;
  bad.backend = "no\"good";
  auto cBad = ir::emitC(*res.module, bad);
  EXPECT_FALSE(cBad.ok);
}

// ---- memory subsystem (ISSUE 9) -----------------------------------------

std::string slurpFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Extracts one "key": N counter from flat stats JSON; -1 when absent.
long long jsonCounter(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  pos = json.find(':', pos);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + 1, nullptr, 10);
}

/// A program whose matrices live and die inside a called function: the
/// emitted C releases its temps at function cleanup, so its alloc/free
/// sequence (and thus the cache counters) lines up with the interpreter's
/// eager releases exactly.
const char* kAllocChurnProgram = R"(
float work(int n) {
  Matrix float <1> t = init(Matrix float <1>, n);
  t = with ([0] <= [i] < [n]) genarray([n], i * 0.5);
  float s = with ([0] <= [j] < [n]) fold(+, 0.0, t[j]);
  return s;
}

int main() {
  float acc = 0.0;
  for (int r = 0; r < 6; r = r + 1) {
    acc = acc + work(32 + r);
  }
  printFloat(acc);
  return 0;
})";

TEST(CEmit, AllocSelectableViaEnvAndNumericallyIdentical) {
  // Every $MMX_ALLOC strategy must run and print the same bytes as the
  // interpreter — the allocator may never change numerics.
  std::string c = emitOk(kAllocChurnProgram);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(emittedProgram(c).find("mmx_ms_select();"), std::string::npos);
  std::string interp = runOk(kAllocChurnProgram);
  ASSERT_FALSE(interp.empty());
  for (const char* alloc : {"system", "cache", "arena", "auto"})
    EXPECT_EQ(compileAndRun(c, (std::string("alloc_") + alloc).c_str(),
                            "-fopenmp", std::string("MMX_ALLOC=") + alloc + " "),
              interp)
        << "allocator " << alloc;
}

TEST(CEmit, AllocUnknownEnvNameFailsAtStartup) {
  std::string c = emitOk(kAllocChurnProgram);
  ASSERT_FALSE(c.empty());
  std::string base = std::string(::testing::TempDir()) + "cemit_msu";
  std::ofstream(base + ".c") << c;
  ASSERT_EQ(std::system(("cc -O2 -std=gnu99 -msse4.2 -fopenmp " + base +
                         ".c -o " + base + ".bin -lm 2>" + base + ".err")
                            .c_str()),
            0);
  int rc = std::system(("MMX_ALLOC=bogus " + base + ".bin >" + base +
                        ".out 2>" + base + ".err2")
                           .c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 3); // mmx_fail's runtime-error exit code
  std::string msg = slurpFile(base + ".err2");
  EXPECT_NE(msg.find("unknown allocator 'bogus'"), std::string::npos) << msg;
  // Fails at startup: nothing was printed before the diagnostic.
  EXPECT_EQ(slurpFile(base + ".out"), "");
  for (const char* ext : {".c", ".bin", ".err", ".err2", ".out"})
    std::remove((base + ext).c_str());
}

TEST(CEmit, AllocPinnedAtEmitTime) {
  // --alloc=<name> bakes MMX_ALLOC_DEFAULT into the program: the
  // compiled-in pin wins over the environment, and it is the only
  // difference from the default emission, since every allocator lives in
  // the one runtime text.
  auto res = translateXc(kAllocChurnProgram);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ir::CEmitOptions eo;
  eo.boundsChecks = res.boundsChecks;
  eo.plan = res.guardPlan;
  auto dflt = ir::emitC(*res.module, eo);
  ASSERT_TRUE(dflt.ok) << (dflt.errors.empty() ? "" : dflt.errors.front());
  // The proven fully-written genarray takes the uninitialized allocation.
  EXPECT_NE(emittedProgram(dflt.code).find("mmx_allocv_u("),
            std::string::npos);
  std::string interp = runOk(kAllocChurnProgram);
  for (std::string alloc : {"system", "cache", "arena"}) {
    eo.alloc = alloc;
    auto c = ir::emitC(*res.module, eo);
    ASSERT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
    EXPECT_EQ(c.code,
              "#define MMX_ALLOC_DEFAULT \"" + alloc + "\"\n" + dflt.code);
    EXPECT_EQ(compileAndRun(c.code, ("msp_" + alloc).c_str(), "-fopenmp",
                            "MMX_ALLOC=bogus "),
              interp)
        << "allocator " << alloc;
  }

  ir::CEmitOptions bad;
  bad.alloc = "no\"good";
  auto cBad = ir::emitC(*res.module, bad);
  EXPECT_FALSE(cBad.ok);
}

TEST(CEmit, CacheCountersMatchInterpreterExactly) {
  // The machine-independent rt.alloc.cache.* counters must agree between
  // the interpreter and the emitted C on a single-threaded run: the
  // emitted mmx_ms_* runtime mirrors memsys.cpp's size-class math and
  // magazine/depot policy verbatim (classifying on bytes + 32 so both
  // backends see identical class sequences).
  rt::AllocatorOverride pin("cache");
  rt::msTrim(); // empty magazines: the same cold start the binary gets
  rt::MsCacheStats before = rt::msCacheStats();
  RunOutcome interp = runXc(kAllocChurnProgram);
  ASSERT_TRUE(interp.ran) << interp.diagnostics << interp.runtimeError;
  rt::MsCacheStats after = rt::msCacheStats();

  auto res = translateXc(kAllocChurnProgram);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ir::CEmitOptions eo;
  eo.boundsChecks = res.boundsChecks;
  eo.plan = res.guardPlan;
  eo.instrument = ir::InstrumentMode::Counters;
  auto c = ir::emitC(*res.module, eo);
  ASSERT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());

  TempPath json("cemit_mspar.json");
  // MMX_ALLOC pinned explicitly: the ambient environment (the CI
  // sanitizer matrix exports MMX_ALLOC) must not steer the binary away
  // from the strategy the interpreter side was measured under.
  EXPECT_EQ(compileAndRun(c.code, "mspar", "-fopenmp",
                          "MMX_ALLOC=cache OMP_NUM_THREADS=1 MMX_PROF_JSON=" +
                              json.path + " "),
            interp.output);
  std::string stats = slurpFile(json.path);
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(jsonCounter(stats, "rt.alloc.cache.hits"),
            static_cast<long long>(after.hits - before.hits));
  EXPECT_EQ(jsonCounter(stats, "rt.alloc.cache.misses"),
            static_cast<long long>(after.misses - before.misses));
  EXPECT_EQ(jsonCounter(stats, "rt.alloc.cache.flushes"),
            static_cast<long long>(after.flushes - before.flushes));
  // Both sides snapshot after every program matrix died, with magazines
  // intact: the parked bytes agree too (cachedBytes was 0 post-trim).
  EXPECT_EQ(jsonCounter(stats, "rt.alloc.cache.cachedBytes"),
            static_cast<long long>(after.cachedBytes));
}

TEST(CEmit, RefcountProgramCompiles) {
  std::string src = R"(
int main() {
  refptr float p = rcalloc(float, 4);
  p[0] = 2.0;
  refptr float q = p;
  q[1] = 3.0;
  printFloat(p[0] + p[1]);
  return 0;
})";
  std::string c = emitOk(src);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(compileAndRun(c, "refcount"), runOk(src));
}

// ---- parallel loop bodies ---------------------------------------------

/// Fig. 8 over a field read from `in`: matrixMap(scoreTS) builds slices and
/// per-call temporaries inside the emitted OpenMP loop.
std::string fig8Program(const std::string& in) {
  return R"(
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
  int beginning = i;
  int n = dimSize(ts, 0);
  while (i + 1 < n && ts[i] >= ts[i + 1]) { i = i + 1; }
  while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }
  return (ts[beginning : i], beginning, i);
}
Matrix float <1> computeArea(Matrix float <1> areaOfInterest) {
  float y1 = areaOfInterest[0];
  float y2 = areaOfInterest[end];
  int x2 = dimSize(areaOfInterest, 0) - 1;
  float slope = 0.0;
  if (x2 > 0) { slope = (y1 - y2) / ((float)(0 - x2)); }
  Matrix float <1> Line = (0 :: x2) * slope + y1;
  float area = with ([0] <= [q] < [dimSize(Line, 0)])
      fold(+, 0.0, Line[q] - areaOfInterest[q]);
  return with ([0] <= [q] < [dimSize(Line, 0)])
      genarray([dimSize(Line, 0)], area);
}
Matrix float <1> scoreTS(Matrix float <1> ts) {
  Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
  int i = 0;
  int n = dimSize(ts, 0);
  while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }
  Matrix float <1> trough = init(Matrix float <1>, 1);
  int beginning = 0;
  while (i < n - 1) {
    (trough, beginning, i) = getTrough(ts, i);
    if (i <= beginning) { return scores; }
    scores[beginning : i] = computeArea(trough);
  }
  return scores;
}
int main() {
  Matrix float <3> data = readMatrix(")" +
         in + R"(");
  Matrix float <3> scores = matrixMap(scoreTS, data, [2]);
  int a = dimSize(scores, 0);
  int b = dimSize(scores, 1);
  int c = dimSize(scores, 2);
  printFloat(with ([0,0,0] <= [x,y,z] < [a,b,c]) fold(+, 0.0, scores[x,y,z]));
  return 0;
})";
}

/// Fig. 1's temporal mean over a field read from `in`, folded to a checksum.
std::string temporalMeanProgram(const std::string& in) {
  return R"(
int main() {
  Matrix float <3> mat = readMatrix(")" +
         in + R"(");
  int m = dimSize(mat, 0);
  int n = dimSize(mat, 1);
  int p = dimSize(mat, 2);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
    genarray([m,n], (with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])) / p);
  printFloat(with ([0,0] <= [x,y] < [m,n]) fold(+, 0.0, means[x,y]));
  return 0;
})";
}

/// Emits `src` the way mmc does (guard plan included), compiles it once,
/// and runs it 10 times at OMP_NUM_THREADS=1,4,8 under each allocator,
/// expecting the 1-thread -O0 interpreter's output every time.
void expectEmittedAgreesEverywhere(const std::string& src,
                                   driver::TranslateOptions opts,
                                   const std::string& tag) {
  std::string want = runOk(src);
  ASSERT_FALSE(want.empty());
  auto res = translateXc(src, opts);
  ASSERT_TRUE(res.ok) << res.renderDiagnostics();
  ir::CEmitOptions co;
  co.boundsChecks = res.boundsChecks;
  co.plan = res.guardPlan;
  auto c = ir::emitC(*res.module, co);
  ASSERT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
  std::string base = std::string(::testing::TempDir()) + "cemit_" + tag;
  std::ofstream(base + ".c") << c.code;
  ASSERT_EQ(std::system(("cc -O2 -std=gnu99 -msse4.2 -fopenmp " + base +
                         ".c -o " + base + ".bin -lm 2>" + base + ".err")
                            .c_str()),
            0)
      << slurpFile(base + ".err");
  for (const char* threads : {"1", "4", "8"})
    for (const char* alloc : {"system", "cache", "arena"})
      for (int run = 0; run < 10; ++run) {
        int rc = std::system((std::string("OMP_NUM_THREADS=") + threads +
                              " MMX_ALLOC=" + alloc + " " + base + ".bin >" +
                              base + ".out 2>" + base + ".err")
                                 .c_str());
        std::string out = slurpFile(base + ".out");
        if (rc != 0 || out != want) {
          ADD_FAILURE() << threads << " threads, " << alloc << ", run "
                        << run << ": exit " << rc << ", printed '" << out
                        << "', want '" << want << "'\n"
                        << slurpFile(base + ".err");
          break;
        }
      }
  for (const char* ext : {".c", ".bin", ".out", ".err"})
    std::remove((base + ext).c_str());
}

TEST(CEmit, Fig8ParallelTemporariesArePerIteration) {
  // matrixMap's OpenMP body creates matrix temporaries; one shared across
  // threads crashed, or printed a wrong checksum, at 4 threads.
  TempPath in("cemit_fig8_in.mmx");
  rt::SshParams p;
  p.nlat = 8;
  p.nlon = 16;
  p.ntime = 48;
  p.seed = 3;
  rt::writeMatrixFile(in.path, rt::synthesizeSsh(p));
  std::string src = fig8Program(in.path);
  driver::TranslateOptions o1;
  o1.optFuse = o1.optElimTemp = o1.optInplace = o1.optAutopar = true;
  expectEmittedAgreesEverywhere(src, {}, "fig8_o0");
  expectEmittedAgreesEverywhere(src, o1, "fig8_o1");
}

TEST(CEmit, MaterializedSliceTemporariesArePerIteration) {
  // Without slice elimination each fold materializes mat[i,j,:] inside
  // the parallel genarray body; a shared temporary segfaulted under the
  // cache allocator.
  TempPath in("cemit_tmean_in.mmx");
  rt::SshParams p;
  p.nlat = 16;
  p.nlon = 24;
  p.ntime = 32;
  p.seed = 5;
  rt::writeMatrixFile(in.path, rt::synthesizeSsh(p));
  driver::TranslateOptions noSliceElim;
  noSliceElim.sliceElimination = false;
  expectEmittedAgreesEverywhere(temporalMeanProgram(in.path), noSliceElim,
                                "tmean_noslice");
}

} // namespace
} // namespace mmx::test
