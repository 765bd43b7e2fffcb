#include "oracle.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "runtime/matio.hpp"

namespace pb {
namespace {

using mmx::rt::Matrix;

struct Sum {
  double value = 0, mag = 0;
  void add(double v) {
    value += v;
    mag += std::fabs(v);
  }
};

// Fig. 1: sum over (i,j) of the mean over k.
Sum tmean(const Matrix& f) {
  int64_t m = f.dim(0), n = f.dim(1), p = f.dim(2);
  const float* x = f.f32();
  Sum s;
  for (int64_t ij = 0; ij < m * n; ++ij) {
    double acc = 0;
    for (int64_t k = 0; k < p; ++k) acc += x[ij * p + k];
    s.add(acc / double(p));
  }
  return s;
}

// Fig. 8 getTrough / computeArea / scoreTS on one series, in the same
// single-precision arithmetic the program uses. Slices are inclusive.
void scoreSeries(const float* ts, int n, Sum& s) {
  std::vector<float> scores(n, 0.0f);
  int i = 0;
  while (i + 1 < n && ts[i] < ts[i + 1]) ++i;
  while (i < n - 1) {
    int beginning = i; // getTrough
    while (i + 1 < n && ts[i] >= ts[i + 1]) ++i;
    while (i + 1 < n && ts[i] < ts[i + 1]) ++i;
    if (i <= beginning) break;
    int len = i - beginning + 1; // computeArea over ts[beginning : i]
    const float* aoi = ts + beginning;
    float y1 = aoi[0], y2 = aoi[len - 1];
    int x2 = len - 1;
    float slope = 0.0f;
    if (x2 > 0) slope = (y1 - y2) / float(0 - x2);
    float area = 0.0f;
    for (int q = 0; q < len; ++q) area += (float(q) * slope + y1) - aoi[q];
    for (int q = 0; q < len; ++q) scores[beginning + q] = area;
  }
  for (float v : scores) s.add(v);
}

Sum eddy(const Matrix& f) {
  int64_t series = f.dim(0) * f.dim(1);
  int n = int(f.dim(2));
  Sum s;
  for (int64_t t = 0; t < series; ++t) scoreSeries(f.f32() + t * n, n, s);
  return s;
}

// Final rep of the chain: out = (base * 2 + 1) + rep.
Sum chain(const Matrix& base, int lastRep) {
  Sum s;
  for (int64_t i = 0; i < base.size(); ++i)
    s.add(double(base.f32()[i]) * 2.0 + 1.0 + lastRep);
  return s;
}

// Final rep of the host nest: out = base * 2 + rep + base * 0.25.
Sum hostloop(const Matrix& base, int lastRep) {
  Sum s;
  for (int64_t i = 0; i < base.size(); ++i)
    s.add(double(base.f32()[i]) * 2.25 + lastRep);
  return s;
}

// sum(a * b) = sum_k colsum_k(a) * rowsum_k(b).
Sum matmul(const Matrix& a, const Matrix& b) {
  int64_t n = a.dim(0), k = a.dim(1), q = b.dim(1);
  Sum s;
  for (int64_t kk = 0; kk < k; ++kk) {
    double col = 0, row = 0;
    for (int64_t i = 0; i < n; ++i) col += a.f32()[i * k + kk];
    for (int64_t j = 0; j < q; ++j) row += b.f32()[kk * q + j];
    s.add(col * row);
  }
  return s;
}

} // namespace

std::vector<Reference> references(const std::string& dir) {
  auto read = [&](const char* f) {
    return mmx::rt::readMatrixFile(dir + "/" + f);
  };
  Matrix plane = read("plane.mmx");
  std::vector<Reference> refs;
  auto add = [&](const char* name, Sum s, double rtol) {
    refs.push_back({name, s.value, s.mag, rtol});
  };
  // Tolerances cover float accumulation order (the backends vectorize and
  // split folds across threads) and printFloat's six significant digits.
  add("tmean", tmean(read("field.mmx")), 1e-4);
  add("eddy", eddy(read("eddy.mmx")), 1e-3);
  add("chain", chain(plane, 19), 1e-4);
  add("hostloop", hostloop(plane, 19), 1e-4);
  add("matmul", matmul(read("a.mmx"), read("b.mmx")), 1e-3);
  return refs;
}

void writeReferences(const std::vector<Reference>& refs,
                     const std::string& dir) {
  std::ofstream out(dir + "/refs.json");
  out << "{";
  for (size_t i = 0; i < refs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"mag\": %.17g, "
                  "\"rtol\": %g}",
                  i ? ", " : "", refs[i].program.c_str(), refs[i].value,
                  refs[i].mag, refs[i].rtol);
    out << buf;
  }
  out << "}\n";
  if (!out) throw std::runtime_error("cannot write " + dir + "/refs.json");
}

} // namespace pb
