// Matrix compute kernels: element-wise arithmetic (scalar and SSE),
// scalar broadcast, comparisons producing boolean matrices, matrix
// multiply, and reductions. The lowered with-loop code calls these for
// whole-matrix operator expressions (m1 + m2, ssh < i, ...); benches
// compare scalar vs SIMD vs parallel variants.
#pragma once

#include <cstdint>

#include "runtime/matrix.hpp"
#include "runtime/pool.hpp"

namespace mmx::rt {

/// Binary element-wise operators of the extension (§III-A2). Mul is
/// element-wise ('.*'); linear-algebra multiply is matmul() below.
enum class BinOp : uint8_t { Add, Sub, Mul, Div, Mod, Min, Max };
/// Comparisons produce Bool matrices (logical indexing, `ssh < i`).
enum class CmpOp : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

/// Bool matrix of element-wise comparisons; b broadcast when scalar.
void ewCompare(Executor& exec, CmpOp op, const Matrix& a, const Matrix& b,
               Matrix& out);
void ewCompareScalarF(Executor& exec, CmpOp op, const Matrix& a, float s,
                      Matrix& out);
void ewCompareScalarI(Executor& exec, CmpOp op, const Matrix& a, int32_t s,
                      Matrix& out);

/// Linear-algebra product of two rank-2 matrices (f32 or i32). Dispatches
/// through the active kernel backend (backend.hpp); defined in
/// backend.cpp.
Matrix matmul(Executor& exec, const Matrix& a, const Matrix& b);

/// Full reduction (fold over every element).
float reduceF32(Executor& exec, BinOp op, float init, const Matrix& a,
                bool simd);
int32_t reduceI32(Executor& exec, BinOp op, int32_t init, const Matrix& a);

/// Sum along the innermost dimension of a rank-3 f32 matrix into a rank-2
/// result — the fused temporal-mean kernel of Fig. 1/Fig. 3, exposed
/// directly so benches can compare against the unfused (slice-copying)
/// formulation.
void sumInnermost3D(Executor& exec, const Matrix& a, Matrix& out, bool simd);

} // namespace mmx::rt
