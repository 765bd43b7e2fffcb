// The benchmark corpus: six extended-C programs and the seeded input files
// the runnable ones read with readMatrix. Every program prints one
// checksum line; oracle.hpp computes the same checksum independently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Program {
  std::string name;   // tmean, eddy, chain, hostloop, matmul, large
  std::string source; // extended C; reads its inputs by relative path
  bool runnable;      // false for the compile-only `large`
};

/// The six programs in a fixed order. `seed` only changes `large` (which
/// kernels it replicates and their constants); the runnable programs'
/// texts are fixed and their inputs come from writeInputs().
std::vector<Program> corpus(uint64_t seed);

/// Writes every input file into `dir` from `seed`: the SSH fields for
/// tmean and eddy (rt::synthesizeSsh with SshParams.seed = seed) and the
/// uniform operands of chain, hostloop and matmul. `scale` multiplies the
/// tmean field's two space dimensions and the matmul order; eddy and the
/// L2-resident plane keep their size.
void writeInputs(uint64_t seed, int scale, const std::string& dir);

/// Writes the program sources as `<dir>/<name>.xc`.
void writePrograms(const std::vector<Program>& progs, const std::string& dir);

} // namespace pb
