// Independent reference checksums for the runnable programs, computed in
// plain C++ from the same input files the programs read. Nothing here
// goes through the translator, the interpreter or the runtime kernels.
#pragma once

#include <string>
#include <vector>

namespace pb {

struct Reference {
  std::string program;
  double value; // the checksum the program should print
  double mag;   // sum of the magnitudes of its terms, the tolerance scale
  double rtol;  // accepted |printed - value| / mag
};

/// References for tmean, eddy, chain, hostloop and matmul over the inputs
/// in `dir` (written by writeInputs()).
std::vector<Reference> references(const std::string& dir);

/// Writes `refs` as `<dir>/refs.json`, the file run.py checks outputs
/// against.
void writeReferences(const std::vector<Reference>& refs,
                     const std::string& dir);

} // namespace pb
