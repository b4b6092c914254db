// Internal registry shared by the per-ISA kernel translation units and the
// dispatcher. Each accessor returns the level's table, or nullptr when the
// TU was compiled without the matching ISA flags (the stub bodies in
// kernels_avx*.cpp), so dispatch can probe what this binary contains
// without any preprocessor coupling.
#pragma once

#include "linalg/kernels/kernels.hpp"

namespace bmf::linalg::kernels {

const KernelTable* scalar_table();  // never nullptr
const KernelTable* avx2_table();    // nullptr unless built with AVX2+FMA
const KernelTable* avx512_table();  // nullptr unless built with AVX-512

// The one vector rotate_sweeps, shared by the AVX2 and AVX-512 tables: its
// results are bitwise the scalar table's at any width, and 512-bit panels
// ran no faster. Defined only when the AVX2 TU is built with AVX2+FMA
// (the AVX-512 TU is built only then; see CMakeLists.txt).
void rotate_sweeps_avx2(const RotationSweep* sweeps, std::size_t nsweeps,
                        const double* cs, double* z, std::size_t ldz,
                        std::size_t cols);

}  // namespace bmf::linalg::kernels
