// Span forms of libm's powf and log that return libm's own bits.
//
// glibc >= 2.28 sends powf and log, on every host with FMA and AVX2, to
// __powf_fma and __log_fma: the ARM optimized-routines algorithms
// compiled with FMA contraction. The x86-64-v4 path here is those two
// routines ported operation for operation to 8 double lanes of AVX-512:
// the same tables (as hex literals), the same operations, and an
// fma exactly where glibc's compiled code has one. The rest of the
// translation unit is built with -ffp-contract=off, so no other
// operation fuses, and every lane on glibc's main path rounds exactly as
// libm does. Lanes off that path (non-normal or negative x, a y of 0,
// inf or NaN, |y log2 x| >= 126), and every call on a host below v4 or
// without glibc >= 2.28, go to libm itself. docs/performance.md ("libm
// at vector width") gives the argument and its limits;
// tests/test_libm_span.cpp checks the spans against the running libm.
//
// The algorithms and tables are from ARM optimized-routines
// (https://github.com/ARM-software/optimized-routines, math/powf.c,
// math/powf_log2_data.c, math/exp2f_data.c, math/log.c,
// math/log_data.c), Copyright (c) 2017-2018 Arm Limited, MIT license
// (SPDX-License-Identifier: MIT), as shipped in glibc's
// sysdeps/ieee754/{flt-32,dbl-64}.
#pragma once

#include <cstddef>

namespace ncsw::util {

/// out[i] = std::pow(x[i], y) for i < n, bit for bit. `out` may equal
/// `x` (in place) but must not overlap it otherwise.
void pow_span(const float* x, float y, float* out, std::size_t n) noexcept;

/// out[i] = std::log(x[i]) for i < n, bit for bit. `out` may equal `x`
/// (in place) but must not overlap it otherwise.
void log_span(const double* x, double* out, std::size_t n) noexcept;

/// True when this build and host run the vector port (x86-64-v4, GCC,
/// glibc >= 2.28); false when both spans are libm loops.
bool libm_span_ported() noexcept;

}  // namespace ncsw::util
