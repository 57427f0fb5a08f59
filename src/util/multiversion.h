// Manual function multiversioning (docs/performance.md). A hot kernel
// is written once as a force-inlined body, instantiated into per-ISA
// variants (baseline, x86-64-v3 = AVX2+FMA, x86-64-v4 = AVX-512) with
// NCSW_TARGET_V3/V4, and dispatched once at first call via isa_level().
// The fast tier's kernels get wide vectors and FMA this way; the exact
// tier's GEMM (8 lanes at v3, 16 at v4), span converters and the loops
// around them (isa_variant below) get wide vectors only, because
// src/CMakeLists.txt compiles every library TU with -ffp-contract=off
// and only the fast-tier TUs opt back in. Bit-identity therefore
// follows from the contraction flag, not from the ISA the compiler
// happens to target.
//
// GCC's target_clones attribute is deliberately NOT used: as of GCC 12
// it pessimises the cloned bodies (accumulator arrays spill to the
// stack and vectorise at XMM width only, ~15x slower than the same
// source compiled with -march=x86-64-v3), while the plain target
// attribute on explicit variants produces the expected code.
//
// On toolchains/architectures without the target attribute the macros
// expand to nothing, every variant compiles as baseline code, and the
// kernels simply run at baseline speed.
#pragma once

namespace ncsw::util {

/// x86-64 microarchitecture feature level of the running machine.
enum class IsaLevel { kBase, kV3, kV4 };

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
// GCC only: clang spells the target attribute differently ("arch=" takes
// CPU names, not feature levels) and falls back to baseline codegen.
// The levels are spelled as features added to the baseline flags, not
// as "arch=x86-64-v3": a variant must enable a superset of the
// baseline's features for the always_inline body to inline into it, and
// an "arch=" level drops whatever the baseline has beyond it (AVX-512
// under -march=native, AES under -march=haswell). On a baseline that
// already covers a level the attribute adds nothing and the variant is
// the body at baseline codegen.
#define NCSW_TARGET_V3 \
  __attribute__((target("avx2,fma,f16c,bmi,bmi2,lzcnt,movbe,popcnt")))
#define NCSW_TARGET_V4                                                   \
  __attribute__((target("avx2,fma,f16c,bmi,bmi2,lzcnt,movbe,popcnt,"   \
                        "avx512f,avx512bw,avx512cd,avx512dq,avx512vl")))
// For the F16C span converters: AVX + the conversion instructions only,
// so they also run on pre-AVX2 machines that still have F16C.
#define NCSW_TARGET_F16C __attribute__((target("avx,f16c")))
inline IsaLevel isa_level() noexcept {
  static const IsaLevel level = [] {
    __builtin_cpu_init();
    // Spelled as individual features (stable across GCC/clang versions)
    // rather than the newer "x86-64-v3" level strings.
    const bool v3 = __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma") &&
                    __builtin_cpu_supports("bmi2") &&
                    __builtin_cpu_supports("f16c");
    const bool v4 = v3 && __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512bw") &&
                    __builtin_cpu_supports("avx512dq") &&
                    __builtin_cpu_supports("avx512vl");
    return v4 ? IsaLevel::kV4 : (v3 ? IsaLevel::kV3 : IsaLevel::kBase);
  }();
  return level;
}
#else
#define NCSW_TARGET_V3
#define NCSW_TARGET_V4
inline IsaLevel isa_level() noexcept { return IsaLevel::kBase; }
#endif

// Forces a kernel body into its per-ISA variants so each variant
// recompiles the loops at its own vector width.
#define NCSW_FAST_INLINE inline __attribute__((always_inline))

// A loop body multiversioned without writing its variants out: `Body` is
// a struct with a `using Args = ...;` and an NCSW_FAST_INLINE
// `operator()(const Args&) const noexcept`, and isa_variant<Body>(level)
// returns Body's instantiation at `level`. A kernel picks its variants
// once per call (never per plane or row) and hands the pointer to its
// chunks. The level comes from isa_level(), or from a test or benchmark
// pinning one variant; it must not exceed isa_level(). Every variant
// compiles the same source under -ffp-contract=off, so the exact tier's
// bits do not depend on the level. Args travel by value: a local copy
// that no store through its pointers can alias (a byte or float store
// could alias a caller's struct), so its scalars stay in registers and
// the loops vectorise.
template <typename Body>
using IsaFn = void (*)(typename Body::Args) noexcept;

template <typename Body>
void isa_base(typename Body::Args args) noexcept {
  Body{}(args);
}
template <typename Body>
NCSW_TARGET_V3 void isa_v3(typename Body::Args args) noexcept {
  Body{}(args);
}
template <typename Body>
NCSW_TARGET_V4 void isa_v4(typename Body::Args args) noexcept {
  Body{}(args);
}

template <typename Body>
IsaFn<Body> isa_variant(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kV4:
      return isa_v4<Body>;
    case IsaLevel::kV3:
      return isa_v3<Body>;
    case IsaLevel::kBase:
      break;
  }
  return isa_base<Body>;
}

}  // namespace ncsw::util

// 8-lane FP32 vector in GCC's generic vector extension, 4-byte aligned
// so it loads/stores from arbitrary float*. The fast-tier kernels and
// the exact GEMM tile write their hot loops against such vectors instead
// of scalar arrays because GCC 12's auto-vectorizer only emits wide code
// for those loops when the panel strides are compile-time constants; the
// generic-vector form lowers unconditionally to the widest ISA the
// enclosing function targets (2 x 16-byte ops on the baseline build, ymm
// under NCSW_TARGET_V3/V4; a 16-lane vector is one zmm under
// NCSW_TARGET_V4), and a scalar * vector product broadcasts the scalar.
// Keep vectors out of function parameters/returns — locals and
// always_inline bodies only — so the baseline instantiation does not
// trip -Wpsabi ABI notes. Do not pass such a typedef as a template
// argument: GCC 12 drops its aligned(4) attribute there, and a
// dereference becomes an aligned move that faults on unaligned rows.
// Templated code declares its vector type inside the body instead (the
// exact GEMM tile in tensor/gemm.cpp).
// Both GCC and clang implement the extension; this tree does not
// target other compilers (CMakeLists assumes a GNU-compatible driver).
typedef float NCSW_V8F __attribute__((vector_size(32), aligned(4)));
