#include "util/libm_span.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/multiversion.h"

// The port needs GCC's per-function target attribute (multiversion.h)
// and glibc's FMA-dispatched powf and log, which glibc 2.28 introduced.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 28)
#define NCSW_LIBM_PORT 1
// GCC 12 flags the AVX-512 intrinsics' own _mm512_undefined_* pass-through
// operands as maybe-uninitialized once they inline (a false positive).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#endif
#endif

namespace ncsw::util {

#ifdef NCSW_LIBM_PORT
namespace {

// Every vector operation below mirrors one instruction of glibc's
// __powf_fma / __log_fma: a _fmadd_ where their code has vfmadd, a plain
// add/sub/mul elsewhere. Operands of a commutative operation may appear
// in either order (the result is the same).
#define NCSW_V4_INLINE NCSW_TARGET_V4 inline __attribute__((always_inline))

// ---- powf (glibc sysdeps/ieee754/flt-32/e_powf.c) -------------------
// __powf_log2_data.tab: {invc, logc} for each of 1 << POWF_LOG2_TABLE_BITS
// = 16 cells, flattened. x86 has no TOINT_INTRINSICS, so POWF_SCALE_BITS
// = 0 and the tables are unscaled.
alignas(64) constexpr double kPowfTab[32] = {
    0x1.661ec79f8f3bep+0, -0x1.efec65b963019p-2,
    0x1.571ed4aaf883dp+0, -0x1.b0b6832d4fca4p-2,
    0x1.49539f0f010b0p+0, -0x1.7418b0a1fb77bp-2,
    0x1.3c995b0b80385p+0, -0x1.39de91a6dcf7bp-2,
    0x1.30d190c8864a5p+0, -0x1.01d9bf3f2b631p-2,
    0x1.25e227b0b8ea0p+0, -0x1.97c1d1b3b7af0p-3,
    0x1.1bb4a4a1a343fp+0, -0x1.2f9e393af3c9fp-3,
    0x1.12358f08ae5bap+0, -0x1.960cbbf788d5cp-4,
    0x1.0953f419900a7p+0, -0x1.a6f9db6475fcep-5,
    0x1.0000000000000p+0, 0x0p+0,
    0x1.e608cfd9a47acp-1, 0x1.338ca9f24f53dp-4,
    0x1.ca4b31f026aa0p-1, 0x1.476a9543891bap-3,
    0x1.b2036576afce6p-1, 0x1.e840b4ac4e4d2p-3,
    0x1.9c2d163a1aa2dp-1, 0x1.40645f0c6651cp-2,
    0x1.886e6037841edp-1, 0x1.88e9c2c1b9ff8p-2,
    0x1.767dcf5534862p-1, 0x1.ce0a44eb17bccp-2,
};
constexpr double kPowfPoly[5] = {
    0x1.27616c9496e0bp-2, -0x1.71969a075c67ap-2, 0x1.ec70a6ca7baddp-2,
    -0x1.7154748bef6c8p-1, 0x1.71547652ab82bp+0};
constexpr std::uint32_t kPowfOff = 0x3f330000;
// __exp2f_data: EXP2F_TABLE_BITS = 5; tab[i] = bits of 2^(i/32) minus
// i << 47.
alignas(64) constexpr std::uint64_t kExp2fTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574,
    0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb,
    0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82,
    0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5,
    0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47,
    0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExp2fShift = 0x1.8p+47;  // shift_scaled: 0x1.8p+52 / 32
constexpr double kExp2fPoly[3] = {0x1.c6af84b912394p-5, 0x1.ebfce50fac4f3p-3,
                                  0x1.62e42ff0c52d6p-1};
// |y log2 x| >= 126: glibc's overflow/underflow test on the top 16 bits
// (below the sign) of y*log2(x).
constexpr std::uint64_t kPowfBigTop = 0x405f800000000000ULL >> 47;  // 126.0

NCSW_V4_INLINE __m512d set(double v) { return _mm512_set1_pd(v); }

// Eight powf lanes of x (as bits) at a y that is not 0, inf or NaN;
// `off` gets the lanes glibc takes off its main path.
NCSW_V4_INLINE __m256 powf8(__m256i ix, __m512d yd, __mmask8& off) {
  // Either x < 0x1p-126, negative, inf or NaN.
  const __mmask8 special = _mm256_cmpge_epu32_mask(
      _mm256_sub_epi32(ix, _mm256_set1_epi32(0x00800000)),
      _mm256_set1_epi32(0x7f800000 - 0x00800000));

  // log2_inline: x = 2^k z, z in [OFF, 2 OFF], cell i holds z.
  const __m256i tmp =
      _mm256_sub_epi32(ix, _mm256_set1_epi32(static_cast<int>(kPowfOff)));
  const __m256i cell = _mm256_and_si256(_mm256_srli_epi32(tmp, 23 - 4),
                                        _mm256_set1_epi32(15));
  const __m256i top = _mm256_and_si256(
      tmp, _mm256_set1_epi32(static_cast<int>(0xff800000u)));
  const __m256i iz = _mm256_sub_epi32(ix, top);
  const __m256i k = _mm256_srai_epi32(top, 23);
  // Both 16-cell columns, deinterleaved from {invc, logc} pairs.
  const __m512i i2 = _mm512_slli_epi64(_mm512_cvtepu32_epi64(cell), 1);
  const __m512d lo_pairs = _mm512_loadu_pd(kPowfTab);
  const __m512d hi_pairs = _mm512_loadu_pd(kPowfTab + 8);
  const __m512d lo2 = _mm512_loadu_pd(kPowfTab + 16);
  const __m512d hi2 = _mm512_loadu_pd(kPowfTab + 24);
  // Lanes of i2 are 2i in [0, 32): bit 4 picks the upper 16 doubles.
  const __mmask8 upper =
      _mm512_test_epi64_mask(i2, _mm512_set1_epi64(16));
  const __m512d invc = _mm512_mask_blend_pd(
      upper, _mm512_permutex2var_pd(lo_pairs, i2, hi_pairs),
      _mm512_permutex2var_pd(lo2, i2, hi2));
  const __m512i i2_logc = _mm512_add_epi64(i2, _mm512_set1_epi64(1));
  const __m512d logc = _mm512_mask_blend_pd(
      upper, _mm512_permutex2var_pd(lo_pairs, i2_logc, hi_pairs),
      _mm512_permutex2var_pd(lo2, i2_logc, hi2));
  const __m512d z = _mm512_cvtps_pd(_mm256_castsi256_ps(iz));

  const __m512d r = _mm512_fmadd_pd(z, invc, set(-1.0));
  const __m512d y0 = _mm512_add_pd(_mm512_cvtepi32_pd(k), logc);
  __m512d y = _mm512_fmadd_pd(set(kPowfPoly[0]), r, set(kPowfPoly[1]));
  const __m512d p = _mm512_fmadd_pd(set(kPowfPoly[2]), r, set(kPowfPoly[3]));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d q = _mm512_fmadd_pd(set(kPowfPoly[4]), r, y0);
  const __m512d r4 = _mm512_mul_pd(r2, r2);
  q = _mm512_fmadd_pd(p, r2, q);
  y = _mm512_fmadd_pd(y, r4, q);
  const __m512d ylogx = _mm512_mul_pd(yd, y);

  const __m512i ytop = _mm512_and_si512(
      _mm512_srli_epi64(_mm512_castpd_si512(ylogx), 47),
      _mm512_set1_epi64(0xffff));
  off = special | _mm512_cmpge_epu64_mask(
                      ytop, _mm512_set1_epi64(static_cast<long long>(
                                kPowfBigTop)));

  // exp2_inline: ylogx = k/32 + r, r in [-1/64, 1/64].
  __m512d kd = _mm512_add_pd(ylogx, set(kExp2fShift));
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, set(kExp2fShift));
  const __m512d rr = _mm512_sub_pd(ylogx, kd);
  const __m512i j = _mm512_and_si512(ki, _mm512_set1_epi64(31));
  const __mmask8 upper_t =
      _mm512_test_epi64_mask(j, _mm512_set1_epi64(16));
  __m512i t = _mm512_mask_blend_epi64(
      upper_t,
      _mm512_permutex2var_epi64(_mm512_loadu_si512(kExp2fTab), j,
                                _mm512_loadu_si512(kExp2fTab + 8)),
      _mm512_permutex2var_epi64(_mm512_loadu_si512(kExp2fTab + 16), j,
                                _mm512_loadu_si512(kExp2fTab + 24)));
  t = _mm512_add_epi64(t, _mm512_slli_epi64(ki, 52 - 5));  // sign_bias 0
  const __m512d s = _mm512_castsi512_pd(t);
  const __m512d zz =
      _mm512_fmadd_pd(set(kExp2fPoly[0]), rr, set(kExp2fPoly[1]));
  const __m512d rr2 = _mm512_mul_pd(rr, rr);
  __m512d e = _mm512_fmadd_pd(set(kExp2fPoly[2]), rr, set(1.0));
  e = _mm512_fmadd_pd(zz, rr2, e);
  e = _mm512_mul_pd(e, s);
  return _mm512_cvtpd_ps(e);
}

NCSW_TARGET_V4 void pow_span_v4(const float* x, float y, float* out,
                                std::size_t n) noexcept {
  const __m512d yd = set(static_cast<double>(y));
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t m = n - i < 8 ? n - i : 8;
    const auto live = static_cast<__mmask8>((1u << m) - 1u);
    __mmask8 off = 0;
    __m256 r = powf8(_mm256_maskz_loadu_epi32(live, x + i), yd, off);
    off &= live;
    if (off != 0) {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, r);
      for (unsigned bits = off; bits != 0; bits &= bits - 1) {
        const int l = __builtin_ctz(bits);
        lanes[l] = std::pow(x[i + static_cast<std::size_t>(l)], y);
      }
      r = _mm256_load_ps(lanes);
    }
    _mm256_mask_storeu_ps(out + i, live, r);
  }
}

// ---- log (glibc sysdeps/ieee754/dbl-64/e_log.c) ---------------------
// __log_data.tab: {invc, logc} for each of 1 << LOG_TABLE_BITS = 128
// cells, flattened. With FMA, r = fma(z, invc, -1) and tab2 goes unused.
alignas(64) constexpr double kLogTab[256] = {
    0x1.734f0c3e0de9fp+0, -0x1.7cc7f79e69000p-2,
    0x1.713786a2ce91fp+0, -0x1.76feec20d0000p-2,
    0x1.6f26008fab5a0p+0, -0x1.713e31351e000p-2,
    0x1.6d1a61f138c7dp+0, -0x1.6b85b38287800p-2,
    0x1.6b1490bc5b4d1p+0, -0x1.65d5590807800p-2,
    0x1.69147332f0cbap+0, -0x1.602d076180000p-2,
    0x1.6719f18224223p+0, -0x1.5a8ca86909000p-2,
    0x1.6524f99a51ed9p+0, -0x1.54f4356035000p-2,
    0x1.63356aa8f24c4p+0, -0x1.4f637c36b4000p-2,
    0x1.614b36b9ddc14p+0, -0x1.49da7fda85000p-2,
    0x1.5f66452c65c4cp+0, -0x1.445923989a800p-2,
    0x1.5d867b5912c4fp+0, -0x1.3edf439b0b800p-2,
    0x1.5babccb5b90dep+0, -0x1.396ce448f7000p-2,
    0x1.59d61f2d91a78p+0, -0x1.3401e17bda000p-2,
    0x1.5805612465687p+0, -0x1.2e9e2ef468000p-2,
    0x1.56397cee76bd3p+0, -0x1.2941b3830e000p-2,
    0x1.54725e2a77f93p+0, -0x1.23ec58cda8800p-2,
    0x1.52aff42064583p+0, -0x1.1e9e129279000p-2,
    0x1.50f22dbb2bddfp+0, -0x1.1956d2b48f800p-2,
    0x1.4f38f4734ded7p+0, -0x1.141679ab9f800p-2,
    0x1.4d843cfde2840p+0, -0x1.0edd094ef9800p-2,
    0x1.4bd3ec078a3c8p+0, -0x1.09aa518db1000p-2,
    0x1.4a27fc3e0258ap+0, -0x1.047e65263b800p-2,
    0x1.4880524d48434p+0, -0x1.feb224586f000p-3,
    0x1.46dce1b192d0bp+0, -0x1.f474a7517b000p-3,
    0x1.453d9d3391854p+0, -0x1.ea4443d103000p-3,
    0x1.43a2744b4845ap+0, -0x1.e020d44e9b000p-3,
    0x1.420b54115f8fbp+0, -0x1.d60a22977f000p-3,
    0x1.40782da3ef4b1p+0, -0x1.cc00104959000p-3,
    0x1.3ee8f5d57fe8fp+0, -0x1.c202956891000p-3,
    0x1.3d5d9a00b4ce9p+0, -0x1.b81178d811000p-3,
    0x1.3bd60c010c12bp+0, -0x1.ae2c9ccd3d000p-3,
    0x1.3a5242b75dab8p+0, -0x1.a45402e129000p-3,
    0x1.38d22cd9fd002p+0, -0x1.9a877681df000p-3,
    0x1.3755bc5847a1cp+0, -0x1.90c6d69483000p-3,
    0x1.35dce49ad36e2p+0, -0x1.87120a645c000p-3,
    0x1.34679984dd440p+0, -0x1.7d68fb4143000p-3,
    0x1.32f5cceffcb24p+0, -0x1.73cb83c627000p-3,
    0x1.3187775a10d49p+0, -0x1.6a39a9b376000p-3,
    0x1.301c8373e3990p+0, -0x1.60b3154b7a000p-3,
    0x1.2eb4ebb95f841p+0, -0x1.5737d76243000p-3,
    0x1.2d50a0219a9d1p+0, -0x1.4dc7b8fc23000p-3,
    0x1.2bef9a8b7fd2ap+0, -0x1.4462c51d20000p-3,
    0x1.2a91c7a0c1babp+0, -0x1.3b08abc830000p-3,
    0x1.293726014b530p+0, -0x1.31b996b490000p-3,
    0x1.27dfa5757a1f5p+0, -0x1.2875490a44000p-3,
    0x1.268b39b1d3bbfp+0, -0x1.1f3b9f879a000p-3,
    0x1.2539d838ff5bdp+0, -0x1.160c8252ca000p-3,
    0x1.23eb7aac9083bp+0, -0x1.0ce7f57f72000p-3,
    0x1.22a012ba940b6p+0, -0x1.03cdc49fea000p-3,
    0x1.2157996cc4132p+0, -0x1.f57bdbc4b8000p-4,
    0x1.201201dd2fc9bp+0, -0x1.e370896404000p-4,
    0x1.1ecf4494d480bp+0, -0x1.d17983ef94000p-4,
    0x1.1d8f5528f6569p+0, -0x1.bf9674ed8a000p-4,
    0x1.1c52311577e7cp+0, -0x1.adc79202f6000p-4,
    0x1.1b17c74cb26e9p+0, -0x1.9c0c3e7288000p-4,
    0x1.19e010c2c1ab6p+0, -0x1.8a646b372c000p-4,
    0x1.18ab07bb670bdp+0, -0x1.78d01b3ac0000p-4,
    0x1.1778a25efbcb6p+0, -0x1.674f145380000p-4,
    0x1.1648d354c31dap+0, -0x1.55e0e6d878000p-4,
    0x1.151b990275fddp+0, -0x1.4485cdea1e000p-4,
    0x1.13f0ea432d24cp+0, -0x1.333d94d6aa000p-4,
    0x1.12c8b7210f9dap+0, -0x1.22079f8c56000p-4,
    0x1.11a3028ecb531p+0, -0x1.10e4698622000p-4,
    0x1.107fbda8434afp+0, -0x1.ffa6c6ad20000p-5,
    0x1.0f5ee0f4e6bb3p+0, -0x1.dda8d4a774000p-5,
    0x1.0e4065d2a9fcep+0, -0x1.bbcece4850000p-5,
    0x1.0d244632ca521p+0, -0x1.9a1894012c000p-5,
    0x1.0c0a77ce2981ap+0, -0x1.788583302c000p-5,
    0x1.0af2f83c636d1p+0, -0x1.5715e67d68000p-5,
    0x1.09ddb98a01339p+0, -0x1.35c8a49658000p-5,
    0x1.08cabaf52e7dfp+0, -0x1.149e364154000p-5,
    0x1.07b9f2f4e28fbp+0, -0x1.e72c082eb8000p-6,
    0x1.06ab58c358f19p+0, -0x1.a55f152528000p-6,
    0x1.059eea5ecf92cp+0, -0x1.63d62cf818000p-6,
    0x1.04949cdd12c90p+0, -0x1.228fb8caa0000p-6,
    0x1.038c6c6f0ada9p+0, -0x1.c317b20f90000p-7,
    0x1.02865137932a9p+0, -0x1.419355daa0000p-7,
    0x1.0182427ea7348p+0, -0x1.81203c2ec0000p-8,
    0x1.008040614b195p+0, -0x1.0040979240000p-9,
    0x1.fe01ff726fa1ap-1, 0x1.feff384900000p-9,
    0x1.fa11cc261ea74p-1, 0x1.7dc41353d0000p-7,
    0x1.f6310b081992ep-1, 0x1.3cea3c4c28000p-6,
    0x1.f25f63ceeadcdp-1, 0x1.b9fc114890000p-6,
    0x1.ee9c8039113e7p-1, 0x1.1b0d8ce110000p-5,
    0x1.eae8078cbb1abp-1, 0x1.58a5bd001c000p-5,
    0x1.e741aa29d0c9bp-1, 0x1.95c8340d88000p-5,
    0x1.e3a91830a99b5p-1, 0x1.d276aef578000p-5,
    0x1.e01e009609a56p-1, 0x1.07598e598c000p-4,
    0x1.dca01e577bb98p-1, 0x1.253f5e30d2000p-4,
    0x1.d92f20b7c9103p-1, 0x1.42edd8b380000p-4,
    0x1.d5cac66fb5ccep-1, 0x1.606598757c000p-4,
    0x1.d272caa5ede9dp-1, 0x1.7da76356a0000p-4,
    0x1.cf26e3e6b2ccdp-1, 0x1.9ab434e1c6000p-4,
    0x1.cbe6da2a77902p-1, 0x1.b78c7bb0d6000p-4,
    0x1.c8b266d37086dp-1, 0x1.d431332e72000p-4,
    0x1.c5894bd5d5804p-1, 0x1.f0a3171de6000p-4,
    0x1.c26b533bb9f8cp-1, 0x1.067152b914000p-3,
    0x1.bf583eeece73fp-1, 0x1.147858292b000p-3,
    0x1.bc4fd75db96c1p-1, 0x1.2266ecdca3000p-3,
    0x1.b951e0c864a28p-1, 0x1.303d7a6c55000p-3,
    0x1.b65e2c5ef3e2cp-1, 0x1.3dfc33c331000p-3,
    0x1.b374867c9888bp-1, 0x1.4ba366b7a8000p-3,
    0x1.b094b211d304ap-1, 0x1.5933928d1f000p-3,
    0x1.adbe885f2ef7ep-1, 0x1.66acd2418f000p-3,
    0x1.aaf1d31603da2p-1, 0x1.740f8ec669000p-3,
    0x1.a82e63fd358a7p-1, 0x1.815c0f51af000p-3,
    0x1.a5740ef09738bp-1, 0x1.8e92954f68000p-3,
    0x1.a2c2a90ab4b27p-1, 0x1.9bb3602f84000p-3,
    0x1.a01a01393f2d1p-1, 0x1.a8bed1c2c0000p-3,
    0x1.9d79f24db3c1bp-1, 0x1.b5b515c01d000p-3,
    0x1.9ae2505c7b190p-1, 0x1.c2967ccbcc000p-3,
    0x1.9852ef297ce2fp-1, 0x1.cf635d5486000p-3,
    0x1.95cbaeea44b75p-1, 0x1.dc1bd3446c000p-3,
    0x1.934c69de74838p-1, 0x1.e8c01b8cfe000p-3,
    0x1.90d4f2f6752e6p-1, 0x1.f5509c0179000p-3,
    0x1.8e6528effd79dp-1, 0x1.00e6c121fb800p-2,
    0x1.8bfce9fcc007cp-1, 0x1.071b80e93d000p-2,
    0x1.899c0dabec30ep-1, 0x1.0d46b9e867000p-2,
    0x1.87427aa2317fbp-1, 0x1.13687334bd000p-2,
    0x1.84f00acb39a08p-1, 0x1.1980d67234800p-2,
    0x1.82a49e8653e55p-1, 0x1.1f8ffe0cc8000p-2,
    0x1.8060195f40260p-1, 0x1.2595fd7636800p-2,
    0x1.7e22563e0a329p-1, 0x1.2b9300914a800p-2,
    0x1.7beb377dcb5adp-1, 0x1.3187210436000p-2,
    0x1.79baa679725c2p-1, 0x1.377266dec1800p-2,
    0x1.77907f2170657p-1, 0x1.3d54ffbaf3000p-2,
    0x1.756cadbd6130cp-1, 0x1.432eee32fe000p-2,
};
constexpr double kLn2Hi = 0x1.62e42fefa3800p-1;
constexpr double kLn2Lo = 0x1.ef35793c76730p-45;
constexpr double kLogPoly[5] = {-0x1.0000000000001p-1, 0x1.555555551305bp-2,
                                -0x1.fffffffeb4590p-3, 0x1.999b324f10111p-3,
                                -0x1.55575e506c89fp-3};
constexpr double kLogPoly1[11] = {
    -0x1p-1,               0x1.5555555555577p-2,  -0x1.ffffffffffdcbp-3,
    0x1.999999995dd0cp-3,  -0x1.55555556745a7p-3, 0x1.24924a344de30p-3,
    -0x1.fffffa4423d65p-4, 0x1.c7184282ad6cap-4,  -0x1.999eb43b068ffp-4,
    0x1.78182f7afd085p-4,  -0x1.5521375d145cdp-4};
constexpr std::uint64_t kLogOff = 0x3fe6000000000000ULL;
// The near-1 window [1 - 0x1p-4, 1 + 0x1.09p-4) as bit patterns.
constexpr std::uint64_t kNearLo = 0x3fee000000000000ULL;
constexpr std::uint64_t kNearHi = 0x3ff1090000000000ULL;

NCSW_V4_INLINE __m512i set64(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// Eight log lanes of x (as bits); `off` gets the lanes glibc takes off
// both computed paths (x < 0x1p-1022, negative, inf or NaN).
NCSW_V4_INLINE __m512d log8(__m512i ix, __mmask8& off) {
  const __m512d x = _mm512_castsi512_pd(ix);
  const __mmask8 near = _mm512_cmplt_epu64_mask(
      _mm512_sub_epi64(ix, set64(kNearLo)), set64(kNearHi - kNearLo));
  const __mmask8 normal = _mm512_cmplt_epu64_mask(
      _mm512_sub_epi64(_mm512_srli_epi64(ix, 48), set64(0x0010)),
      set64(0x7ff0 - 0x0010));
  off = static_cast<__mmask8>(~(near | normal));

  // Main path: x = 2^k z, z in [OFF, 2 OFF), cell i holds z.
  const __m512i tmp = _mm512_sub_epi64(ix, set64(kLogOff));
  const __m512i i2 = _mm512_slli_epi64(
      _mm512_and_si512(_mm512_srli_epi64(tmp, 52 - 7), set64(127)), 1);
  const __m512i k = _mm512_srai_epi64(tmp, 52);
  const __m512i iz =
      _mm512_sub_epi64(ix, _mm512_and_si512(tmp, set64(0xfffULL << 52)));
  const __m512d invc = _mm512_i64gather_pd(i2, kLogTab, 8);
  const __m512d logc = _mm512_i64gather_pd(i2, kLogTab + 1, 8);
  const __m512d z = _mm512_castsi512_pd(iz);
  const __m512d kd = _mm512_cvtepi64_pd(k);

  const __m512d w = _mm512_fmadd_pd(kd, set(kLn2Hi), logc);
  const __m512d r = _mm512_fmadd_pd(z, invc, set(-1.0));
  const __m512d hi = _mm512_add_pd(w, r);
  __m512d lo = _mm512_add_pd(_mm512_sub_pd(w, hi), r);
  lo = _mm512_fmadd_pd(kd, set(kLn2Lo), lo);
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d r3 = _mm512_mul_pd(r, r2);
  const __m512d p = _mm512_fmadd_pd(
      _mm512_fmadd_pd(r, set(kLogPoly[4]), set(kLogPoly[3])), r2,
      _mm512_fmadd_pd(r, set(kLogPoly[2]), set(kLogPoly[1])));
  lo = _mm512_fmadd_pd(r2, set(kLogPoly[0]), lo);
  const __m512d y = _mm512_add_pd(_mm512_fmadd_pd(r3, p, lo), hi);

  // Near 1: log1p(x - 1) by poly1, its leading terms split into rhi+rlo.
  const __m512d b = _mm512_sub_pd(x, set(1.0));
  const __m512d b2 = _mm512_mul_pd(b, b);
  const __m512d b3 = _mm512_mul_pd(b, b2);
  const double* c = kLogPoly1;
  __m512d q1 = _mm512_fmadd_pd(b, set(c[2]), set(c[1]));
  q1 = _mm512_fmadd_pd(b2, set(c[3]), q1);
  __m512d q4 = _mm512_fmadd_pd(b, set(c[5]), set(c[4]));
  q4 = _mm512_fmadd_pd(b2, set(c[6]), q4);
  __m512d q7 = _mm512_fmadd_pd(b, set(c[8]), set(c[7]));
  q7 = _mm512_fmadd_pd(b2, set(c[9]), q7);
  q7 = _mm512_fmadd_pd(b3, set(c[10]), q7);
  q4 = _mm512_fmadd_pd(q7, b3, q4);
  q1 = _mm512_fmadd_pd(q4, b3, q1);
  // rhi = b + w - w with w = b * 0x1p27: glibc fuses both uses of w.
  const __m512d bw = _mm512_fmadd_pd(b, set(0x1p27), b);
  const __m512d bhi = _mm512_fnmadd_pd(set(0x1p27), b, bw);
  const __m512d blo = _mm512_sub_pd(b, bhi);
  const __m512d bhi2 = _mm512_mul_pd(bhi, bhi);
  const __m512d nhi = _mm512_fmadd_pd(bhi2, set(c[0]), b);
  __m512d nlo = _mm512_fmadd_pd(bhi2, set(c[0]), _mm512_sub_pd(b, nhi));
  nlo = _mm512_fmadd_pd(_mm512_mul_pd(set(c[0]), blo), _mm512_add_pd(b, bhi),
                        nlo);
  const __m512d ny = _mm512_add_pd(nhi, _mm512_fmadd_pd(q1, b3, nlo));

  return _mm512_mask_blend_pd(near, y, ny);
}

NCSW_TARGET_V4 void log_span_v4(const double* x, double* out,
                                std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t m = n - i < 8 ? n - i : 8;
    const auto live = static_cast<__mmask8>((1u << m) - 1u);
    __mmask8 off = 0;
    __m512d r = log8(_mm512_maskz_loadu_epi64(live, x + i), off);
    off &= live;
    if (off != 0) {
      alignas(64) double lanes[8];
      _mm512_store_pd(lanes, r);
      for (unsigned bits = off; bits != 0; bits &= bits - 1) {
        const int l = __builtin_ctz(bits);
        lanes[l] = std::log(x[i + static_cast<std::size_t>(l)]);
      }
      r = _mm512_load_pd(lanes);
    }
    _mm512_mask_storeu_pd(out + i, live, r);
  }
}

#undef NCSW_V4_INLINE

}  // namespace
#endif  // NCSW_LIBM_PORT

bool libm_span_ported() noexcept {
#ifdef NCSW_LIBM_PORT
  return isa_level() == IsaLevel::kV4;
#else
  return false;
#endif
}

void pow_span(const float* x, float y, float* out, std::size_t n) noexcept {
#ifdef NCSW_LIBM_PORT
  std::uint32_t iy = 0;
  std::memcpy(&iy, &y, sizeof(iy));
  // glibc's zeroinfnan(y): y of 0, inf or NaN leaves the main path for
  // every x.
  const bool y_special = 2 * iy - 1 >= 2u * 0x7f800000 - 1;
  if (!y_special && libm_span_ported()) {
    pow_span_v4(x, y, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = std::pow(x[i], y);
}

void log_span(const double* x, double* out, std::size_t n) noexcept {
#ifdef NCSW_LIBM_PORT
  if (libm_span_ported()) {
    log_span_v4(x, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = std::log(x[i]);
}

}  // namespace ncsw::util
