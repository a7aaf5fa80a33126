#include "linalg/simd/simd_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/detail/panel_algos.hpp"
#include "support/check.hpp"
#include "support/cpu.hpp"
#include "support/env.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define PHMSE_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#define PHMSE_SIMD_NEON 1
#include <arm_neon.h>
#endif

// Per-function target attributes: each microkernel set is compiled for its
// own ISA regardless of the translation unit's global -march flags, and the
// resolver below guarantees a set only runs on a CPU that has it.
#if PHMSE_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
#define PHMSE_TGT_AVX512 __attribute__((target("avx512f")))
#define PHMSE_TGT_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace phmse::linalg::simd {
namespace {

using par::KernelStats;
using perf::Category;

constexpr double kBytes = 8.0;  // sizeof(double)

enum class Isa { kScalar, kAvx2, kAvx512, kNeon };

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

// A microkernel set is usable iff it is compiled into this binary and the
// running CPU supports it.
bool isa_usable(Isa isa) {
  const auto& f = support::cpu_features();
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      return f.avx512f;  // the zmm tiles use only AVX-512F ops
    case Isa::kAvx2:
      return f.avx2 && f.fma;
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      return f.neon;
#endif
    case Isa::kScalar:
      return true;
    default:
      return false;
  }
}

Isa resolve_isa() {
  const std::string env = env_string("PHMSE_SIMD_ISA", "");
  if (!env.empty()) {
    Isa forced = Isa::kScalar;
    if (env == "avx512") {
      forced = Isa::kAvx512;
    } else if (env == "avx2") {
      forced = Isa::kAvx2;
    } else if (env == "neon") {
      forced = Isa::kNeon;
    } else {
      PHMSE_CHECK(env == "scalar",
                  "PHMSE_SIMD_ISA: unknown value '" + env +
                      "' (valid: avx512, avx2, neon, scalar)");
    }
    PHMSE_CHECK(isa_usable(forced),
                "PHMSE_SIMD_ISA=" + env +
                    ": microkernel set not available on this build/CPU "
                    "(detected: " +
                    support::cpu_features().summary() + ")");
    return forced;
  }
  if (isa_usable(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_usable(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_usable(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa active() {
  static const Isa isa = resolve_isa();
  return isa;
}

// ---------------------------------------------------------------------------
// GEMM panel microkernels.
//
// All variants compute, for each output element c(i, q),
//
//   c(i, q) = fma(alpha*a(i, kk-1), b(kk-1, q), ... fma(alpha*a(i, 0),
//             b(0, q), init) ...)        init = c(i, q), or 0.0 with `zero`
//
// — one FMA chain over strictly ascending k, the exact per-element
// expression of the blocked kernels (blas.cpp), so results are independent
// of the register tile an element lands in and bitwise stable across lane
// boundaries.  Coefficient addressing is generalized: a row's coefficients
// live at `a0 + r*ars`, stepping `aks` per k (ars=lda/aks=1 for A,
// ars=1/aks=lda for A^T), which lets one kernel serve the nn and tn panels.

#if PHMSE_SIMD_X86

// 4 C rows x 32 columns (4 zmm per row): 16 accumulators live across the
// whole reduction, 8 load micro-ops feed 16 FMAs per k step.
PHMSE_TGT_AVX512 void tile4_avx512(double alpha, const double* a0, Index ars,
                                   Index aks, const double* b, Index ldb,
                                   double* c0, Index ldc, Index kk, Index qn,
                                   bool zero) {
  const double* const a1 = a0 + ars;
  const double* const a2 = a1 + ars;
  const double* const a3 = a2 + ars;
  double* const c1 = c0 + ldc;
  double* const c2 = c1 + ldc;
  double* const c3 = c2 + ldc;
  Index q = 0;
  for (; q + 32 <= qn; q += 32) {
    __m512d r00, r01, r02, r03, r10, r11, r12, r13;
    __m512d r20, r21, r22, r23, r30, r31, r32, r33;
    if (zero) {
      r00 = r01 = r02 = r03 = _mm512_setzero_pd();
      r10 = r11 = r12 = r13 = _mm512_setzero_pd();
      r20 = r21 = r22 = r23 = _mm512_setzero_pd();
      r30 = r31 = r32 = r33 = _mm512_setzero_pd();
    } else {
      r00 = _mm512_loadu_pd(c0 + q);
      r01 = _mm512_loadu_pd(c0 + q + 8);
      r02 = _mm512_loadu_pd(c0 + q + 16);
      r03 = _mm512_loadu_pd(c0 + q + 24);
      r10 = _mm512_loadu_pd(c1 + q);
      r11 = _mm512_loadu_pd(c1 + q + 8);
      r12 = _mm512_loadu_pd(c1 + q + 16);
      r13 = _mm512_loadu_pd(c1 + q + 24);
      r20 = _mm512_loadu_pd(c2 + q);
      r21 = _mm512_loadu_pd(c2 + q + 8);
      r22 = _mm512_loadu_pd(c2 + q + 16);
      r23 = _mm512_loadu_pd(c2 + q + 24);
      r30 = _mm512_loadu_pd(c3 + q);
      r31 = _mm512_loadu_pd(c3 + q + 8);
      r32 = _mm512_loadu_pd(c3 + q + 16);
      r33 = _mm512_loadu_pd(c3 + q + 24);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m512d b0 = _mm512_loadu_pd(bk);
      const __m512d b1 = _mm512_loadu_pd(bk + 8);
      const __m512d b2 = _mm512_loadu_pd(bk + 16);
      const __m512d b3 = _mm512_loadu_pd(bk + 24);
      __m512d av = _mm512_set1_pd(alpha * a0[k * aks]);
      r00 = _mm512_fmadd_pd(av, b0, r00);
      r01 = _mm512_fmadd_pd(av, b1, r01);
      r02 = _mm512_fmadd_pd(av, b2, r02);
      r03 = _mm512_fmadd_pd(av, b3, r03);
      av = _mm512_set1_pd(alpha * a1[k * aks]);
      r10 = _mm512_fmadd_pd(av, b0, r10);
      r11 = _mm512_fmadd_pd(av, b1, r11);
      r12 = _mm512_fmadd_pd(av, b2, r12);
      r13 = _mm512_fmadd_pd(av, b3, r13);
      av = _mm512_set1_pd(alpha * a2[k * aks]);
      r20 = _mm512_fmadd_pd(av, b0, r20);
      r21 = _mm512_fmadd_pd(av, b1, r21);
      r22 = _mm512_fmadd_pd(av, b2, r22);
      r23 = _mm512_fmadd_pd(av, b3, r23);
      av = _mm512_set1_pd(alpha * a3[k * aks]);
      r30 = _mm512_fmadd_pd(av, b0, r30);
      r31 = _mm512_fmadd_pd(av, b1, r31);
      r32 = _mm512_fmadd_pd(av, b2, r32);
      r33 = _mm512_fmadd_pd(av, b3, r33);
    }
    _mm512_storeu_pd(c0 + q, r00);
    _mm512_storeu_pd(c0 + q + 8, r01);
    _mm512_storeu_pd(c0 + q + 16, r02);
    _mm512_storeu_pd(c0 + q + 24, r03);
    _mm512_storeu_pd(c1 + q, r10);
    _mm512_storeu_pd(c1 + q + 8, r11);
    _mm512_storeu_pd(c1 + q + 16, r12);
    _mm512_storeu_pd(c1 + q + 24, r13);
    _mm512_storeu_pd(c2 + q, r20);
    _mm512_storeu_pd(c2 + q + 8, r21);
    _mm512_storeu_pd(c2 + q + 16, r22);
    _mm512_storeu_pd(c2 + q + 24, r23);
    _mm512_storeu_pd(c3 + q, r30);
    _mm512_storeu_pd(c3 + q + 8, r31);
    _mm512_storeu_pd(c3 + q + 16, r32);
    _mm512_storeu_pd(c3 + q + 24, r33);
  }
  for (; q + 8 <= qn; q += 8) {
    __m512d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm512_setzero_pd();
    } else {
      r0 = _mm512_loadu_pd(c0 + q);
      r1 = _mm512_loadu_pd(c1 + q);
      r2 = _mm512_loadu_pd(c2 + q);
      r3 = _mm512_loadu_pd(c3 + q);
    }
    for (Index k = 0; k < kk; ++k) {
      const __m512d bv = _mm512_loadu_pd(b + k * ldb + q);
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]), bv, r0);
      r1 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a1[k * aks]), bv, r1);
      r2 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a2[k * aks]), bv, r2);
      r3 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a3[k * aks]), bv, r3);
    }
    _mm512_storeu_pd(c0 + q, r0);
    _mm512_storeu_pd(c1 + q, r1);
    _mm512_storeu_pd(c2 + q, r2);
    _mm512_storeu_pd(c3 + q, r3);
  }
  if (q < qn) {
    // Masked column tail: lanes past qn never load or store, and the fma on
    // a zeroed lane is dead, so the per-element chain is untouched.
    const __mmask8 mk =
        static_cast<__mmask8>((1u << static_cast<unsigned>(qn - q)) - 1u);
    __m512d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm512_setzero_pd();
    } else {
      r0 = _mm512_maskz_loadu_pd(mk, c0 + q);
      r1 = _mm512_maskz_loadu_pd(mk, c1 + q);
      r2 = _mm512_maskz_loadu_pd(mk, c2 + q);
      r3 = _mm512_maskz_loadu_pd(mk, c3 + q);
    }
    for (Index k = 0; k < kk; ++k) {
      const __m512d bv = _mm512_maskz_loadu_pd(mk, b + k * ldb + q);
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]), bv, r0);
      r1 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a1[k * aks]), bv, r1);
      r2 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a2[k * aks]), bv, r2);
      r3 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a3[k * aks]), bv, r3);
    }
    _mm512_mask_storeu_pd(c0 + q, mk, r0);
    _mm512_mask_storeu_pd(c1 + q, mk, r1);
    _mm512_mask_storeu_pd(c2 + q, mk, r2);
    _mm512_mask_storeu_pd(c3 + q, mk, r3);
  }
}

// Single-row remainder: 1 x 32 then 1 x 8 then a masked tail.
PHMSE_TGT_AVX512 void tile1_avx512(double alpha, const double* a0, Index aks,
                                   const double* b, Index ldb, double* c0,
                                   Index kk, Index qn, bool zero) {
  Index q = 0;
  for (; q + 32 <= qn; q += 32) {
    __m512d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm512_setzero_pd();
    } else {
      r0 = _mm512_loadu_pd(c0 + q);
      r1 = _mm512_loadu_pd(c0 + q + 8);
      r2 = _mm512_loadu_pd(c0 + q + 16);
      r3 = _mm512_loadu_pd(c0 + q + 24);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m512d av = _mm512_set1_pd(alpha * a0[k * aks]);
      r0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk), r0);
      r1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk + 8), r1);
      r2 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk + 16), r2);
      r3 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk + 24), r3);
    }
    _mm512_storeu_pd(c0 + q, r0);
    _mm512_storeu_pd(c0 + q + 8, r1);
    _mm512_storeu_pd(c0 + q + 16, r2);
    _mm512_storeu_pd(c0 + q + 24, r3);
  }
  for (; q + 8 <= qn; q += 8) {
    __m512d r0 = zero ? _mm512_setzero_pd() : _mm512_loadu_pd(c0 + q);
    for (Index k = 0; k < kk; ++k) {
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]),
                           _mm512_loadu_pd(b + k * ldb + q), r0);
    }
    _mm512_storeu_pd(c0 + q, r0);
  }
  if (q < qn) {
    const __mmask8 mk =
        static_cast<__mmask8>((1u << static_cast<unsigned>(qn - q)) - 1u);
    __m512d r0 = zero ? _mm512_setzero_pd() : _mm512_maskz_loadu_pd(mk, c0 + q);
    for (Index k = 0; k < kk; ++k) {
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]),
                           _mm512_maskz_loadu_pd(mk, b + k * ldb + q), r0);
    }
    _mm512_mask_storeu_pd(c0 + q, mk, r0);
  }
}

// 4 C rows x 8 columns (2 ymm per row); AVX2 has 16 vector registers, so
// the tile is sized to keep the 8 accumulators plus B/broadcast temps
// resident.  Column remainders go through exact scalar std::fma chains.
PHMSE_TGT_AVX2 void tile4_avx2(double alpha, const double* a0, Index ars,
                               Index aks, const double* b, Index ldb,
                               double* c0, Index ldc, Index kk, Index qn,
                               bool zero) {
  const double* const a1 = a0 + ars;
  const double* const a2 = a1 + ars;
  const double* const a3 = a2 + ars;
  double* const c1 = c0 + ldc;
  double* const c2 = c1 + ldc;
  double* const c3 = c2 + ldc;
  Index q = 0;
  for (; q + 8 <= qn; q += 8) {
    __m256d r00, r01, r10, r11, r20, r21, r30, r31;
    if (zero) {
      r00 = r01 = _mm256_setzero_pd();
      r10 = r11 = _mm256_setzero_pd();
      r20 = r21 = _mm256_setzero_pd();
      r30 = r31 = _mm256_setzero_pd();
    } else {
      r00 = _mm256_loadu_pd(c0 + q);
      r01 = _mm256_loadu_pd(c0 + q + 4);
      r10 = _mm256_loadu_pd(c1 + q);
      r11 = _mm256_loadu_pd(c1 + q + 4);
      r20 = _mm256_loadu_pd(c2 + q);
      r21 = _mm256_loadu_pd(c2 + q + 4);
      r30 = _mm256_loadu_pd(c3 + q);
      r31 = _mm256_loadu_pd(c3 + q + 4);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m256d b0 = _mm256_loadu_pd(bk);
      const __m256d b1 = _mm256_loadu_pd(bk + 4);
      __m256d av = _mm256_set1_pd(alpha * a0[k * aks]);
      r00 = _mm256_fmadd_pd(av, b0, r00);
      r01 = _mm256_fmadd_pd(av, b1, r01);
      av = _mm256_set1_pd(alpha * a1[k * aks]);
      r10 = _mm256_fmadd_pd(av, b0, r10);
      r11 = _mm256_fmadd_pd(av, b1, r11);
      av = _mm256_set1_pd(alpha * a2[k * aks]);
      r20 = _mm256_fmadd_pd(av, b0, r20);
      r21 = _mm256_fmadd_pd(av, b1, r21);
      av = _mm256_set1_pd(alpha * a3[k * aks]);
      r30 = _mm256_fmadd_pd(av, b0, r30);
      r31 = _mm256_fmadd_pd(av, b1, r31);
    }
    _mm256_storeu_pd(c0 + q, r00);
    _mm256_storeu_pd(c0 + q + 4, r01);
    _mm256_storeu_pd(c1 + q, r10);
    _mm256_storeu_pd(c1 + q + 4, r11);
    _mm256_storeu_pd(c2 + q, r20);
    _mm256_storeu_pd(c2 + q + 4, r21);
    _mm256_storeu_pd(c3 + q, r30);
    _mm256_storeu_pd(c3 + q + 4, r31);
  }
  for (; q + 4 <= qn; q += 4) {
    __m256d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm256_setzero_pd();
    } else {
      r0 = _mm256_loadu_pd(c0 + q);
      r1 = _mm256_loadu_pd(c1 + q);
      r2 = _mm256_loadu_pd(c2 + q);
      r3 = _mm256_loadu_pd(c3 + q);
    }
    for (Index k = 0; k < kk; ++k) {
      const __m256d bv = _mm256_loadu_pd(b + k * ldb + q);
      r0 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a0[k * aks]), bv, r0);
      r1 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a1[k * aks]), bv, r1);
      r2 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a2[k * aks]), bv, r2);
      r3 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a3[k * aks]), bv, r3);
    }
    _mm256_storeu_pd(c0 + q, r0);
    _mm256_storeu_pd(c1 + q, r1);
    _mm256_storeu_pd(c2 + q, r2);
    _mm256_storeu_pd(c3 + q, r3);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    double s1 = zero ? 0.0 : c1[q];
    double s2 = zero ? 0.0 : c2[q];
    double s3 = zero ? 0.0 : c3[q];
    for (Index k = 0; k < kk; ++k) {
      const double bv = b[k * ldb + q];
      s0 = std::fma(alpha * a0[k * aks], bv, s0);
      s1 = std::fma(alpha * a1[k * aks], bv, s1);
      s2 = std::fma(alpha * a2[k * aks], bv, s2);
      s3 = std::fma(alpha * a3[k * aks], bv, s3);
    }
    c0[q] = s0;
    c1[q] = s1;
    c2[q] = s2;
    c3[q] = s3;
  }
}

PHMSE_TGT_AVX2 void tile1_avx2(double alpha, const double* a0, Index aks,
                               const double* b, Index ldb, double* c0,
                               Index kk, Index qn, bool zero) {
  Index q = 0;
  for (; q + 8 <= qn; q += 8) {
    __m256d r0, r1;
    if (zero) {
      r0 = r1 = _mm256_setzero_pd();
    } else {
      r0 = _mm256_loadu_pd(c0 + q);
      r1 = _mm256_loadu_pd(c0 + q + 4);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m256d av = _mm256_set1_pd(alpha * a0[k * aks]);
      r0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bk), r0);
      r1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bk + 4), r1);
    }
    _mm256_storeu_pd(c0 + q, r0);
    _mm256_storeu_pd(c0 + q + 4, r1);
  }
  for (; q + 4 <= qn; q += 4) {
    __m256d r0 = zero ? _mm256_setzero_pd() : _mm256_loadu_pd(c0 + q);
    for (Index k = 0; k < kk; ++k) {
      r0 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a0[k * aks]),
                           _mm256_loadu_pd(b + k * ldb + q), r0);
    }
    _mm256_storeu_pd(c0 + q, r0);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    for (Index k = 0; k < kk; ++k) {
      s0 = std::fma(alpha * a0[k * aks], b[k * ldb + q], s0);
    }
    c0[q] = s0;
  }
}

#endif  // PHMSE_SIMD_X86

#if PHMSE_SIMD_NEON

// 4 C rows x 4 columns (2 q-regs per row); AArch64 has 32 vector registers,
// so the 8 accumulators plus temps stay resident.
void tile4_neon(double alpha, const double* a0, Index ars, Index aks,
                const double* b, Index ldb, double* c0, Index ldc, Index kk,
                Index qn, bool zero) {
  const double* const a1 = a0 + ars;
  const double* const a2 = a1 + ars;
  const double* const a3 = a2 + ars;
  double* const c1 = c0 + ldc;
  double* const c2 = c1 + ldc;
  double* const c3 = c2 + ldc;
  Index q = 0;
  for (; q + 4 <= qn; q += 4) {
    float64x2_t r00, r01, r10, r11, r20, r21, r30, r31;
    if (zero) {
      r00 = r01 = vdupq_n_f64(0.0);
      r10 = r11 = vdupq_n_f64(0.0);
      r20 = r21 = vdupq_n_f64(0.0);
      r30 = r31 = vdupq_n_f64(0.0);
    } else {
      r00 = vld1q_f64(c0 + q);
      r01 = vld1q_f64(c0 + q + 2);
      r10 = vld1q_f64(c1 + q);
      r11 = vld1q_f64(c1 + q + 2);
      r20 = vld1q_f64(c2 + q);
      r21 = vld1q_f64(c2 + q + 2);
      r30 = vld1q_f64(c3 + q);
      r31 = vld1q_f64(c3 + q + 2);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const float64x2_t b0 = vld1q_f64(bk);
      const float64x2_t b1 = vld1q_f64(bk + 2);
      float64x2_t av = vdupq_n_f64(alpha * a0[k * aks]);
      r00 = vfmaq_f64(r00, av, b0);
      r01 = vfmaq_f64(r01, av, b1);
      av = vdupq_n_f64(alpha * a1[k * aks]);
      r10 = vfmaq_f64(r10, av, b0);
      r11 = vfmaq_f64(r11, av, b1);
      av = vdupq_n_f64(alpha * a2[k * aks]);
      r20 = vfmaq_f64(r20, av, b0);
      r21 = vfmaq_f64(r21, av, b1);
      av = vdupq_n_f64(alpha * a3[k * aks]);
      r30 = vfmaq_f64(r30, av, b0);
      r31 = vfmaq_f64(r31, av, b1);
    }
    vst1q_f64(c0 + q, r00);
    vst1q_f64(c0 + q + 2, r01);
    vst1q_f64(c1 + q, r10);
    vst1q_f64(c1 + q + 2, r11);
    vst1q_f64(c2 + q, r20);
    vst1q_f64(c2 + q + 2, r21);
    vst1q_f64(c3 + q, r30);
    vst1q_f64(c3 + q + 2, r31);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    double s1 = zero ? 0.0 : c1[q];
    double s2 = zero ? 0.0 : c2[q];
    double s3 = zero ? 0.0 : c3[q];
    for (Index k = 0; k < kk; ++k) {
      const double bv = b[k * ldb + q];
      s0 = std::fma(alpha * a0[k * aks], bv, s0);
      s1 = std::fma(alpha * a1[k * aks], bv, s1);
      s2 = std::fma(alpha * a2[k * aks], bv, s2);
      s3 = std::fma(alpha * a3[k * aks], bv, s3);
    }
    c0[q] = s0;
    c1[q] = s1;
    c2[q] = s2;
    c3[q] = s3;
  }
}

void tile1_neon(double alpha, const double* a0, Index aks, const double* b,
                Index ldb, double* c0, Index kk, Index qn, bool zero) {
  Index q = 0;
  for (; q + 4 <= qn; q += 4) {
    float64x2_t r0, r1;
    if (zero) {
      r0 = r1 = vdupq_n_f64(0.0);
    } else {
      r0 = vld1q_f64(c0 + q);
      r1 = vld1q_f64(c0 + q + 2);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const float64x2_t av = vdupq_n_f64(alpha * a0[k * aks]);
      r0 = vfmaq_f64(r0, av, vld1q_f64(bk));
      r1 = vfmaq_f64(r1, av, vld1q_f64(bk + 2));
    }
    vst1q_f64(c0 + q, r0);
    vst1q_f64(c0 + q + 2, r1);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    for (Index k = 0; k < kk; ++k) {
      s0 = std::fma(alpha * a0[k * aks], b[k * ldb + q], s0);
    }
    c0[q] = s0;
  }
}

#endif  // PHMSE_SIMD_NEON

using Tile4Fn = void (*)(double, const double*, Index, Index, const double*,
                         Index, double*, Index, Index, Index, bool);
using Tile1Fn = void (*)(double, const double*, Index, const double*, Index,
                         double*, Index, Index, bool);

// Strip-mined driver shared by every microkernel set: columns in
// kGemmColStrip L1 strips (the kk x strip B panel stays resident across row
// tiles), rows in tiles of 4 with a single-row remainder.
void panel_driver(Tile4Fn t4, Tile1Fn t1, double alpha, const double* a,
                  Index ars, Index aks, const double* b, Index ldb, double* c,
                  Index ldc, Index mm, Index kk, Index nn, bool zero) {
  if (mm <= 0 || nn <= 0) return;
  if (kk <= 0) {
    if (zero) {
      for (Index i = 0; i < mm; ++i) {
        std::fill(c + i * ldc, c + i * ldc + nn, 0.0);
      }
    }
    return;
  }
  for (Index q0 = 0; q0 < nn; q0 += kGemmColStrip) {
    const Index qn = std::min(nn - q0, kGemmColStrip);
    const double* const bq = b + q0;
    double* const cq = c + q0;
    Index i0 = 0;
    for (; i0 + 4 <= mm; i0 += 4) {
      t4(alpha, a + i0 * ars, ars, aks, bq, ldb, cq + i0 * ldc, ldc, kk, qn,
         zero);
    }
    for (; i0 < mm; ++i0) {
      t1(alpha, a + i0 * ars, aks, bq, ldb, cq + i0 * ldc, kk, qn, zero);
    }
  }
}

// One GEMM panel with the given microkernel set; kScalar falls back to the
// blocked panels from blas.cpp (same per-element chains).
void gemm_panel(Isa isa, bool trans, bool zero, double alpha, const double* a,
                Index lda, const double* b, Index ldb, double* c, Index ldc,
                Index mm, Index kk, Index nn) {
  const Index ars = trans ? 1 : lda;
  const Index aks = trans ? lda : 1;
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      panel_driver(tile4_avx512, tile1_avx512, alpha, a, ars, aks, b, ldb, c,
                   ldc, mm, kk, nn, zero);
      return;
    case Isa::kAvx2:
      panel_driver(tile4_avx2, tile1_avx2, alpha, a, ars, aks, b, ldb, c,
                   ldc, mm, kk, nn, zero);
      return;
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      panel_driver(tile4_neon, tile1_neon, alpha, a, ars, aks, b, ldb, c,
                   ldc, mm, kk, nn, zero);
      return;
#endif
    default:
      break;
  }
  if (!zero) {
    if (trans) {
      gemm_tn_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
    } else {
      gemm_nn_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
    }
  } else {
    PHMSE_CHECK(trans, "simd: overwriting nn panel is not used");
    gemm_tn_zero_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
  }
}

// The detail/panel_algos.hpp Panels policy over the active microkernel set.
struct SimdPanels {
  static void nn_acc(double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     Index mm, Index kk, Index nn) {
    gemm_panel(active(), /*trans=*/false, /*zero=*/false, alpha, a, lda, b,
               ldb, c, ldc, mm, kk, nn);
  }
  static void tn_acc(double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     Index mm, Index kk, Index nn) {
    gemm_panel(active(), /*trans=*/true, /*zero=*/false, alpha, a, lda, b,
               ldb, c, ldc, mm, kk, nn);
  }
  static void tn_zero_acc(double alpha, const double* a, Index lda,
                          const double* b, Index ldb, double* c, Index ldc,
                          Index mm, Index kk, Index nn) {
    gemm_panel(active(), /*trans=*/true, /*zero=*/true, alpha, a, lda, b,
               ldb, c, ldc, mm, kk, nn);
  }
};

// ---------------------------------------------------------------------------
// Vectorized axpy (y[i] = fma(a, x[i], y[i])) for the streaming kernels.

#if PHMSE_SIMD_X86

PHMSE_TGT_AVX512 void axpy_avx512(double a, const double* x, double* y,
                                  Index n) {
  const __m512d av = _mm512_set1_pd(a);
  Index i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
    _mm512_storeu_pd(
        y + i + 8, _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i + 8),
                                   _mm512_loadu_pd(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
  }
  if (i < n) {
    const __mmask8 mk =
        static_cast<__mmask8>((1u << static_cast<unsigned>(n - i)) - 1u);
    _mm512_mask_storeu_pd(
        y + i, mk,
        _mm512_fmadd_pd(av, _mm512_maskz_loadu_pd(mk, x + i),
                        _mm512_maskz_loadu_pd(mk, y + i)));
  }
}

PHMSE_TGT_AVX2 void axpy_avx2(double a, const double* x, double* y, Index n) {
  const __m256d av = _mm256_set1_pd(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

#endif  // PHMSE_SIMD_X86

#if PHMSE_SIMD_NEON

void axpy_neon(double a, const double* x, double* y, Index n) {
  const float64x2_t av = vdupq_n_f64(a);
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(y + i, vfmaq_f64(vld1q_f64(y + i), av, vld1q_f64(x + i)));
    vst1q_f64(y + i + 2,
              vfmaq_f64(vld1q_f64(y + i + 2), av, vld1q_f64(x + i + 2)));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

#endif  // PHMSE_SIMD_NEON

void axpy_scalar_fma(double a, const double* x, double* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

using AxpyFn = void (*)(double, const double*, double*, Index);

AxpyFn resolve_axpy() {
  switch (active()) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      return axpy_avx512;
    case Isa::kAvx2:
      return axpy_avx2;
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      return axpy_neon;
#endif
    default:
      return axpy_scalar_fma;
  }
}

AxpyFn axpy_fma() {
  static const AxpyFn fn = resolve_axpy();
  return fn;
}

}  // namespace

const char* active_isa() { return isa_name(active()); }

bool available() { return active() != Isa::kScalar; }

void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g) {
  PHMSE_CHECK(h.cols() == c.rows() && c.rows() == c.cols(),
              "sparse_dense: dimension mismatch");
  const Index m = h.rows();
  const Index n = c.cols();
  g.resize_zero(m, n);
  const AxpyFn axpy = axpy_fma();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    double nnz = 0.0;
    for (Index j = begin; j < end; ++j) nnz += static_cast<double>(h.row_nnz(j));
    st.flops = 2.0 * nnz * static_cast<double>(n);
    st.bytes_stream = kBytes * static_cast<double>((end - begin) * n);
    st.bytes_irregular = kBytes * nnz * static_cast<double>(n);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index j = begin; j < end; ++j) {
      double* grow = g.row(j).data();
      const auto idx = h.row_indices(j);
      const auto val = h.row_values(j);
      for (std::size_t k = 0; k < idx.size(); ++k) {
        axpy(val[k], c.row(idx[k]).data(), grow, n);
      }
    }
  };
  ctx.parallel(Category::kDenseSparse, m, cost, body);
}

void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  detail::trsm_impl<SimdPanels, false>(ctx, l, b);
}

void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l,
                           Matrix& b) {
  detail::trsm_impl<SimdPanels, true>(ctx, l, b);
}

void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx) {
  PHMSE_CHECK(static_cast<Index>(r.size()) == v.rows(),
              "gain_times_residual: residual size mismatch");
  PHMSE_CHECK(static_cast<Index>(dx.size()) == v.cols(),
              "gain_times_residual: output size mismatch");
  const Index m = v.rows();
  const AxpyFn axpy = axpy_fma();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double cols = static_cast<double>(end - begin);
    st.flops = 2.0 * cols * static_cast<double>(m);
    st.bytes_stream = kBytes * cols * static_cast<double>(m);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    const Index width = end - begin;
    if (width <= 0) return;
    double* const out = dx.data() + begin;
    for (Index j = 0; j < m; ++j) {
      axpy(r[static_cast<std::size_t>(j)], v.row(j).data() + begin, out,
           width);
    }
  };
  ctx.parallel(Category::kMatVec, v.cols(), cost, body);
}

void covariance_downdate(par::ExecContext& ctx, const Matrix& w,
                         std::span<const ColumnRun> runs, Matrix& c) {
  detail::covariance_downdate_impl<SimdPanels>(ctx, w, runs, c);
}

void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out) {
  detail::gram_impl<SimdPanels>(ctx, w, out);
}

CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                               Index block_size) {
  return detail::cholesky_factor_impl<SimdPanels>(ctx, a, block_size);
}

std::vector<std::string> testable_isas() {
  std::vector<std::string> out;
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (isa_usable(isa)) out.emplace_back(isa_name(isa));
  }
  return out;
}

void gemm_panel_for_isa(std::string_view isa, bool trans, bool zero,
                        double alpha, const double* a, Index lda,
                        const double* b, Index ldb, double* c, Index ldc,
                        Index mm, Index kk, Index nn) {
  Isa resolved = Isa::kScalar;
  if (isa == "avx512") {
    resolved = Isa::kAvx512;
  } else if (isa == "avx2") {
    resolved = Isa::kAvx2;
  } else if (isa == "neon") {
    resolved = Isa::kNeon;
  } else {
    PHMSE_CHECK(isa == "scalar", "gemm_panel_for_isa: unknown ISA name");
  }
  PHMSE_CHECK(isa_usable(resolved),
              "gemm_panel_for_isa: ISA not usable on this build/CPU");
  gemm_panel(resolved, trans, zero, alpha, a, lda, b, ldb, c, ldc, mm, kk,
             nn);
}

}  // namespace phmse::linalg::simd
