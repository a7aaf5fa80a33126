// The `simd` backend: explicit vector microkernels for the gemm panel
// primitives and the streaming sparse kernels.
//
// Three microkernel sets are compiled (subject to target architecture):
//
//   * AVX-512F — 4 row x 4 zmm (32-column) register tiles, masked tails;
//   * AVX2+FMA — 4 row x 2 ymm (8-column) register tiles, scalar tails;
//   * NEON     — 4 row x 2 q-reg (4-column) tiles (AArch64 only).
//
// On x86 every set is built with per-function target attributes, so the
// binary contains all of them regardless of the global -march flags; which
// one runs is picked once at startup from support::cpu_features() (the
// AVX-512 set needs avx512f, the AVX2 set needs avx2+fma).  When no set is
// usable the backend registry falls back to the blocked kernels
// per-primitive, so selecting `simd` is always safe.
//
// Determinism contract (see DESIGN.md §12): every microkernel accumulates
// each output element as one FMA chain over strictly ascending k — the same
// per-element expression as the blocked kernels — so each variant is
// bitwise serial-vs-threaded deterministic, and the panel results are even
// bitwise equal to the blocked backend's.  The streaming kernels
// (sparse_dense, gain_times_residual) use explicit-FMA axpy loops, which
// may differ from the blocked scalar kernels by FMA-contraction round-off;
// cross-backend agreement is therefore differential, not bitwise.
//
// The environment variable PHMSE_SIMD_ISA=avx512|avx2|neon|scalar forces a
// specific microkernel set (it must be compiled in and supported by the
// CPU); this is how CI runs the AVX2 tiles under sanitizers on AVX-512
// hosts.  An unknown or unsupported value fails fast.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "linalg/runs.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg::simd {

/// The microkernel set this process resolved to: "avx512", "avx2", "neon",
/// or "scalar" (no usable set; the registry bypasses these kernels then).
/// Resolved once at first use and cached.
const char* active_isa();

/// True when a vector microkernel set is usable (active_isa() != "scalar").
bool available();

/// G = H * C with vectorized per-nonzero row axpy.  Category: d-s.
void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g);

/// In-place forward solve B <- L^{-1} B; blocked structure with simd GEMM
/// panels.  Category: sys.
void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// In-place backward solve B <- L^{-T} B.  Category: sys.
void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// dx += V^T r with vectorized row axpy.  Category: m-v.
void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx);

/// Lower triangle of C -= W^T * W over the active runs, as simd
/// rank-m panel updates over paired row tiles
/// (detail::covariance_downdate_impl).  Category: m-v.
void covariance_downdate(par::ExecContext& ctx, const Matrix& w,
                         std::span<const ColumnRun> runs, Matrix& c);

/// out = W^T * W with simd panels and strip-wise zero-init.  Category: m-m.
void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out);

/// In-place blocked Cholesky with simd trailing-update panels.  Returns the
/// failing pivot instead of throwing — see status.hpp.  Category: chol.
[[nodiscard]] CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                                             Index block_size = 48);

// -- test hooks -------------------------------------------------------------

/// Microkernel sets compiled into this binary AND usable on this CPU
/// (subset of {"avx512", "avx2", "neon"}); the differential suite iterates
/// these so every shipped variant is tested where hardware allows, not just
/// the one active_isa() picked.
std::vector<std::string> testable_isas();

/// Runs one GEMM panel (C += alpha * op(A) * B, or overwriting with
/// `zero`) with a specific microkernel set from testable_isas().
/// op(A) = A (mm x kk, lda) when !trans; A^T with A stored kk x mm (lda)
/// when trans.  Fails fast on an unusable ISA name.
void gemm_panel_for_isa(std::string_view isa, bool trans, bool zero,
                        double alpha, const double* a, Index lda,
                        const double* b, Index ldb, double* c, Index ldc,
                        Index mm, Index kk, Index nn);

}  // namespace phmse::linalg::simd
