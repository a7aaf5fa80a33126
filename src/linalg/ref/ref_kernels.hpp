// Reference (scalar) implementations of the hot dense kernels.
//
// These are the pre-optimization row-loop kernels, frozen verbatim when the
// production kernels in kernels.cpp / cholesky.cpp were rewritten as
// cache-blocked, register-tiled implementations.  They serve two purposes:
//
//   * the differential-test oracle (tests/kernels_oracle_test.cpp)
//     property-tests every blocked kernel against its ref:: twin over
//     randomized shapes, so a tiling bug cannot ship silently;
//   * the perf-regression harness (bench/kernels_regress.cpp) reports the
//     blocked kernels' speedup over these scalar baselines in
//     BENCH_kernels.json.
//
// Keep these obviously correct and boring.  Do NOT optimize them — their
// entire value is being the slow, trustworthy twin.  They honour the same
// ExecContext contract as the production kernels (same iteration spaces,
// same categories), so the oracle can also compare serial vs threaded
// execution of the reference itself.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg::ref {

/// In-place forward solve B <- L^{-1} B; scalar column-sweep reference.
void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// In-place backward solve B <- L^{-T} B; scalar column-sweep reference.
void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// Lower triangle (j <= i) of C -= W^T * W; scalar row-axpy reference
/// over paired rows (i, n-1-i).  Entries above the diagonal are untouched.
void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c);

/// out = W^T * W (out resized to n x n); scalar row-axpy reference.
void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out);

/// In-place blocked Cholesky with the dot-product trailing update; lower
/// triangle receives L, strict upper triangle zeroed.  Returns the failing
/// pivot instead of throwing when A is not (numerically) positive definite
/// (same status contract as the production kernel).
[[nodiscard]] CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                                             Index block_size = 48);

/// Throwing wrapper over cholesky_factor: throws phmse::Error if A is not
/// (numerically) positive definite.
void cholesky(par::ExecContext& ctx, Matrix& a, Index block_size = 48);

}  // namespace phmse::linalg::ref
