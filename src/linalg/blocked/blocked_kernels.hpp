// The `blocked` backend: portable cache-blocked, register-tiled kernels.
//
// These are the PR 2 production implementations, moved verbatim behind the
// backend dispatch seam (linalg/backend.hpp).  The GEMM panel primitives
// they tile over live in blas.hpp; the shared blocking structure lives in
// detail/panel_algos.hpp and is instantiated here with those panels.
//
// The sparse kernels (sparse_dense, innovation_covariance,
// gain_times_residual) are scalar row loops — gather-dominated with a
// handful of nonzeros per constraint row, so there is no register tiling to
// do.  The `ref` backend shares these exact functions (they double as their
// own reference), and the `simd` backend replaces the streaming ones with
// vectorized axpy variants.
#pragma once

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg::blocked {

/// G = H * C; scalar per-nonzero row axpy.  Category: d-s.
void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g);

/// S = G * H^T + diag(r_diag); scalar gather dot per entry.  Category: m-m.
void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s);

/// In-place forward solve B <- L^{-1} B, blocked over rows of L.
/// Category: sys.
void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// In-place backward solve B <- L^{-T} B, blocked over rows of L.
/// Category: sys.
void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// dx += V^T r; scalar row loop over the batch dimension.  Category: m-v.
void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx);

/// Lower triangle of C -= W^T * W as register-tiled rank-m panel updates over
/// paired row tiles (detail::covariance_downdate_impl).  Category: m-v.
void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c);

/// out = W^T * W, register-tiled with strip-wise zero-init.  Category: m-m.
void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out);

/// In-place blocked Cholesky A = L L^T; lower triangle receives L, strict
/// upper triangle is zeroed.  Returns the failing pivot instead of throwing
/// — see status.hpp.  Category: chol.
[[nodiscard]] CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                                             Index block_size = 48);

}  // namespace phmse::linalg::blocked
