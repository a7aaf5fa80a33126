// ExecContext-parallel kernels for the Fig.-1 update procedure.
//
// Category mapping (chosen to mirror the accounting in the paper's Tables
// 3-6; see DESIGN.md):
//   d-s  : G = H * C            (sparse Jacobian times dense covariance)
//   m-m  : S = G * H^T + R      (innovation covariance assembly)
//   chol : factor S = L L^T     (see cholesky.hpp)
//   sys  : solve L W = G                      (whitened gain, W = L^-1 H C)
//   m-v  : dx = W^T w, and the covariance update C -= W^T W, which is
//          mathematically n dense matrix-vector products C(:,l) -= K a_l —
//          the dominant operation, reported by the paper under m-v
//   vec  : residuals, scalings, copies, the covariance mirrors
//
// Every kernel takes an ExecContext so the same code runs serially, on a
// real thread team, or on the simulated multiprocessor (src/simarch).
//
// These free functions dispatch through the process-default Backend
// (backend.hpp): the same signatures are implemented by the ref / blocked /
// simd backends, and a caller that pinned a backend (per-solve override)
// calls through its Backend table instead.
//
// Exception transparency: these kernels hold no hidden state across
// parallel() calls and add no try/catch of their own, so the ExecContext
// contract applies verbatim — a body failure (e.g. a PHMSE_CHECK firing on
// a worker lane) joins the team cleanly and rethrows on the calling lane,
// leaving only the output arguments in a partially-written state.
#pragma once

#include <span>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {

/// G = H * C.  H: m x n sparse, C: n x n dense, G resized to m x n.
/// Parallel over the m rows of G.  Category: d-s.
void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g);

/// S = G * H^T + diag(r_diag).  G: m x n, H: m x n sparse, S resized to
/// m x m.  `r_diag` holds the measurement noise variances (R is diagonal
/// for independent scalar measurements).  Parallel over rows of S.
/// Category: m-m.
void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s);

/// In-place forward solve B <- L^{-1} B for lower-triangular L (m x m) and
/// B (m x k).  Parallel over B's columns.  Category: sys.
void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// In-place backward solve B <- L^{-T} B.  Parallel over B's columns.
/// Category: sys.
void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// dx += V^T r.  V: m x n (the gain transpose), r: m, dx: n.
/// Category: m-v.
void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx);

/// Lower triangle of C -= W^T * W, with W: m x n and C: n x n symmetric.
/// This is the covariance measurement update C -= K (C H^T)^T with
/// W = L^{-1} H C (update.hpp).
///
/// Triangle contract: only entries j <= i are guaranteed current on return.
/// Entries above the diagonal are stale, except inside the diagonal row
/// tiles, which are updated whole.  mirror_rows / mirror_lower bring the
/// upper part back.  Each entry is one ascending-k fma chain, and C(i,j)
/// and C(j,i) multiply the same two numbers, so the mirrored lower triangle
/// of a bitwise-symmetric C is bitwise the full product.  Parallel over
/// pairs of row tiles (t, T-1-t), so an even split gives every lane the same
/// share of the triangle.  Category: m-v (see file comment).
void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c);

/// The full C -= V^T * G for a symmetric C: the lower-triangle downdate
/// followed by mirror_lower.  Requires &v == &g (the update is symmetric).
/// Kept only for the perfbench/layers.cpp kernel replay.
void covariance_downdate(par::ExecContext& ctx, const Matrix& v,
                         const Matrix& g, Matrix& c);

/// Copies the lower-triangle entries into the upper part of the listed
/// rows: C(r, j) = C(j, r) for every r in `rows` and j > r.  `rows` must be
/// strictly ascending and inside [0, n).  Reads only rows below rows[0], one
/// pass in row order.  Parallel over destination columns.  Category: vec.
void mirror_rows(par::ExecContext& ctx, Matrix& c, std::span<const Index> rows);

/// Copies the whole lower triangle onto the upper one (C(i, j) = C(j, i)
/// for j > i) as a tiled transpose, parallel over paired row tiles.
/// Category: vec.
void mirror_lower(par::ExecContext& ctx, Matrix& c);

/// out = W^T * W for W: m x n (out resized to n x n).  Used by the Fig.-3
/// combination procedure to form information matrices.  Category: m-m.
void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out);

/// C += coeff * v v^T (rank-1 symmetric update).  Used by the non-Gaussian
/// (mixture) measurement update, whose collapsed posterior differs from the
/// prior by a rank-1 term along the gain direction.  Category: m-v.
void rank1_update(par::ExecContext& ctx, const Vector& v, double coeff,
                  Matrix& c);

/// out = a - b element-wise.  Category: vec.
void vec_sub(par::ExecContext& ctx, const Vector& a, const Vector& b,
             Vector& out);

/// y += x element-wise.  Category: vec.
void vec_add_inplace(par::ExecContext& ctx, const Vector& x, Vector& y);

}  // namespace phmse::linalg
