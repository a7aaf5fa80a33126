// Dispatch layer: the public kernel entry points forward to the
// process-default Backend (see backend.hpp).  Callers that need a specific
// backend (e.g. a solve compiled with HierSolveOptions.backend) hold a
// `const Backend*` and call through its table directly.
//
// The element-wise vector utilities at the bottom are backend-independent:
// they are bandwidth-bound single-pass loops with nothing to specialize, so
// they live here rather than in the per-backend tables.
#include "linalg/kernels.hpp"

#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "support/check.hpp"

namespace phmse::linalg {
namespace {

using par::KernelStats;
using perf::Category;

constexpr double kBytes = 8.0;  // sizeof(double)

}  // namespace

void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g) {
  default_backend().sparse_dense(ctx, h, c, g);
}

void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s) {
  default_backend().innovation_covariance(ctx, g, h, r_diag, s);
}

void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  default_backend().trsm_lower(ctx, l, b);
}

void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l,
                           Matrix& b) {
  default_backend().trsm_lower_transposed(ctx, l, b);
}

void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx) {
  default_backend().gain_times_residual(ctx, v, r, dx);
}

void covariance_downdate(par::ExecContext& ctx, const Matrix& v,
                         const Matrix& g, Matrix& c) {
  default_backend().covariance_downdate(ctx, v, g, c);
}

void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out) {
  default_backend().gram(ctx, w, out);
}

CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                               Index block_size) {
  return default_backend().cholesky_factor(ctx, a, block_size);
}

void cholesky(par::ExecContext& ctx, Matrix& a, Index block_size) {
  const CholeskyResult r = cholesky_factor(ctx, a, block_size);
  PHMSE_CHECK(r.ok(), "cholesky: matrix is not positive definite");
}

void rank1_update(par::ExecContext& ctx, const Vector& v, double coeff,
                  Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols() &&
                  c.rows() == static_cast<Index>(v.size()),
              "rank1_update: dimension mismatch");
  const Index n = c.rows();
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double rows = static_cast<double>(end - begin);
    st.flops = 2.0 * rows * static_cast<double>(n);
    st.bytes_stream = kBytes * (2.0 * rows * static_cast<double>(n));
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      axpy(coeff * v[static_cast<std::size_t>(i)], v.data(),
           c.row(i).data(), n);
    }
  };
  ctx.parallel(Category::kMatVec, n, cost, body);
}

void vec_sub(par::ExecContext& ctx, const Vector& a, const Vector& b,
             Vector& out) {
  PHMSE_CHECK(a.size() == b.size(), "vec_sub: size mismatch");
  out.resize(a.size());
  const Index n = static_cast<Index>(a.size());
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    st.flops = static_cast<double>(end - begin);
    st.bytes_stream = 3.0 * kBytes * static_cast<double>(end - begin);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      out[static_cast<std::size_t>(i)] =
          a[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)];
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

void vec_add_inplace(par::ExecContext& ctx, const Vector& x, Vector& y) {
  PHMSE_CHECK(x.size() == y.size(), "vec_add_inplace: size mismatch");
  const Index n = static_cast<Index>(x.size());
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    st.flops = static_cast<double>(end - begin);
    st.bytes_stream = 3.0 * kBytes * static_cast<double>(end - begin);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      y[static_cast<std::size_t>(i)] += x[static_cast<std::size_t>(i)];
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

void symmetrize(par::ExecContext& ctx, Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols(), "symmetrize: matrix must be square");
  const Index n = c.rows();
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double rows = static_cast<double>(end - begin);
    st.flops = rows * static_cast<double>(n);
    st.bytes_stream = kBytes * rows * static_cast<double>(n);
    st.bytes_irregular = kBytes * rows * static_cast<double>(n);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    // Each lane owns rows [begin,end) and writes only the (i,j) entries with
    // i in its range; mirror entries (j,i) are owned by the lane covering j,
    // so a two-phase scheme is unnecessary: compute the average from a
    // consistent snapshot by only touching pairs where both i and j are in
    // range, and handle cross-lane pairs by having the lower-row lane write
    // both sides.  With contiguous chunks i < j implies lane(i) <= lane(j);
    // letting the lane that owns i (the smaller index) write both entries is
    // race-free because each (i,j) pair has exactly one writer.
    for (Index i = begin; i < end; ++i) {
      for (Index j = i + 1; j < n; ++j) {
        const double avg = 0.5 * (c(i, j) + c(j, i));
        c(i, j) = avg;
        c(j, i) = avg;
      }
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

}  // namespace phmse::linalg
