// Dispatch layer: the public kernel entry points forward to the
// process-default Backend (see backend.hpp).  Callers that need a specific
// backend (e.g. a solve compiled with HierSolveOptions.backend) hold a
// `const Backend*` and call through its table directly.
//
// The covariance mirrors and the element-wise vector utilities are
// backend-independent: they are bandwidth-bound copy or single-pass loops
// with nothing to specialize, so they live here rather than in the
// per-backend tables.
#include "linalg/kernels.hpp"

#include <algorithm>

#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "parallel/partition.hpp"
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

void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c) {
  default_backend().covariance_downdate(ctx, w, c);
}

void covariance_downdate(par::ExecContext& ctx, const Matrix& v,
                         const Matrix& g, Matrix& c) {
  PHMSE_CHECK(&v == &g,
              "covariance_downdate: the symmetric update needs V == G");
  covariance_downdate(ctx, v, c);
  mirror_lower(ctx, c);
}

void mirror_rows(par::ExecContext& ctx, Matrix& c,
                 std::span<const Index> rows) {
  PHMSE_CHECK(c.rows() == c.cols(), "mirror_rows: matrix must be square");
  if (rows.empty()) return;
  const Index n = c.rows();
  PHMSE_CHECK(rows.front() >= 0 && rows.back() < n,
              "mirror_rows: row index out of range");
  // Destination columns j > rows[0]; column j of every listed row r < j is
  // filled from row j, so each source row is read once, in order, while
  // the listed rows' write lines stay cache-hot across consecutive j.
  const Index first = rows.front() + 1;
  const double listed = static_cast<double>(rows.size());
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double copies = listed * static_cast<double>(end - begin);
    st.bytes_stream = kBytes * copies;
    st.bytes_irregular = kBytes * copies;
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    double* const a = c.data();
    for (Index j = first + begin; j < first + end; ++j) {
      const double* const src = a + j * n;
      for (const Index r : rows) {
        if (r >= j) break;
        a[r * n + j] = src[r];
      }
    }
  };
  ctx.parallel(Category::kVector, n - first, cost, body);
}

void mirror_lower(par::ExecContext& ctx, Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols(), "mirror_lower: matrix must be square");
  // 64 x 64 tiles: the 32 KiB source tile is read down its columns while
  // each destination row segment is written contiguously.
  constexpr Index kTile = 64;
  const Index n = c.rows();
  const Index tiles = (n + kTile - 1) / kTile;
  // Unit u fills destination row tiles u and tiles-1-u, whose upper parts
  // together span about n columns, so an even split balances the lanes.
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    double copies = 0.0;
    par::for_each_paired(begin, end, tiles, [&](Index t) {
      copies += static_cast<double>(std::min(kTile, n - t * kTile)) *
                static_cast<double>(n - t * kTile);
    });
    st.bytes_stream = 2.0 * kBytes * copies;
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    double* const a = c.data();
    par::for_each_paired(begin, end, tiles, [&](Index t) {
      const Index i0 = t * kTile;
      const Index i1 = std::min(i0 + kTile, n);
      for (Index j0 = i0; j0 < n; j0 += kTile) {
        const Index j1 = std::min(j0 + kTile, n);
        for (Index i = i0; i < i1; ++i) {
          double* const dst = a + i * n;
          for (Index j = std::max(j0, i + 1); j < j1; ++j) {
            dst[j] = a[j * n + i];
          }
        }
      }
    });
  };
  ctx.parallel(Category::kVector, par::paired_units(tiles), cost, body);
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

}  // namespace phmse::linalg
