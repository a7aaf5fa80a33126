#include "linalg/ref/ref_kernels.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "parallel/partition.hpp"
#include "support/check.hpp"

namespace phmse::linalg::ref {
namespace {

using par::KernelStats;
using perf::Category;

constexpr double kBytes = 8.0;  // sizeof(double)

// Shared implementation of the two triangular solves.  Columns of B are
// independent; each lane sweeps its column slice through all m substitution
// steps, streaming along B's rows.
template <bool Transposed>
void trsm_impl(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  PHMSE_CHECK(l.rows() == l.cols(), "trsm: L must be square");
  PHMSE_CHECK(l.rows() == b.rows(), "trsm: dimension mismatch");
  const Index m = l.rows();
  const Index k = b.cols();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double cols = static_cast<double>(end - begin);
    st.flops = cols * static_cast<double>(m) * static_cast<double>(m);
    st.bytes_stream = kBytes * (cols * static_cast<double>(m) +
                                0.5 * static_cast<double>(m) *
                                    static_cast<double>(m));
    // The lane's column slice of B is revisited by every substitution step.
    st.resident_bytes = kBytes * cols * static_cast<double>(m);
    st.resident_sweeps = 0.5 * static_cast<double>(m);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    const Index width = end - begin;
    if (width <= 0) return;
    if constexpr (!Transposed) {
      for (Index i = 0; i < m; ++i) {
        double* bi = b.row(i).data() + begin;
        const double* lrow = l.row(i).data();
        for (Index p = 0; p < i; ++p) {
          const double lip = lrow[p];
          const double* bp = b.row(p).data() + begin;
          for (Index q = 0; q < width; ++q) bi[q] -= lip * bp[q];
        }
        const double inv = 1.0 / lrow[i];
        for (Index q = 0; q < width; ++q) bi[q] *= inv;
      }
    } else {
      for (Index i = m - 1; i >= 0; --i) {
        double* bi = b.row(i).data() + begin;
        for (Index p = i + 1; p < m; ++p) {
          const double lpi = l(p, i);
          const double* bp = b.row(p).data() + begin;
          for (Index q = 0; q < width; ++q) bi[q] -= lpi * bp[q];
        }
        const double inv = 1.0 / l(i, i);
        for (Index q = 0; q < width; ++q) bi[q] *= inv;
      }
    }
  };
  ctx.parallel(Category::kSystemSolve, k, cost, body);
}

// Factors the diagonal block [k, k+b) in place, using already-final columns
// [0, k) of the panel rows.  Sequential.  Returns the failing pivot index,
// or -1 on success (mirrors the production kernel's status contract).
Index factor_panel(Matrix& a, Index k, Index b) {
  for (Index j = k; j < k + b; ++j) {
    double d = a(j, j) - dot(a.row(j).data() + k, a.row(j).data() + k, j - k);
    if (!(d > 0.0)) return j;
    d = std::sqrt(d);
    a(j, j) = d;
    const double inv = 1.0 / d;
    for (Index i = j + 1; i < k + b; ++i) {
      const double s =
          a(i, j) - dot(a.row(i).data() + k, a.row(j).data() + k, j - k);
      a(i, j) = s * inv;
    }
  }
  return -1;
}

}  // namespace

void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  trsm_impl<false>(ctx, l, b);
}

void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l,
                           Matrix& b) {
  trsm_impl<true>(ctx, l, b);
}

void covariance_downdate(par::ExecContext& ctx, const Matrix& w,
                         Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols() && c.rows() == w.cols(),
              "covariance_downdate: C shape mismatch");
  const Index m = w.rows();
  const Index n = c.rows();
  // Unit u pairs row u with row n-1-u: every unit updates n+1 entries.
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    double entries = 0.0;
    double rows = 0.0;
    par::for_each_paired(begin, end, n, [&](Index i) {
      entries += static_cast<double>(i + 1);
      rows += 1.0;
    });
    st.flops = 2.0 * static_cast<double>(m) * entries;
    st.bytes_stream =
        kBytes * (2.0 * entries +
                  static_cast<double>(m) * static_cast<double>(n));
    st.resident_bytes = kBytes * static_cast<double>(m) *
                        static_cast<double>(n);
    st.resident_sweeps = rows;
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    par::for_each_paired(begin, end, n, [&](Index i) {
      double* crow = c.row(i).data();
      for (Index k = 0; k < m; ++k) {
        axpy(-w(k, i), w.row(k).data(), crow, i + 1);
      }
    });
  };
  ctx.parallel(Category::kMatVec, par::paired_units(n), cost, body);
}

void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out) {
  const Index m = w.rows();
  const Index n = w.cols();
  out.resize_zero(n, n);

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double rows = static_cast<double>(end - begin);
    st.flops = 2.0 * rows * static_cast<double>(m) * static_cast<double>(n);
    st.bytes_stream =
        kBytes * (2.0 * rows * static_cast<double>(n) +
                  static_cast<double>(m) * static_cast<double>(n));
    st.resident_bytes = kBytes * static_cast<double>(m) *
                        static_cast<double>(n);
    st.resident_sweeps = rows;
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      double* orow = out.row(i).data();
      for (Index j = 0; j < m; ++j) {
        const double wji = w(j, i);
        axpy(wji, w.row(j).data(), orow, n);
      }
    }
  };
  ctx.parallel(Category::kMatMat, n, cost, body);
}

CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                               Index block_size) {
  PHMSE_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  PHMSE_CHECK(block_size >= 1, "cholesky: block size must be >= 1");
  const Index n = a.rows();

  Index failed_pivot = -1;
  for (Index k = 0; k < n; k += block_size) {
    const Index b = std::min(block_size, n - k);

    // Panel factorization: sequential dependency chain.
    ctx.sequential(
        Category::kCholesky,
        [&](Index, Index) {
          KernelStats st;
          const double bd = static_cast<double>(b);
          st.flops = bd * bd * bd / 3.0 + 2.0 * bd * bd;
          st.bytes_stream = kBytes * bd * static_cast<double>(k + b);
          return st;
        },
        [&] { failed_pivot = factor_panel(a, k, b); });
    if (failed_pivot >= 0) return {failed_pivot};

    const Index rest = n - (k + b);
    if (rest <= 0) continue;

    // Row solve: A[k+b.., k..k+b) <- A[k+b.., k..k+b) * L11^{-T}.
    ctx.parallel(
        Category::kCholesky, rest,
        [&](Index begin, Index end) {
          KernelStats st;
          const double rows = static_cast<double>(end - begin);
          const double bd = static_cast<double>(b);
          st.flops = rows * bd * bd;
          st.bytes_stream = kBytes * rows * bd * 2.0;
          return st;
        },
        [&](Index begin, Index end, int /*lane*/) {
          for (Index ii = begin; ii < end; ++ii) {
            const Index i = k + b + ii;
            double* arow = a.row(i).data();
            for (Index j = k; j < k + b; ++j) {
              double s = arow[j] - dot(arow + k, a.row(j).data() + k, j - k);
              arow[j] = s / a(j, j);
            }
          }
        });

    // Trailing update: A22 -= A21 * A21^T (lower triangle only), one dot
    // product per entry.
    ctx.parallel(
        Category::kCholesky, rest,
        [&](Index begin, Index end) {
          KernelStats st;
          const double bd = static_cast<double>(b);
          double inner = 0.0;
          for (Index ii = begin; ii < end; ++ii) {
            inner += static_cast<double>(ii + 1);
          }
          st.flops = 2.0 * inner * bd;
          st.bytes_stream = kBytes * inner * 1.0 +
                            kBytes * static_cast<double>(end - begin) * bd;
          return st;
        },
        [&](Index begin, Index end, int /*lane*/) {
          for (Index ii = begin; ii < end; ++ii) {
            const Index i = k + b + ii;
            const double* ai = a.row(i).data() + k;
            double* arow = a.row(i).data();
            for (Index j = k + b; j <= i; ++j) {
              arow[j] -= dot(ai, a.row(j).data() + k, b);
            }
          }
        });
  }

  // Zero the strict upper triangle so L is directly usable.
  ctx.parallel(
      Category::kCholesky, n,
      [&](Index begin, Index end) {
        KernelStats st;
        st.bytes_stream = kBytes * static_cast<double>(end - begin) *
                          static_cast<double>(n) / 2.0;
        return st;
      },
      [&](Index begin, Index end, int /*lane*/) {
        for (Index i = begin; i < end; ++i) {
          double* arow = a.row(i).data();
          for (Index j = i + 1; j < n; ++j) arow[j] = 0.0;
        }
      });
  return {};
}

void cholesky(par::ExecContext& ctx, Matrix& a, Index block_size) {
  const CholeskyResult r = cholesky_factor(ctx, a, block_size);
  PHMSE_CHECK(r.ok(), "cholesky: matrix is not positive definite");
}

}  // namespace phmse::linalg::ref
