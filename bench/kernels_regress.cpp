// Perf-regression harness for the dense kernel backends.
//
// Times every gemm-panel kernel under each registered backend — `simd`
// (explicit vector microkernels), `blocked` (portable register-tiled) and
// `ref` (frozen scalar oracle) — over the hot shapes of the Fig.-1 update
// (including the ribo30s root, m = 16 and n = 2697) and the Fig.-3
// combination, then writes the machine-readable
// BENCH_kernels.json consumed by scripts/bench_check.py.  Each row calls
// through the named backend's dispatch table, so the measurements are
// pinned regardless of PHMSE_BACKEND or what default dispatch resolves to.
// Run from the repository root so the JSON lands next to the committed
// baseline:
//
//   ./build/bench/kernels_regress            # writes BENCH_kernels.json
//   ./build/bench/kernels_regress out.json   # explicit output path
//   ./build/bench/kernels_regress --help     # usage; runs nothing
//
// Honours PHMSE_BENCH_SCALE (< 0.5 switches to tiny smoke shapes for CI),
// PHMSE_BENCH_SEED and PHMSE_BENCH_OUT (default output path).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "parallel/exec.hpp"
#include "parallel/team.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace phmse::bench {
namespace {

using linalg::Backend;
using linalg::Matrix;

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

Matrix random_spd(Index n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix s = linalg::matmul(a, linalg::transpose(a));
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

// Runs `fn(ctx)` under a SerialContext (threads == 1) or a TeamContext.
template <class Fn>
void with_context(int threads, const Fn& fn) {
  if (threads <= 1) {
    par::SerialContext ctx;
    fn(ctx);
  } else {
    par::ThreadPool pool(threads);
    par::TeamContext team(pool, 0, threads);
    fn(team);
  }
}

struct Harness {
  std::vector<KernelBenchRecord> records;

  // Times one (kernel, impl, shape, threads) configuration.
  void run(const std::string& kernel, const std::string& impl, Index m,
           Index n, int threads, double flops, double bytes,
           const std::function<void(par::ExecContext&)>& body) {
    KernelBenchRecord rec;
    rec.kernel = kernel;
    rec.impl = impl;
    rec.m = m;
    rec.n = n;
    rec.threads = threads;
    rec.flops = flops;
    rec.bytes = bytes;
    with_context(threads, [&](par::ExecContext& ctx) {
      rec.seconds = time_best([&] { body(ctx); }, 3, &rec.reps);
    });
    records.push_back(rec);
    std::printf("  %-24s %-8s m=%-5lld n=%-5lld t=%d  %9.3f us  %8.3f GF/s\n",
                kernel.c_str(), impl.c_str(), static_cast<long long>(m),
                static_cast<long long>(n), threads, rec.seconds * 1e6,
                rec.gflops());
  }
};

int run_all(const std::string& out_path) {
  print_header("kernels_regress",
               "dense kernel backends vs scalar reference (perf trajectory)");
  std::printf("simd microkernels: %s\n", linalg::simd::active_isa());

  // Pinned backend tables: every row dispatches through one of these, so
  // the measurement never depends on the process default.
  const std::vector<const Backend*> impls = {
      linalg::find_backend("simd"), linalg::find_backend("blocked"),
      linalg::find_backend("ref")};
  for (const Backend* b : impls) PHMSE_CHECK(b != nullptr, "missing backend");

  const bool smoke = bench_scale() < 0.5;
  const std::vector<Index> dims =
      smoke ? std::vector<Index>{33, 64} : std::vector<Index>{129, 512, 1024};
  const std::vector<Index> trsm_sizes =
      smoke ? std::vector<Index>{32} : std::vector<Index>{128, 512};
  const Index trsm_rhs = smoke ? 64 : 512;
  const std::vector<Index> chol_sizes =
      smoke ? std::vector<Index>{48} : std::vector<Index>{128, 512};
  const Index m = 16;  // the paper's recommended constraint batch size

  std::vector<int> thread_counts{1};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1) thread_counts.push_back(hw);

  Rng rng(static_cast<std::uint64_t>(env_long("PHMSE_BENCH_SEED", 1234)));
  Harness h;

  // The lower-triangle downdate C -= W^T W (j <= i) at one shape, for every
  // backend and thread count.  It does m n (n+1) flops and moves the
  // triangle of C twice plus W once.  The downdate accumulates, so the timed
  // body can run on the same matrix repeatedly without a reset — the
  // reset's memory traffic would otherwise dominate the measurement at
  // large n.
  auto downdate_rows = [&](const Matrix& w, const Matrix& c0) {
    const double nd = static_cast<double>(w.cols());
    const double md = static_cast<double>(w.rows());
    const double flops = md * nd * (nd + 1.0);
    const double bytes = 8.0 * (nd * (nd + 1.0) + md * nd);
    Matrix c;
    for (const int t : thread_counts) {
      for (const Backend* b : impls) {
        c = c0;
        h.run("covariance_downdate", b->name, w.rows(), w.cols(), t, flops,
              bytes, [&](par::ExecContext& ctx) {
                b->covariance_downdate(ctx, w, linalg::WholeRun(w.cols()), c);
              });
      }
    }
  };

  for (const Index n : dims) {
    const Matrix w = random_matrix(m, n, rng);
    const Matrix c0 = random_spd(n, rng);
    downdate_rows(w, c0);
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(n);
    const double bytes =
        8.0 * (2.0 * static_cast<double>(n) * static_cast<double>(n) +
               static_cast<double>(m) * static_cast<double>(n));
    for (const int t : thread_counts) {
      Matrix out;
      for (const Backend* b : impls) {
        h.run("gram", b->name, m, n, t, flops, bytes,
              [&](par::ExecContext& ctx) { b->gram(ctx, w, out); });
      }
    }
  }

  // The real shape: the ribo30s root (n = 2697), where the downdate takes
  // most of a serial solve.
  if (!smoke) {
    const Index n = 2697;
    const Matrix w = random_matrix(m, n, rng);
    Matrix c0(n, n);
    for (Index i = 0; i < n; ++i) c0(i, i) = 1.0;
    downdate_rows(w, c0);

    // The root's early batches (1-14) couple domains 0, 1, 5 and 6 only:
    // 1560 of the 2697 columns, which the sweep widens to cache lines and
    // reads from W's padded panel (row stride 2704).  Charged for the
    // active triangle only, so its GF/s compare with the full rows'.
    const std::vector<linalg::ColumnRun> runs = {{0, 792}, {1920, 2697}};
    const double active = 1560.0;
    Matrix panel(m, 2704);
    for (Index k = 0; k < m; ++k) {
      for (const linalg::ColumnRun& r : runs) {
        for (Index j = r.begin; j < r.end; ++j) panel(k, j) = w(k, j);
      }
    }
    const double flops = static_cast<double>(m) * active * (active + 1.0);
    const double bytes =
        8.0 * (active * (active + 1.0) + static_cast<double>(m) * active);
    Matrix c;
    for (const int t : thread_counts) {
      for (const Backend* b : {impls[0], impls[1]}) {
        c = c0;
        h.run("covariance_downdate_active", b->name, m, n, t, flops, bytes,
              [&](par::ExecContext& ctx) {
                b->covariance_downdate(ctx, panel, runs, c);
              });
      }
    }
  }

  for (const Index sz : trsm_sizes) {
    Matrix l = random_spd(sz, rng);
    linalg::cholesky_serial(l);
    const Matrix b0 = random_matrix(sz, trsm_rhs, rng);
    const double flops = static_cast<double>(trsm_rhs) *
                         static_cast<double>(sz) * static_cast<double>(sz);
    const double bytes =
        8.0 * (static_cast<double>(trsm_rhs) * static_cast<double>(sz) +
               0.5 * static_cast<double>(sz) * static_cast<double>(sz));
    Matrix b = b0;
    for (const int t : thread_counts) {
      for (const Backend* impl : impls) {
        h.run("trsm_lower", impl->name, sz, trsm_rhs, t, flops, bytes,
              [&](par::ExecContext& ctx) {
                b = b0;
                impl->trsm_lower(ctx, l, b);
              });
        h.run("trsm_lower_transposed", impl->name, sz, trsm_rhs, t, flops,
              bytes, [&](par::ExecContext& ctx) {
                b = b0;
                impl->trsm_lower_transposed(ctx, l, b);
              });
      }
    }
  }

  for (const Index sz : chol_sizes) {
    const Matrix s = random_spd(sz, rng);
    const double flops = static_cast<double>(sz) * static_cast<double>(sz) *
                         static_cast<double>(sz) / 3.0;
    const double bytes = 8.0 * static_cast<double>(sz) *
                         static_cast<double>(sz);
    Matrix a = s;
    for (const int t : thread_counts) {
      for (const Backend* impl : impls) {
        h.run("cholesky", impl->name, 0, sz, t, flops, bytes,
              [&](par::ExecContext& ctx) {
                a = s;
                const linalg::CholeskyResult r =
                    impl->cholesky_factor(ctx, a, 48);
                PHMSE_CHECK(r.ok(), "bench cholesky: not positive definite");
              });
      }
    }
  }

  write_kernel_bench_json(out_path, h.records);
  std::printf("\nwrote %zu records to %s\n", h.records.size(),
              out_path.c_str());

  // Headline: single-thread speedups per kernel at the largest measured
  // shape — blocked vs ref (acceptance bar >= 2x for covariance_downdate
  // and gram at n >= 512) and simd vs blocked (bar >= 1.5x on the
  // gemm-panel kernels; scripts/bench_check.py gates the geometric mean).
  auto best_at_largest = [&](const std::string& kernel,
                             const char* impl) -> const KernelBenchRecord* {
    const KernelBenchRecord* best = nullptr;
    for (const KernelBenchRecord& r : h.records) {
      if (r.kernel != kernel || r.threads != 1 || r.impl != impl) continue;
      if (best == nullptr || r.n > best->n) best = &r;
    }
    return best;
  };
  std::printf("single-thread speedups at the largest shape:\n");
  for (const std::string kernel :
       {"covariance_downdate", "gram", "trsm_lower",
        "trsm_lower_transposed", "cholesky"}) {
    const KernelBenchRecord* simd = best_at_largest(kernel, "simd");
    const KernelBenchRecord* blocked = best_at_largest(kernel, "blocked");
    const KernelBenchRecord* ref = best_at_largest(kernel, "ref");
    if (simd == nullptr || blocked == nullptr || ref == nullptr ||
        blocked->seconds <= 0.0 || simd->seconds <= 0.0) {
      continue;
    }
    std::printf(
        "  %-24s n=%-5lld blocked/ref %.2fx, simd/blocked %.2fx "
        "(%.2f GF/s simd)\n",
        kernel.c_str(), static_cast<long long>(blocked->n),
        ref->seconds / blocked->seconds, blocked->seconds / simd->seconds,
        simd->gflops());
  }
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main(int argc, char** argv) {
  std::string out;
  const int code =
      phmse::bench::parse_output_args(argc, argv, "BENCH_kernels.json", &out);
  if (code >= 0) return code;
  return phmse::bench::run_all(out);
}
