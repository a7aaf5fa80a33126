// Google-benchmark microbenchmarks for the array-operation kernels that the
// paper's Tables 3-6 categorize: dense-sparse products (d-s), Cholesky
// factorization (chol), triangular solves (sys), the covariance update
// (m-v; see kernels.hpp), and vector operations (vec).
#include <benchmark/benchmark.h>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "parallel/exec.hpp"
#include "support/rng.hpp"

namespace phmse::linalg {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

Matrix random_spd(Index n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix s = matmul(a, transpose(a));
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

Csr random_jacobian(Index m, Index n, Rng& rng) {
  CsrBuilder b(n);
  for (Index i = 0; i < m; ++i) {
    b.begin_row();
    // A distance constraint touches 6 state variables.
    for (int k = 0; k < 6; ++k) {
      b.add(rng.uniform_int(0, n - 1), rng.gaussian());
    }
  }
  return b.finish();
}

void BM_SparseDense(benchmark::State& state) {
  const Index m = 16;
  const Index n = state.range(0);
  Rng rng(1);
  const Csr h = random_jacobian(m, n, rng);
  const Matrix c = random_spd(n, rng);
  Matrix g;
  par::SerialContext ctx;
  for (auto _ : state) {
    sparse_dense(ctx, h, c, g);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_SparseDense)->Arg(129)->Arg(516)->Arg(2040);

void BM_CovarianceDowndate(benchmark::State& state) {
  const Index m = 16;
  const Index n = state.range(0);
  Rng rng(2);
  const Matrix w = random_matrix(m, n, rng);
  Matrix c(n, n);  // a leaf's spherical prior; the speed is value-blind
  for (Index i = 0; i < n; ++i) c(i, i) = 1.0;
  par::SerialContext ctx;
  for (auto _ : state) {
    covariance_downdate(ctx, w, c);  // lower triangle, m n (n+1) flops
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n * (n + 1));
  state.SetBytesProcessed(state.iterations() * 8 * (n * (n + 1) + m * n));
}
BENCHMARK(BM_CovarianceDowndate)->Arg(129)->Arg(516)->Arg(2040)->Arg(2697);

// The once-per-sweep restore of C's upper triangle.
void BM_MirrorLower(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(6);
  Matrix c = random_matrix(n, n, rng);
  par::SerialContext ctx;
  for (auto _ : state) {
    mirror_lower(ctx, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 8 * n * (n - 1));
}
BENCHMARK(BM_MirrorLower)->Arg(516)->Arg(2697);

void BM_Cholesky(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(3);
  const Matrix s = random_spd(n, rng);
  par::SerialContext ctx;
  for (auto _ : state) {
    Matrix l = s;
    cholesky(ctx, l);
    benchmark::DoNotOptimize(l.data());
  }
}
BENCHMARK(BM_Cholesky)->Arg(16)->Arg(64)->Arg(256);

void BM_TrsmLower(benchmark::State& state) {
  const Index m = 16;
  const Index n = state.range(0);
  Rng rng(4);
  Matrix l = random_spd(m, rng);
  cholesky_serial(l);
  const Matrix b = random_matrix(m, n, rng);
  par::SerialContext ctx;
  for (auto _ : state) {
    Matrix x = b;
    trsm_lower(ctx, l, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_TrsmLower)->Arg(129)->Arg(516)->Arg(2040);

void BM_GainTimesResidual(benchmark::State& state) {
  const Index m = 16;
  const Index n = state.range(0);
  Rng rng(5);
  const Matrix v = random_matrix(m, n, rng);
  Vector r(static_cast<std::size_t>(m), 1.0);
  Vector dx(static_cast<std::size_t>(n), 0.0);
  par::SerialContext ctx;
  for (auto _ : state) {
    gain_times_residual(ctx, v, r, dx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_GainTimesResidual)->Arg(516)->Arg(2040);

void BM_VecAdd(benchmark::State& state) {
  const Index n = state.range(0);
  Vector x(static_cast<std::size_t>(n), 1.0);
  Vector y(static_cast<std::size_t>(n), 0.0);
  par::SerialContext ctx;
  for (auto _ : state) {
    vec_add_inplace(ctx, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_VecAdd)->Arg(516)->Arg(2040);

}  // namespace
}  // namespace phmse::linalg

BENCHMARK_MAIN();
