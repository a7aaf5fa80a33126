// The linalg backend registry (DESIGN.md §12): selection semantics,
// fail-fast errors, the 64-byte storage-alignment guarantee, and the
// per-backend correctness gates —
//
//   * differential: every registered backend agrees with the frozen `ref`
//     oracle on every table primitive over a seeded shape grid that covers
//     m=1 / n=1 and every non-multiple-of-vector-width tail (the AVX-512
//     tile is 4 x 32, the AVX2 tile 4 x 8, NEON 4 x 4 — shapes like 33 and
//     129 cut through all of them);
//   * determinism: each backend is bitwise serial-vs-threaded identical
//     within itself;
//   * panels: the simd microkernels accumulate each output element as the
//     same ascending-k fma chain as the blocked panels, so their panel
//     output is bitwise equal to blocked — pinned per compiled ISA through
//     the gemm_panel_for_isa test hook;
//   * end-to-end: every backend reproduces the golden helix refinement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/team.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace phmse::linalg {
namespace {

// m=1 / n=1, every remainder of the 4-row microkernel tile, and sizes
// straddling the 8/32-column vector tiles and the 256-column strip.
const std::vector<Index> kMs = {0, 1, 2, 3, 5, 16, 17};
const std::vector<Index> kNs = {0, 1, 3, 7, 8, 9, 31, 33, 65, 129};

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
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n) + 1.0;
  return s;
}

// A random m x n Jacobian-like CSR with a handful of nonzeros per row
// (clustered columns, like a constraint touching a few atoms).
Csr random_csr(Index m, Index n, Rng& rng) {
  CsrBuilder builder(n);
  for (Index i = 0; i < m; ++i) {
    builder.begin_row();
    const Index nnz = n == 0 ? 0 : std::min<Index>(n, rng.uniform_int(1, 6));
    for (Index k = 0; k < nnz; ++k) {
      builder.add(rng.uniform_int(0, n - 1), rng.gaussian());
    }
  }
  Csr h;
  builder.finish_into(h);
  return h;
}

double frob(const Matrix& a) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) sum += a(i, j) * a(i, j);
  }
  return std::sqrt(sum);
}

void expect_close(const Matrix& got, const Matrix& want, double headroom,
                  const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const double tol = headroom * std::numeric_limits<double>::epsilon() *
                     std::max(1.0, frob(want));
  for (Index i = 0; i < want.rows(); ++i) {
    for (Index j = 0; j < want.cols(); ++j) {
      ASSERT_NEAR(got(i, j), want(i, j), tol)
          << what << " at (" << i << ", " << j << ")";
    }
  }
}

void expect_bitwise(const Matrix& a, const Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

std::string tag(const char* kernel, const char* backend, Index m, Index n) {
  return std::string(kernel) + "[" + backend + "] m=" + std::to_string(m) +
         " n=" + std::to_string(n);
}

// -- registry and selection -------------------------------------------------

TEST(Backend, RegistryListsRefBlockedSimd) {
  const auto backends = all_backends();
  ASSERT_EQ(backends.size(), 3u);
  EXPECT_STREQ(backends[0]->name, "ref");
  EXPECT_STREQ(backends[1]->name, "blocked");
  EXPECT_STREQ(backends[2]->name, "simd");
  for (const Backend* b : backends) {
    EXPECT_EQ(find_backend(b->name), b);
    // The table contract: pointers are always callable, fallbacks resolved
    // at registration.
    EXPECT_NE(b->sparse_dense, nullptr) << b->name;
    EXPECT_NE(b->innovation_covariance, nullptr) << b->name;
    EXPECT_NE(b->trsm_lower, nullptr) << b->name;
    EXPECT_NE(b->trsm_lower_transposed, nullptr) << b->name;
    EXPECT_NE(b->gain_times_residual, nullptr) << b->name;
    EXPECT_NE(b->covariance_downdate, nullptr) << b->name;
    EXPECT_NE(b->gram, nullptr) << b->name;
    EXPECT_NE(b->cholesky_factor, nullptr) << b->name;
  }
  EXPECT_EQ(find_backend("mkl"), nullptr);
}

TEST(Backend, ResolveEmptyNameIsTheProcessDefault) {
  EXPECT_EQ(&resolve_backend("", "test"), &default_backend());
  EXPECT_EQ(&resolve_backend("ref", "test"), find_backend("ref"));
}

TEST(Backend, DefaultPicksBestAvailableUnlessForced) {
  // With PHMSE_BACKEND set the default is pinned to that name; otherwise it
  // is simd when any microkernel set is usable on this CPU, else blocked.
  const std::string forced = env_string("PHMSE_BACKEND", "");
  if (!forced.empty()) {
    EXPECT_STREQ(default_backend().name, forced.c_str());
  } else if (simd::available()) {
    EXPECT_STREQ(default_backend().name, "simd");
  } else {
    EXPECT_STREQ(default_backend().name, "blocked");
  }
}

TEST(Backend, UnknownNameFailsFastListingValidBackendsAndCpuSupport) {
  try {
    backend_or_throw("gpu", "HierSolveOptions.backend");
    FAIL() << "expected phmse::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("HierSolveOptions.backend"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown backend 'gpu'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid backends: ref, blocked, simd"),
              std::string::npos)
        << msg;
    // The message must say what this CPU actually supports so a user can
    // tell a typo apart from a hardware limitation.
    EXPECT_NE(msg.find("simd microkernels:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cpu:"), std::string::npos) << msg;
  }
}

TEST(Backend, SolveOptionsUnknownBackendFailsFast) {
  engine::CompileOptions options;
  options.solve.backend = "cuda";
  EXPECT_THROW(engine::Engine::compile(
                   engine::Problem::flat(2, cons::ConstraintSet{}), options),
               Error);
}

// -- storage alignment (the microkernels' aligned-load guarantee) -----------

TEST(StorageAlignment, MatrixAndVectorDataIs64ByteAligned) {
  static_assert(kStorageAlignment == 64);
  // Odd sizes force reallocation through every growth path; the allocator
  // must hand back 64-byte-aligned blocks each time.
  for (const Index n : {1, 3, 17, 63, 64, 65, 129, 1000}) {
    Matrix m(n, n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kStorageAlignment,
              0u)
        << "Matrix n=" << n;
    Vector v(static_cast<std::size_t>(n), 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kStorageAlignment,
              0u)
        << "Vector n=" << n;
    v.resize(static_cast<std::size_t>(4 * n));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kStorageAlignment,
              0u)
        << "Vector resized n=" << n;
  }
}

// -- per-backend differential suite vs the ref oracle -----------------------

TEST(BackendDifferential, DensePrimitivesMatchRefOnEveryBackend) {
  Rng rng(9101);
  par::SerialContext ctx;
  const Backend& oracle = *find_backend("ref");
  for (const Index m : kMs) {
    for (const Index n : kNs) {
      const Matrix v = random_matrix(m, n, rng);
      const Matrix c0 = random_spd(n, rng);
      Matrix c_ref = c0;
      oracle.covariance_downdate(ctx, v, c_ref);
      mirror_lower(ctx, c_ref);
      Matrix gram_ref;
      oracle.gram(ctx, v, gram_ref);
      for (const Backend* b : all_backends()) {
        Matrix c = c0;
        b->covariance_downdate(ctx, v, c);
        mirror_lower(ctx, c);
        expect_close(c, c_ref, 4.0,
                     tag("covariance_downdate", b->name, m, n));
        Matrix out;
        b->gram(ctx, v, out);
        expect_close(out, gram_ref, 4.0, tag("gram", b->name, m, n));
      }
    }
  }
}

TEST(BackendDifferential, TriangularSolvesMatchRefOnEveryBackend) {
  Rng rng(9102);
  par::SerialContext ctx;
  const Backend& oracle = *find_backend("ref");
  for (const Index sz : {1, 5, 31, 33, 65, 129}) {
    Matrix l = random_spd(sz, rng);
    cholesky_serial(l);
    for (const Index rhs : {1, 7, 33, 65}) {
      const Matrix b0 = random_matrix(sz, rhs, rng);
      Matrix fwd_ref = b0;
      oracle.trsm_lower(ctx, l, fwd_ref);
      Matrix bwd_ref = b0;
      oracle.trsm_lower_transposed(ctx, l, bwd_ref);
      for (const Backend* b : all_backends()) {
        Matrix x = b0;
        b->trsm_lower(ctx, l, x);
        expect_close(x, fwd_ref, 16.0, tag("trsm_lower", b->name, sz, rhs));
        x = b0;
        b->trsm_lower_transposed(ctx, l, x);
        expect_close(x, bwd_ref, 16.0,
                     tag("trsm_lower_transposed", b->name, sz, rhs));
      }
    }
  }
}

TEST(BackendDifferential, CholeskyMatchesRefOnEveryBackend) {
  Rng rng(9103);
  par::SerialContext ctx;
  const Backend& oracle = *find_backend("ref");
  for (const Index n : {1, 5, 33, 65, 129}) {
    const Matrix s = random_spd(n, rng);
    Matrix a_ref = s;
    ASSERT_TRUE(oracle.cholesky_factor(ctx, a_ref, 48).ok());
    for (const Backend* b : all_backends()) {
      for (const Index block : {7, 48}) {
        Matrix a = s;
        ASSERT_TRUE(b->cholesky_factor(ctx, a, block).ok())
            << tag("cholesky", b->name, block, n);
        expect_close(a, a_ref, 64.0, tag("cholesky", b->name, block, n));
      }
    }
  }
}

TEST(BackendDifferential, SparseKernelsMatchRefOnEveryBackend) {
  Rng rng(9104);
  par::SerialContext ctx;
  const Backend& oracle = *find_backend("ref");
  for (const Index m : {1, 5, 16, 17}) {
    for (const Index n : {1, 9, 33, 129}) {
      const Csr h = random_csr(m, n, rng);
      const Matrix c = random_spd(n, rng);
      Matrix g_ref;
      oracle.sparse_dense(ctx, h, c, g_ref);
      Vector rdiag(static_cast<std::size_t>(m));
      Vector r(static_cast<std::size_t>(m));
      for (auto& x : rdiag) x = 0.01 + rng.uniform(0.0, 1.0);
      for (auto& x : r) x = rng.gaussian();
      Matrix s_ref;
      oracle.innovation_covariance(ctx, g_ref, h, rdiag, s_ref);
      Vector dx_ref(static_cast<std::size_t>(n), 0.0);
      oracle.gain_times_residual(ctx, g_ref, r, dx_ref);
      for (const Backend* b : all_backends()) {
        Matrix g;
        b->sparse_dense(ctx, h, c, g);
        expect_close(g, g_ref, 4.0, tag("sparse_dense", b->name, m, n));
        Matrix s;
        b->innovation_covariance(ctx, g_ref, h, rdiag, s);
        expect_close(s, s_ref, 4.0,
                     tag("innovation_covariance", b->name, m, n));
        Vector dx(static_cast<std::size_t>(n), 0.0);
        b->gain_times_residual(ctx, g_ref, r, dx);
        const double tol = 4.0 * std::numeric_limits<double>::epsilon() *
                           std::max(1.0, std::sqrt(dot(dx_ref.data(),
                                                       dx_ref.data(), n)));
        for (Index i = 0; i < n; ++i) {
          ASSERT_NEAR(dx[static_cast<std::size_t>(i)],
                      dx_ref[static_cast<std::size_t>(i)], tol)
              << tag("gain_times_residual", b->name, m, n) << " at " << i;
        }
      }
    }
  }
}

// -- per-backend bitwise serial-vs-threaded determinism ---------------------

TEST(BackendDeterminism, SerialVsThreadedBitwiseIdenticalPerBackend) {
  Rng rng(9105);
  par::ThreadPool pool(3);
  auto serial_and_threaded = [&](const auto& body, Matrix& serial_out,
                                 Matrix& threaded_out) {
    par::SerialContext serial;
    body(serial, serial_out);
    par::TeamContext team(pool, 0, pool.size());
    body(team, threaded_out);
  };
  for (const Index m : {1, 5, 16}) {
    for (const Index n : {1, 9, 33, 129}) {
      const Matrix v = random_matrix(m, n, rng);
      const Matrix c0 = random_spd(n, rng);
      const Csr h = random_csr(m, n, rng);
      const Matrix spd = random_spd(n, rng);
      for (const Backend* b : all_backends()) {
        Matrix s_out, t_out;
        serial_and_threaded(
            [&](par::ExecContext& ctx, Matrix& out) {
              out = c0;
              b->covariance_downdate(ctx, v, out);
            },
            s_out, t_out);
        expect_bitwise(s_out, t_out,
                       tag("covariance_downdate", b->name, m, n));
        serial_and_threaded(
            [&](par::ExecContext& ctx, Matrix& out) { b->gram(ctx, v, out); },
            s_out, t_out);
        expect_bitwise(s_out, t_out, tag("gram", b->name, m, n));
        serial_and_threaded(
            [&](par::ExecContext& ctx, Matrix& out) {
              b->sparse_dense(ctx, h, c0, out);
            },
            s_out, t_out);
        expect_bitwise(s_out, t_out, tag("sparse_dense", b->name, m, n));
        serial_and_threaded(
            [&](par::ExecContext& ctx, Matrix& out) {
              out = spd;
              ASSERT_TRUE(b->cholesky_factor(ctx, out, 48).ok());
            },
            s_out, t_out);
        expect_bitwise(s_out, t_out, tag("cholesky", b->name, 48, n));
      }
    }
  }
}

// -- the simd microkernel panels --------------------------------------------

// The panel contract (linalg/blas.hpp): each output element is one
// ascending-k fma chain, identical across tile widths and lane boundaries.
// The simd microkernels implement the same chain with vector FMAs, so their
// panels are BITWISE equal to the blocked panels — per compiled ISA.
TEST(SimdPanels, EveryTestableIsaIsBitwiseTheBlockedPanel) {
  const std::vector<std::string> isas = simd::testable_isas();
  if (isas.empty()) GTEST_SKIP() << "no simd microkernel set on this CPU";
  Rng rng(9106);
  const double alpha = -1.25;
  for (const std::string& isa : isas) {
    for (const Index mm : kMs) {
      for (const Index nn : kNs) {
        for (const Index kk : {0, 1, 5, 16}) {
          const Matrix a_nn = random_matrix(mm, kk, rng);   // mm x kk
          const Matrix a_tn = random_matrix(kk, mm, rng);   // kk x mm (A^T)
          const Matrix b = random_matrix(kk, nn, rng);
          const Matrix c0 = random_matrix(mm, nn, rng);
          const std::string what =
              isa + " mm=" + std::to_string(mm) + " kk=" +
              std::to_string(kk) + " nn=" + std::to_string(nn);

          Matrix c_simd = c0;
          Matrix c_blas = c0;
          if (mm > 0 && nn > 0) {
            simd::gemm_panel_for_isa(isa, false, false, alpha, a_nn.data(),
                                     kk, b.data(), nn, c_simd.data(), nn, mm,
                                     kk, nn);
            gemm_nn_acc(alpha, a_nn.data(), kk, b.data(), nn, c_blas.data(),
                        nn, mm, kk, nn);
            expect_bitwise(c_simd, c_blas, "nn_acc " + what);

            c_simd = c0;
            c_blas = c0;
            simd::gemm_panel_for_isa(isa, true, false, alpha, a_tn.data(),
                                     mm, b.data(), nn, c_simd.data(), nn, mm,
                                     kk, nn);
            gemm_tn_acc(alpha, a_tn.data(), mm, b.data(), nn, c_blas.data(),
                        nn, mm, kk, nn);
            expect_bitwise(c_simd, c_blas, "tn_acc " + what);

            c_simd = c0;
            c_blas = c0;
            simd::gemm_panel_for_isa(isa, true, true, alpha, a_tn.data(), mm,
                                     b.data(), nn, c_simd.data(), nn, mm, kk,
                                     nn);
            gemm_tn_zero_acc(alpha, a_tn.data(), mm, b.data(), nn,
                             c_blas.data(), nn, mm, kk, nn);
            expect_bitwise(c_simd, c_blas, "tn_zero_acc " + what);
          }
        }
      }
    }
  }
}

TEST(SimdPanels, UnusableIsaNameFailsFast) {
  if (!simd::available()) GTEST_SKIP() << "no simd microkernel set";
  double c = 0.0;
  EXPECT_THROW(simd::gemm_panel_for_isa("vliw", false, false, 1.0, &c, 1, &c,
                                        1, &c, 1, 1, 1, 1),
               Error);
}

}  // namespace
}  // namespace phmse::linalg

namespace phmse::est {
namespace {

// -- per-backend golden end-to-end invariance -------------------------------

// Every backend must reproduce the golden seeded helix refinement recorded
// with the pre-optimization scalar kernels (see update_property_test.cpp,
// which owns regeneration via PHMSE_UPDATE_GOLDEN=1).  This is the
// end-to-end differential gate: reduction orders differ across backends
// only by FMA-contraction round-off, so 1e-8 relative headroom is orders of
// magnitude above legitimate drift.
TEST(BackendGolden, HelixRefinementMatchesGoldenOnEveryBackend) {
  const std::string path =
      std::string(PHMSE_GOLDEN_DIR) + "/helix_update_2bp.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with PHMSE_UPDATE_GOLDEN=1";
  double g_rmsd = 0.0;
  double g_trace = 0.0;
  in >> g_rmsd >> g_trace;
  ASSERT_FALSE(in.fail()) << "malformed golden file " << path;

  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  for (const linalg::Backend* backend : linalg::all_backends()) {
    Rng rng(20260805);
    NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                      1.0, 0.3, rng);
    par::SerialContext ctx;
    BatchUpdater up;
    up.set_backend(backend);
    up.apply_all(ctx, st, set, 16);

    const double rmsd = model.topology.rmsd_to_truth(st.x);
    double trace = 0.0;
    for (Index i = 0; i < st.dim(); ++i) trace += st.c(i, i);
    EXPECT_NEAR(rmsd, g_rmsd, 1e-8 * std::max(1.0, std::abs(g_rmsd)))
        << backend->name;
    EXPECT_NEAR(trace, g_trace, 1e-8 * std::max(1.0, std::abs(g_trace)))
        << backend->name;
  }
}

// A full per-backend sweep must also be bitwise serial-vs-threaded
// deterministic end to end, not just kernel by kernel.
TEST(BackendGolden, SweepIsBitwiseSerialVsThreadedPerBackend) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  par::ThreadPool pool(3);
  for (const linalg::Backend* backend : linalg::all_backends()) {
    Rng rng_serial(20260805);
    NodeState serial_st = make_initial_state(
        model.topology, 0, model.num_atoms(), 1.0, 0.3, rng_serial);
    Rng rng_threaded(20260805);
    NodeState threaded_st = make_initial_state(
        model.topology, 0, model.num_atoms(), 1.0, 0.3, rng_threaded);

    par::SerialContext sctx;
    BatchUpdater up_serial;
    up_serial.set_backend(backend);
    up_serial.apply_all(sctx, serial_st, set, 16);

    par::TeamContext team(pool, 0, pool.size());
    BatchUpdater up_threaded;
    up_threaded.set_backend(backend);
    up_threaded.apply_all(team, threaded_st, set, 16);

    EXPECT_EQ(serial_st.x, threaded_st.x) << backend->name;
    EXPECT_EQ(serial_st.c, threaded_st.c) << backend->name;
  }
}

}  // namespace
}  // namespace phmse::est
