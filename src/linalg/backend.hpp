// The linalg backend registry: runtime dispatch for the dense kernel layer.
//
// A Backend is a function-pointer table over the hot kernels of the Fig.-1
// update procedure (see kernels.hpp for the category mapping).  Three
// implementations are registered:
//
//   ref     — the frozen scalar oracle (linalg/ref); slow, trustworthy,
//             never optimized.  The differential gate for everything else.
//   blocked — the portable cache-blocked, register-tiled kernels
//             (linalg/blocked); the former hard-wired implementation.
//   simd    — explicit AVX-512/AVX2/NEON microkernels (linalg/simd); any
//             primitive whose microkernel set is missing on this CPU falls
//             back to the blocked implementation, so `simd` is always
//             selectable.
//
// Selection: default_backend() picks the best available implementation,
// overridable per process with PHMSE_BACKEND=ref|blocked|simd and per solve
// via core::HierSolveOptions::backend.  Unknown names fail fast with the
// valid names and this CPU's features.
//
// Determinism contract (DESIGN.md §12): every backend is run-to-run
// deterministic and bitwise serial-vs-threaded identical *within itself*;
// agreement *across* backends is differential against `ref` (FMA and
// vector-width effects mean bitwise cross-backend equality is not
// guaranteed).  A solve's backend is resolved once at plan build, so a
// compiled plan never mixes backends mid-run.
//
// A future external-BLAS or GPU backend plugs in by filling another Backend
// table (device staging hidden behind the pointers) and adding it to the
// registry list in backend.cpp.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {

/// Function-pointer table for one kernel implementation.  All pointers are
/// always non-null; fallback resolution happens at registration.
struct Backend {
  /// Registry name ("ref", "blocked", "simd").
  const char* name;

  /// For the simd backend, the microkernel set it resolved to ("avx512",
  /// "avx2", "neon", or "scalar" when everything fell back to blocked);
  /// "portable" for the scalar/blocked backends.
  const char* simd_isa;

  void (*sparse_dense)(par::ExecContext&, const Csr&, const Matrix&,
                       Matrix&);
  void (*innovation_covariance)(par::ExecContext&, const Matrix&, const Csr&,
                                const Vector&, Matrix&);
  void (*trsm_lower)(par::ExecContext&, const Matrix&, Matrix&);
  void (*trsm_lower_transposed)(par::ExecContext&, const Matrix&, Matrix&);
  void (*gain_times_residual)(par::ExecContext&, const Matrix&, const Vector&,
                              Vector&);
  /// Lower triangle only (see linalg::covariance_downdate).
  void (*covariance_downdate)(par::ExecContext&, const Matrix&, Matrix&);
  void (*gram)(par::ExecContext&, const Matrix&, Matrix&);
  CholeskyResult (*cholesky_factor)(par::ExecContext&, Matrix&,
                                    Index block_size);
};

/// All registered backends, in registry order (ref, blocked, simd).
std::span<const Backend* const> all_backends();

/// Looks up a backend by name; nullptr when unknown.
const Backend* find_backend(std::string_view name);

/// Looks up a backend by name, failing fast on an unknown name with a
/// message listing the valid backends and which ones this CPU supports
/// natively.  `who` names the configuration source for the error text
/// (e.g. "PHMSE_BACKEND" or "HierSolveOptions.backend").
const Backend& backend_or_throw(std::string_view name, std::string_view who);

/// The process-default backend: PHMSE_BACKEND when set (fails fast on an
/// unknown value), otherwise the best available implementation (simd when
/// any microkernel set is usable on this CPU, else blocked).  Resolved once
/// and cached.
const Backend& default_backend();

/// Resolves an options-level backend name: empty means default_backend(),
/// anything else goes through backend_or_throw(name, who).
const Backend& resolve_backend(std::string_view name, std::string_view who);

/// One-line human-readable support summary, e.g.
/// "valid backends: ref, blocked, simd (simd microkernels: avx512; cpu:
/// avx2 fma avx512f)".  Used in selection errors and diagnostics.
std::string backend_support_summary();

}  // namespace phmse::linalg
