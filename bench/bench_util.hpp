// Shared helpers for the benchmark harnesses.
//
// Every harness honours two environment knobs:
//   PHMSE_BENCH_SCALE  — 1.0 (default) runs the full paper configuration;
//                        smaller values trim the largest problem sizes for
//                        quick smoke runs.
//   PHMSE_BENCH_SEED   — RNG seed for initial-estimate perturbations.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "constraints/ribo_gen.hpp"
#include "core/assign.hpp"
#include "core/solve_plan.hpp"
#include "core/schedule.hpp"
#include "core/work_model.hpp"
#include "engine/engine.hpp"
#include "engine/study.hpp"
#include "molecule/ribo30s.hpp"
#include "molecule/rna_helix.hpp"

namespace phmse::bench {

/// Benchmark scale in (0, 1]; from PHMSE_BENCH_SCALE.
double bench_scale();

/// A ready-to-solve problem: model + constraints + hierarchy + initial x.
struct HelixProblem {
  mol::HelixModel model;
  cons::ConstraintSet constraints;
  linalg::Vector initial;
};

struct RiboProblem {
  mol::Ribo30sModel model;
  cons::ConstraintSet constraints;
  linalg::Vector initial;
};

/// Builds the paper's Helix problem of `length` base pairs (constraints
/// exactly as in Table 1 — no anchors) with a perturbed initial estimate.
HelixProblem make_helix_problem(Index length);

/// Builds the paper's ribo30S problem (~900 pseudo-atoms, ~6500
/// constraints).
RiboProblem make_ribo_problem();

/// Builds, populates and schedules the Fig.-2 hierarchy for a helix
/// problem.
core::Hierarchy prepare_helix_hierarchy(const HelixProblem& p, int procs,
                                        Index batch_size = 16);

/// Builds, populates and schedules the Fig.-4 hierarchy for the ribosome.
core::Hierarchy prepare_ribo_hierarchy(const RiboProblem& p, int procs,
                                       Index batch_size = 16);

/// Compiles the helix problem into an engine plan (Fig.-2 decomposition).
engine::Plan make_helix_plan(const HelixProblem& p, int procs,
                             const core::HierSolveOptions& solve = {});

/// Compiles the ribosome problem into an engine plan (Fig.-4
/// decomposition).
engine::Plan make_ribo_plan(const RiboProblem& p, int procs,
                            const core::HierSolveOptions& solve = {});

/// Prints a standard header line for a harness.
void print_header(const std::string& table_id, const std::string& title);

/// Configuration for one of the paper's parallel speedup studies
/// (Tables 3-6 / Figures 7-10): a problem on a simulated machine.
struct SpeedupSpec {
  std::string table_id;
  std::string title;
  simarch::MachineConfig machine;
  std::vector<int> proc_counts;
  /// true = Helix 16 bp, false = ribo30S.
  bool helix_problem = true;
  /// Reference rows from the paper for the side-by-side note.
  std::string paper_note;
};

/// Runs the study: for every processor count, executes one cycle of the
/// hierarchical solve on the simulated machine and prints work time,
/// speedup and the per-category breakdown in the paper's table layout.
int run_speedup_table(const SpeedupSpec& spec);

// ---------------------------------------------------------------------------
// Machine-readable perf-regression records (bench/kernels_regress.cpp).
//
// The JSON document ("phmse-kernel-bench-v1") is consumed by
// scripts/bench_check.py, which compares a fresh run against the committed
// BENCH_kernels.json baseline with a tolerance band.

/// One timed kernel configuration.
struct KernelBenchRecord {
  std::string kernel;  // "covariance_downdate", "gram", "trsm_lower", ...
  std::string impl;    // "blocked" (production) or "ref" (scalar oracle)
  Index m = 0;         // batch rows (L size for trsm, 0 for cholesky)
  Index n = 0;         // state dimension / RHS width / factor size
  int threads = 1;     // ExecContext width the kernel ran on
  int reps = 0;        // timed repetitions (best rep reported)
  double seconds = 0.0;  // best (minimum) wall time of one repetition
  double flops = 0.0;    // useful floating-point work of one repetition
  double bytes = 0.0;    // compulsory memory traffic of one repetition

  double gflops() const {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
  double gbytes_per_sec() const {
    return seconds > 0.0 ? bytes / seconds * 1e-9 : 0.0;
  }
};

/// Times `fn` adaptively (at least `min_reps` repetitions, more for fast
/// kernels until ~100 ms total) and returns the best (minimum) single-rep
/// seconds with the rep count in `*reps_out`.  The minimum — not the
/// median — is reported so that background load on a shared machine does
/// not masquerade as a kernel regression.
double time_best(const std::function<void()>& fn, int min_reps,
                 int* reps_out);

/// Command line of the *_regress harnesses: `[--help] [OUT.json]`.  Sets
/// `*out` to the positional path, else PHMSE_BENCH_OUT, else
/// `default_out`.  Returns -1 when the harness should run; otherwise the
/// exit code to return at once: 0 after --help/-h printed the usage, 2
/// after an unknown '-'-prefixed option or a second path (usage on
/// stderr).
int parse_output_args(int argc, char** argv, const std::string& default_out,
                      std::string* out);

/// Writes `records` to `path` as a phmse-kernel-bench-v1 JSON document.
/// Throws phmse::Error if the file cannot be written.
void write_kernel_bench_json(const std::string& path,
                             const std::vector<KernelBenchRecord>& records);

}  // namespace phmse::bench
