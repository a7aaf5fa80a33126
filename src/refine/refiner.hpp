// refine::Refiner — the outer-loop refinement subsystem (DESIGN.md §14).
//
// The paper's single sequential EKF-style sweep linearizes every constraint
// at the initial geometry; from a poor start the Jacobians point the wrong
// way and one pass diverges.  The Refiner drives ONE compiled engine::Plan
// through outer iterations, exploiting the plan/execute split: each
// iteration is just another plan execution, re-linearized by feeding the
// previous root posterior back as the next initial_x (the re-linearization
// seam documented on Plan::solve), so the controller adds no per-iteration
// compile or allocation beyond its own monitoring.
//
// Modes:
//   single_pass — exactly one plan execution, bitwise identical to calling
//                 Plan::solve directly; the Refiner only adds monitoring.
//   iterated    — Gauss-Newton-style re-linearize/re-solve with optional
//                 step damping, convergence and divergence detection
//                 (following the iterated smoothers of Yaghoobi et al.,
//                 PAPERS.md).
//   annealed    — a temperature schedule inflates observation sigmas by
//                 T_k (variance x T_k^2) and decays T toward 1, flattening
//                 the early posterior so a bad basin can be escaped; when
//                 progress plateaus or diverges, the loop restarts from a
//                 seeded deterministic perturbation of the best iterate
//                 (after Altman's simulated-annealing structure
//                 calculation, PAPERS.md).
//
// Determinism: every solve is bitwise identical across serial/threaded/sim
// executors (the project invariant), and every control decision — chi^2
// monitoring, damping, temperature schedule, restart perturbations from one
// seeded Rng consumed in controller order — is executor-independent
// arithmetic on the controlling thread.  Identical RefineOptions (including
// seed) therefore produce bitwise-identical trajectories and posteriors on
// all three executors (tests/refine_determinism_test.cpp pins this).
//
// Deadlines (DESIGN.md §13): RefineOptions carries the same wall-clock
// budget / external token controls as engine::RunOptions.  The token is
// polled between iterations and bound through every inner solve; once at
// least one iteration has completed, expiry DEGRADES the call to the best
// iterate so far (RefineReport::deadline_degraded) instead of erroring —
// an any-time answer — while expiry before the first iterate completes
// throws exactly like a plain solve.
#pragma once

#include <cstdint>

#include "engine/engine.hpp"
#include "parallel/cancel.hpp"

namespace phmse::refine {

/// Outer-loop strategy; see the file comment.
enum class Mode : int { kSinglePass = 0, kIterated, kAnnealed };

/// "single_pass", "iterated" or "annealed".
const char* mode_name(Mode mode);

/// Parses a mode name (exact match); throws phmse::Error on anything else.
Mode mode_from_name(const std::string& name);

/// Controller parameters.  Validated by the Refiner constructor.
struct RefineOptions {
  Mode mode = Mode::kSinglePass;

  /// Outer-iteration cap (>= 1); single_pass always runs exactly one.
  int max_iterations = 16;
  /// Converged when an iteration's RMS step falls below this (0 disables;
  /// annealed mode additionally requires the temperature to have reached 1).
  double step_tolerance = 1e-6;
  /// Converged when an iterate's total chi-squared falls to or below this
  /// (0 disables); measured against the un-inflated noise model.
  double chi2_tolerance = 0.0;
  /// Fraction of the Gauss-Newton step the linearization point takes each
  /// iteration, in (0, 1].  1 re-linearizes at the full posterior (and is
  /// applied without arithmetic, keeping the iterate bitwise the solve's).
  double damping = 1.0;
  /// Divergence detection: an iterate whose chi-squared exceeds this
  /// multiple of the best seen (or is non-finite) stops an iterated loop
  /// (RefineReport::diverged; the best iterate is still returned) and
  /// triggers a restart in an annealed one.  Must be > 1.
  double divergence_ratio = 25.0;
  /// Consecutive non-improving iterations tolerated before the loop stops
  /// (iterated) or restarts (annealed).  >= 1.
  int patience = 4;

  /// Annealed mode: starting sigma-inflation temperature (>= 1).
  double initial_temperature = 8.0;
  /// Annealed mode: T <- max(1, T * cooling) after each iteration; in
  /// (0, 1).
  double cooling = 0.5;
  /// Annealed mode: at base temperature, a relative chi-squared change
  /// below this counts as a plateau; two consecutive plateau iterations
  /// trigger a restart while any remain.  >= 0.
  double plateau_ratio = 1e-3;
  /// Annealed mode: seeded perturbation restarts allowed (>= 0).
  int max_restarts = 2;
  /// Annealed mode: per-coordinate Gaussian sigma (Angstroms) of a restart
  /// perturbation around the best iterate.  >= 0.
  double restart_sigma = 0.3;
  /// Seed of the restart perturbation stream.  The stream is consumed only
  /// at restarts, on the controlling thread, so identical seeds give
  /// bitwise-identical trajectories on every executor.
  std::uint64_t seed = 0;

  /// Wall-clock budget for the WHOLE loop, measured from refine();
  /// <= 0 = unbounded.  See the file comment for degradation semantics.
  double deadline_seconds = 0.0;
  /// External cancellation; may be null, must outlive the call.  Same
  /// degradation semantics as the deadline.
  const par::CancelToken* cancel = nullptr;
};

/// Throws phmse::Error on any out-of-range RefineOptions field (annealing
/// parameters are checked only in annealed mode).  The Refiner constructor
/// calls this; the service layer calls it from submit() so a malformed
/// request fails at the call site, not inside a worker.
void validate(const RefineOptions& options);

/// Drives one compiled plan through outer refinement iterations.  The
/// Refiner borrows the plan (which must outlive it) and owns the best
/// iterate it returns: for iterated/annealed modes Result::state points at
/// Refiner-owned storage valid until the next refine() call or the
/// Refiner's destruction (single_pass results borrow from the plan exactly
/// like Plan::solve).  Not movable (it embeds a CancelToken); create one
/// where you use it.
class Refiner {
 public:
  explicit Refiner(engine::Plan& plan, const RefineOptions& options = {});
  Refiner(const Refiner&) = delete;
  Refiner& operator=(const Refiner&) = delete;

  /// Refines from `initial_x` on the plan's own serial context, or on
  /// `executor` (a caller context, a thread pool or a simulated machine).
  /// Both run the same controller; only the inner solves differ — and
  /// those are bitwise identical across executors by the project
  /// invariant.
  ///
  /// The returned Result aggregates the loop: `state` is the BEST iterate
  /// (by chi-squared), `seconds`/`vtime`/`breakdown`/`cycles` sum over all
  /// iterations, `converged` is the refine-level flag, and
  /// `report` is the best iterate's solve report with `report.refine`
  /// carrying the trajectory (DESIGN.md §14).
  engine::Result refine(const linalg::Vector& initial_x);
  engine::Result refine(engine::Executor executor,
                        const linalg::Vector& initial_x);

  const RefineOptions& options() const { return options_; }

 private:
  /// The controller; `executor` null = the plan's own serial context.
  engine::Result refine_(const engine::Executor* executor,
                         const linalg::Vector& initial_x);
  engine::Result run_loop_(const engine::Executor* executor,
                           const linalg::Vector& initial_x,
                           const engine::RunOptions& run);
  /// One inner solve at linearization point `x`.
  engine::Result solve_at_(const engine::Executor* executor,
                           const linalg::Vector& x,
                           const engine::RunOptions& run);
  /// Arms the loop-scope token from options_ (deadline and/or external
  /// cancel); null when uncontrolled.
  const par::CancelToken* arm_token_();

  engine::Plan* plan_;
  RefineOptions options_;
  /// The best iterate of the last iterated/annealed refine (deep copy; the
  /// plan's own root state is overwritten by every inner solve).
  est::NodeState best_state_;
  /// Next linearization point (reused across iterations and calls).
  linalg::Vector x_lin_;
  /// Loop-scope deadline token; links options_.cancel.
  par::CancelToken loop_token_;
};

}  // namespace phmse::refine

namespace phmse {
using refine::Refiner;
}  // namespace phmse
