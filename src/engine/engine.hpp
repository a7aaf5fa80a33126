// phmse::Engine — the compile-once / solve-many facade.
//
// Everything the paper derives before numbers flow — the §3 hierarchical
// decomposition, constraint-to-node assignment, Eq.-1 work-model
// calibration, and the §4.3 static processor schedule — is observation-
// independent setup.  The facade splits it out:
//
//   Problem  — topology size + constraint set + a decomposition recipe;
//   Plan     — the compiled artifact (Engine::compile): hierarchy, slots,
//              work model, schedule, and a core::SolvePlan with pre-sized
//              per-node workspaces;
//   solve()  — executes the plan against fresh observation values on any
//              Executor (owned serial context, caller's ExecContext, a
//              ThreadPool, or a simulated machine) in any RunMode (full,
//              incremental, low-rank), returning the posterior with
//              per-phase timing and per-category perf counters.
//
// A plan is reused across solves, processor counts (reschedule) and
// observation vectors (set_observations); after the first solve the serial
// steady state performs zero heap allocations.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/assign.hpp"
#include "core/hierarchy.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "parallel/exec.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"

namespace phmse::engine {

/// A solve exceeded its deadline (DESIGN.md §13): either the budget was
/// already spent when the solve was asked to start, or a cancellation poll
/// observed the expired deadline clock mid-flight and the run aborted
/// transactionally.  The plan stays reusable either way — the next exact
/// solve is bitwise identical to one that was never interrupted.
class DeadlineError : public Error {
 public:
  using Error::Error;
};

/// Where a solve runs: the caller's ExecContext, a ThreadPool, or a
/// simulated machine (converts implicitly from each; see core::Executor).
using Executor = core::Executor;

/// Which answer a solve computes (DESIGN.md §11).
enum class RunMode : int {
  /// Execute every node.
  kFull = 0,
  /// Re-execute only the nodes whose observations changed since the last
  /// completed run (tracked by set_observations), leaves whose `initial_x`
  /// slice changed bitwise, and their ancestor paths; every other subtree's
  /// checkpointed posterior is reused in place.  Falls back to a full run —
  /// same answer, Result::report.incremental stays false — when no
  /// checkpoint is valid (first solve on a fresh plan, a previous run that
  /// aborted, or one that took more than one cycle).  On every executor the
  /// posterior and report are bitwise identical to a full run.
  kIncremental,
  /// Low-rank perturbative re-solve: when only k observation values
  /// changed since the last completed single-cycle run, fold them into the
  /// checkpointed root posterior as one rank-k Kalman shift —
  /// retract-plus-reapply with a shared Jacobian cancels in information
  /// space, so the mean moves by C·Hᵀ·R⁻¹·(z_new − z_old) and the
  /// covariance stays put, in O(k·n) instead of re-running every root-path
  /// constraint at O(n²) each.  H is each constraint's ARCHIVED Jacobian
  /// row from the checkpoint-forming sweep — the sensitivity identity
  /// telescopes exactly through the hierarchy only for that row.  The
  /// result is a first-order (extended-Kalman) approximation whose error is
  /// linear in the observation change, NOT bitwise identical to a
  /// from-scratch solve; Result::report.low_rank marks it.  The shift is
  /// one node's work and always runs on the plan's serial context.  Falls
  /// back to kIncremental on the given executor whenever the fast path
  /// cannot give a principled answer: no pending changes, more than 64
  /// changed slots, a changed initial_x, a multi-cycle plan, non-finite
  /// inputs, or a change so large an outlier-gating policy might drop it
  /// on the exact path.  A later exact solve of any kind restores the
  /// bitwise-reproducible baseline: the changed nodes and the root stay
  /// dirty until one runs.
  kLowRank,
};

/// Per-solve controls (DESIGN.md §13).  Orthogonal to the compile-time
/// HierSolveOptions: these arm one run, not the plan.
struct RunOptions {
  /// What the solve computes; see RunMode.
  RunMode mode = RunMode::kFull;
  /// Wall-clock budget for this solve, measured from the call; <= 0 means
  /// unbounded, and a budget past the clock's range (+inf, 1e10 s) never
  /// fires.  NaN is rejected with phmse::Error.  On expiry the executors
  /// abort at the next batch/node boundary and the call throws
  /// DeadlineError.
  double deadline_seconds = 0.0;
  /// External cancellation (e.g. a service watchdog); may be null, must
  /// outlive the call.  An explicit cancel() surfaces as
  /// par::CancelledError unless the token's own deadline has also passed
  /// (then DeadlineError — the two mean the same thing to the caller).
  const par::CancelToken* cancel = nullptr;
  /// Opt-in graceful degradation: when the armed deadline is too tight for
  /// the exact path (judged against an EWMA of this plan's past exact solve
  /// times), answer with the kLowRank root update instead, provided its
  /// preconditions hold.  When they do not, the exact path runs anyway and
  /// takes its chances with the deadline.
  bool degrade_lowrank = false;
};

/// The observation-independent problem statement: how many atoms, which
/// measurements, and how to decompose the molecule into a hierarchy.
struct Problem {
  Index num_atoms = 0;
  cons::ConstraintSet constraints;
  /// Builds the §3 hierarchy over atoms [0, num_atoms).  Invoked once per
  /// compile; the callback owns whatever model state it needs.
  std::function<core::Hierarchy()> decompose;
  /// Structural identity of the decomposition recipe.  `decompose` is an
  /// opaque callable, so callers that want plan caching (phmse::Server)
  /// name the recipe here: two Problems whose recipe strings differ never
  /// share a cached plan.  The factories below fill it in; for custom()
  /// the tag is the caller's responsibility and an empty tag marks the
  /// problem as uncacheable.
  std::string recipe;

  /// Single-node decomposition: the flat (non-hierarchical) solver.
  static Problem flat(Index num_atoms, cons::ConstraintSet constraints);

  /// Recursive bisection down to `max_leaf_atoms` atoms per leaf.
  static Problem bisection(Index num_atoms, cons::ConstraintSet constraints,
                           Index max_leaf_atoms);

  /// Any decomposition recipe (helix/ribosome builders, graph partition,
  /// bottom-up grouping, hand-built trees).  `recipe` names the recipe for
  /// the service-layer plan cache; leave it empty to opt out of caching.
  static Problem custom(Index num_atoms, cons::ConstraintSet constraints,
                        std::function<core::Hierarchy()> decompose,
                        std::string recipe = {});
};

/// Compilation parameters.
struct CompileOptions {
  /// Per-solve parameters baked into the plan (batch size, cycles,
  /// tolerance, prior).
  core::HierSolveOptions solve;
  /// Processor count for the §4.3 static schedule (reschedule() revises).
  int processors = 1;
  /// Eq.-1 work model driving the schedule, used as-is unless calibration
  /// is requested (and as the fallback if calibration degenerates).
  core::WorkModel work_model;
  /// Measure Eq. 1 on this host with short synthetic batch timings instead
  /// of trusting `work_model`'s coefficients.
  bool calibrate_work_model = false;
};

/// Wall-clock seconds spent in each compile phase.
struct CompileTimings {
  double decompose_seconds = 0.0;
  double assign_seconds = 0.0;
  double calibrate_seconds = 0.0;
  double schedule_seconds = 0.0;
  double workspace_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Outcome of one plan execution.
struct Result {
  /// Root posterior (x, C) — borrowed from the plan, valid until the next
  /// solve on (or destruction of) the same plan.
  const est::NodeState* state = nullptr;
  int cycles = 0;
  double last_cycle_delta = 0.0;
  bool converged = false;
  /// Host wall-clock seconds of this solve.
  double seconds = 0.0;
  /// Simulated work time (virtual seconds); nonzero only for simulated
  /// solves.
  double vtime = 0.0;
  /// Per-category time of this solve: the executor's own accounting (real
  /// seconds serially/threaded, virtual seconds simulated).
  perf::Profile breakdown;
  /// Fault-tolerance diagnostics: every batch's outcome under the plan's
  /// SolvePolicy, aggregated over the tree (DESIGN.md §9).  clean() on any
  /// completed solve under the default abort policy.
  core::SolveReport report;

  const est::NodeState& posterior() const {
    PHMSE_CHECK(state != nullptr, "result holds no posterior");
    return *state;
  }
};

/// A compiled problem: reusable across repeated solves, executors,
/// processor counts, and observation vectors.  Movable, non-copyable.
///
/// Thread safety: a Plan owns persistent per-node state and workspaces
/// that every solve() mutates, so solves on ONE plan are single-flight —
/// overlapping calls from two threads throw phmse::Error instead of
/// silently corrupting each other's numerics.  Different Plan objects are
/// fully independent; the service layer (phmse::Server) hands each
/// in-flight solve its own cached plan instance.
class Plan {
 public:
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Solves on the plan's own serial context.  After the first call this
  /// is the zero-allocation steady-state path.
  ///
  /// `initial_x` is the solve's LINEARIZATION POINT, not just a warm start:
  /// every leaf fills its state from its slice of it and the constraint
  /// Jacobians are evaluated at the evolving estimate seeded from it.  The
  /// root posterior's coordinate ordering equals initial_x's (coordinate
  /// 3*atom+axis), so feeding one solve's posterior mean back as the next
  /// initial_x re-linearizes the whole problem at the current estimate —
  /// the re-linearization seam the refine::Refiner's iterated mode drives
  /// (DESIGN.md §14), symmetric with how set_observations rebinds values.
  Result solve(const linalg::Vector& initial_x, const RunOptions& run = {});

  /// Solves on `executor`: a caller context (serial, team, or simulated),
  /// real threads on a ThreadPool following the §4.3 schedule (see
  /// core::SolvePlan::run for the exception-safety contract), or a
  /// simulated machine (reset first; Result::vtime and the breakdown carry
  /// the virtual timing).  Every executor produces bitwise the same
  /// posterior.
  ///
  /// `run` selects the RunMode and arms the deadline/cancellation controls:
  /// the run observes them at every batch and node boundary; on deadline
  /// expiry the solve throws DeadlineError (explicit external cancellation
  /// surfaces as par::CancelledError), and the plan's checkpoint machinery
  /// guarantees the abort is transactional.  With default RunOptions this
  /// is an uncontrolled full solve.
  Result solve(Executor executor, const linalg::Vector& initial_x,
               const RunOptions& run = {});

  /// solve(initial_x, {.mode = RunMode::kIncremental}).
  Result solve_incremental(const linalg::Vector& initial_x);

  /// True when the plan's per-node states form a reusable checkpoint (the
  /// last run completed in a single cycle).
  bool has_checkpoint() const { return plan_->has_checkpoint(); }

  /// The most recent run's report — including a run that threw: a
  /// cancelled/over-deadline solve produces no Result, but the report's
  /// `cancelled*` fields record where it stopped (DESIGN.md §13).
  const core::SolveReport& last_report() const { return plan_->last_report(); }

  /// Nodes marked observation-dirty by set_observations since the last
  /// completed run (ancestor propagation happens at solve time).
  std::size_t pending_dirty_nodes() const { return plan_->num_dirty_nodes(); }

  /// Observation slots whose value changed since the last completed solve
  /// (the retraction work-list of RunMode::kLowRank).  Saturates: past 64
  /// distinct slots the count stops growing and a low-rank solve falls
  /// back to the exact path.
  std::size_t pending_observation_changes() const { return pending_.size(); }

  /// Recomputes the §4.3 schedule for a new processor count; the same plan
  /// then serves speedup sweeps without re-compiling.
  void reschedule(int processors);

  /// Rebinds fresh observed values onto the compiled constraint slots:
  /// values[i] replaces the observed value of the i-th constraint of the
  /// problem the plan was compiled from.  Throws phmse::Error if the count
  /// does not match num_observation_slots() or any compiled slot no longer
  /// resolves to a live constraint (e.g. a node's constraint list was
  /// mutated behind the plan's back) — a mismatch must never silently bind
  /// values to the wrong constraints; validation completes before any
  /// value is written, so a failed rebind leaves the plan untouched.
  ///
  /// Dirty tracking: only slots whose value actually changes (bitwise;
  /// a NaN is conservatively treated as a change) mark their node dirty
  /// for an incremental solve.  Rebinding an identical vector is a no-op
  /// and leaves the dirty set empty.
  void set_observations(std::span<const double> values);

  /// Number of values set_observations expects: one per constraint of the
  /// compiled problem, in the problem's constraint order.
  std::size_t num_observation_slots() const { return slots_.size(); }

  /// Inflates every observation's sigma by `temperature` for subsequent
  /// solves — the annealing seam of the refinement subsystem (DESIGN.md
  /// §14): variances scale by temperature^2, flattening the posterior so
  /// early annealed iterations move freely, and 1.0 restores the exact
  /// noise model bitwise.  A (bitwise) change invalidates the §11
  /// checkpoint and disables the low-rank path until an exact solve at the
  /// new temperature completes; the constraints' stored variances are never
  /// modified.  Symmetric with set_observations: observations rebind the
  /// measured values, this rebinds how much they are trusted.  Must be
  /// finite and > 0 (normally >= 1).
  void set_sigma_inflation(double temperature);
  /// The currently applied sigma-inflation temperature (1 = exact model).
  double sigma_inflation() const;

  int processors() const { return processors_; }
  const core::WorkModel& work_model() const { return work_model_; }
  const CompileTimings& timings() const { return timings_; }
  const core::HierSolveOptions& options() const { return plan_->options(); }
  core::Hierarchy& hierarchy() { return *hierarchy_; }
  const core::Hierarchy& hierarchy() const { return *hierarchy_; }

  /// Human-readable plan dump: tree, schedule, work model.
  std::string describe() const;

 private:
  friend class Engine;
  Plan() = default;

  /// RAII single-flight marker: entering a solve sets the flag, leaving
  /// (normally or by exception) clears it.  Construction throws if a solve
  /// is already in flight on the same plan.
  class SolveFlight {
   public:
    explicit SolveFlight(std::atomic<bool>& busy);
    ~SolveFlight();
    SolveFlight(const SolveFlight&) = delete;
    SolveFlight& operator=(const SolveFlight&) = delete;

   private:
    std::atomic<bool>& busy_;
  };

  /// One observation slot whose value changed since the last completed
  /// solve, with the value the last solve actually applied (what a
  /// low-rank solve must retract).  First change per slot wins: chained
  /// rebinds between solves must retract the committed value, not an
  /// intermediate one that never reached the posterior.
  struct PendingChange {
    std::size_t slot = 0;
    double old_observed = 0.0;
  };
  /// Above this many distinct changed slots a rank-k update stops being
  /// cheaper than the exact dirty-path re-solve; a low-rank solve falls
  /// back.
  static constexpr std::size_t kMaxPendingChanges = 64;

  void clear_pending_();

  /// Builds a Result from a finished core run and feeds the exact-path
  /// duration EWMA the degradation rung consults (low-rank runs excluded).
  Result finish_result_(const core::PlanRunStats& stats, double seconds);
  /// Arms run_token_ from `run` and returns the token the solve should
  /// observe (null = uncontrolled).  The caller's token is never mutated.
  const par::CancelToken* arm_controls_(const RunOptions& run);
  /// The low-rank fast path: materializes the pending work-list and
  /// attempts try_run_lowrank on the serial context; false = preconditions
  /// refused, the caller falls back.
  bool try_lowrank_result_(const linalg::Vector& initial_x, Result* out);

  std::unique_ptr<core::Hierarchy> hierarchy_;
  std::vector<core::AssignedSlot> slots_;
  std::unique_ptr<core::SolvePlan> plan_;
  par::SerialContext serial_;
  core::WorkModel work_model_;
  int processors_ = 1;
  CompileTimings timings_;
  /// Retraction work-list fed by set_observations, consumed (or abandoned
  /// to the exact path) by the next completed solve.
  std::vector<PendingChange> pending_;
  bool pending_overflow_ = false;
  /// Scratch work-list for try_run_lowrank (kept to amortize its
  /// allocation across repeated low-rank solves).
  std::vector<core::LowRankChange> changes_scratch_;
  /// Single-flight guard; boxed so the Plan stays movable (moving a plan
  /// with a solve in flight is a caller bug the guard also catches).
  std::unique_ptr<std::atomic<bool>> in_solve_ =
      std::make_unique<std::atomic<bool>>(false);
  /// Scratch token for deadline-armed solves (boxed: tokens hold atomics
  /// and must not move while bound).  Reset per controlled solve; links to
  /// the caller's RunOptions::cancel so either source stops the run.
  std::unique_ptr<par::CancelToken> run_token_ =
      std::make_unique<par::CancelToken>();
  /// EWMA of this plan's completed exact (non-low-rank) solve durations —
  /// the degradation rung's estimate of what the exact path would cost.
  /// 0 until the first exact solve completes.
  double exact_seconds_ewma_ = 0.0;
};

/// The facade entry point.
class Engine {
 public:
  /// Compiles `problem` into an executable Plan: decompose, assign
  /// constraints (recording rebind slots), optionally calibrate Eq. 1,
  /// estimate work, schedule §4.3 processors, and pre-size all workspaces.
  static Plan compile(const Problem& problem,
                      const CompileOptions& options = {});
};

}  // namespace phmse::engine

namespace phmse {
using engine::Engine;
}  // namespace phmse
