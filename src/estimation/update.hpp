// The sequential update algorithm (paper Figure 1) for one constraint batch.
//
// Given the estimate (x-, C-) and an m-dimensional observation batch
// z = h(x) + v, v ~ N(0, R):
//   H  = dh/dx |x-                          (sparse, m x n)
//   G  = H C-                               (d-s;  G^T = C- H^T)
//   S  = G H^T + R                          (m-m;  innovation covariance)
//   S  = L L^T                              (chol)
//   w  = L^{-1} (z - h(x-))                 (sys;  whitened residual)
//   W  = L^{-1} G                           (sys;  gain K = W^T L^{-1})
//   x+ = x- + W^T w                         (m-v / vec)
//   C+ = C- - W^T W                         (m-v;  see kernels.hpp)
//
// The covariance update is symmetric, so during a node's sweep only C's
// lower triangle is kept current: before each batch the rows G = H C reads
// are mirrored (mirror_rows), and the whole upper triangle is restored once
// when the sweep ends (mirror_lower).  Outside a sweep C is always
// symmetric.
//
// BatchUpdater owns the scratch buffers so repeated application over
// thousands of batches does not allocate.
#pragma once

#include <span>
#include <vector>

#include "constraints/set.hpp"
#include "estimation/policy.hpp"
#include "estimation/state.hpp"
#include "linalg/csr.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {
struct Backend;
}  // namespace phmse::linalg

namespace phmse::est {

/// Applies constraint batches to a NodeState (paper Fig. 1).
class BatchUpdater {
 public:
  BatchUpdater() = default;

  /// Pins the kernel backend this updater calls through (linalg/backend.hpp).
  /// Null (the default) means the process-default backend, re-read on every
  /// apply so a test that swaps PHMSE_BACKEND between solves is honored.
  /// The pointer must outlive the updater; registry backends are static.
  void set_backend(const linalg::Backend* backend) { backend_ = backend; }

  /// Multiplies every constraint's noise variance by `scale` at
  /// linearization time — the annealing seam of DESIGN.md §14: inflating
  /// observation sigmas by a temperature T means scale = T^2.  The
  /// constraints themselves are never touched, so dropping the scale back
  /// to 1.0 restores the exact original noise model.  At the default 1.0
  /// the variance is copied verbatim (no multiply), so unscaled sweeps stay
  /// bitwise identical to the historical path.  Must be finite and > 0.
  void set_variance_scale(double scale);
  double variance_scale() const { return variance_scale_; }

  /// Applies one batch of scalar constraints to `state` — a one-batch
  /// sweep: C must be symmetric on entry and is symmetric on return.  All
  /// constraint atoms must lie inside the state's atom range.  Execution
  /// (serial, threaded, or simulated) is directed by `ctx`.
  ///
  /// Transactional (DESIGN.md §9): every fallible step — input validation,
  /// the S = L L^T factorization and its retry ladder, the innovation gate
  /// — runs before `state` is touched, and x/C are only written once all of
  /// them have succeeded.  A batch that is rejected, under any policy,
  /// therefore leaves the state bitwise identical to its pre-batch value.
  /// With the default (abort) policy a failure throws phmse::Error exactly
  /// as it always has.  `batch_index` identifies the batch within a sweep
  /// for diagnostics and the fault-injection seam (-1 = standalone call).
  BatchOutcome apply(par::ExecContext& ctx, NodeState& state,
                     std::span<const cons::Constraint> batch,
                     const SolvePolicy& policy = {}, Index batch_index = -1);

  /// Applies an entire set in consecutive batches of `batch_size` (the last
  /// batch may be smaller): one sweep.  C must be symmetric on entry; it is
  /// symmetric again on return, also when a batch or a cancel throws (the
  /// upper triangle is restored on the way out).  Failed batches are
  /// handled per `policy`; when `report` is non-null every batch outcome is
  /// tallied into it (non-ok outcomes individually).
  void apply_all(par::ExecContext& ctx, NodeState& state,
                 const cons::ConstraintSet& set, Index batch_size,
                 const SolvePolicy& policy = {}, NodeReport* report = nullptr);

  /// Upper bound on one scalar constraint's Jacobian-row nonzeros (4 atoms
  /// x 3 coordinates; the widest kind is a torsion).
  static constexpr Index kMaxRowNnz = 12;

  /// Jacobian row of constraint `i` (the set's sweep order) exactly as it
  /// was linearized when apply_all last applied its batch — the archive the
  /// low-rank observation rebind of DESIGN.md §11 reads.  The sensitivity
  /// of the finished sweep to one observed value is C_post H_i^T R_i^{-1}
  /// with H_i at its ORIGINAL linearization point (the chain of
  /// (I - K H) damping factors telescopes to exactly that in information
  /// space), so a rebind must reuse this row, not a fresh linearization at
  /// the evolved posterior.  Column indices are node-local state indices.
  /// Returns false when the constraint's batch was dropped by the policy
  /// (its information never entered the state) or no sweep has run.
  bool applied_row(Index i, std::span<const Index>& cols,
                   std::span<const double>& vals) const;

  /// Pre-sizes every scratch buffer for batches of up to `max_m` constraints
  /// against an `n`-dimensional state, so that subsequent apply() calls work
  /// entirely inside existing capacity.  (Without this, the first applied
  /// batch warms the buffers instead.)
  void reserve(Index max_m, Index n);

 private:
  /// One batch of a sweep (the body of apply): mirrors the rows of C that
  /// G = H C reads when the upper triangle is stale, and leaves it stale
  /// after a downdate.  The caller restores it with finish_sweep_.
  BatchOutcome apply_batch_(par::ExecContext& ctx, NodeState& state,
                            std::span<const cons::Constraint> batch,
                            const SolvePolicy& policy, Index batch_index);

  /// Restores C's upper triangle after a sweep that downdated it.
  void finish_sweep_(par::ExecContext& ctx, NodeState& state);

  /// Evaluates the batch at the current state: fills residual_, rdiag_ and
  /// the Jacobian, and records whether every position read was finite.
  /// Charged to the `other` category (the paper's O(m) constraint-function
  /// evaluation).
  void linearize(par::ExecContext& ctx, const NodeState& state,
                 std::span<const cons::Constraint> batch);

  /// Pre-update validation: the positions the batch linearized against and
  /// the observation data (residuals, variances) must all be finite, and
  /// every variance strictly positive.
  bool batch_inputs_valid_() const;

  /// Kernel dispatch table (see set_backend); null = process default.
  const linalg::Backend* backend_ = nullptr;

  /// Observation-variance multiplier (see set_variance_scale); 1.0 = the
  /// exact noise model, applied without a multiply.
  double variance_scale_ = 1.0;

  linalg::Csr h_;
  linalg::CsrBuilder builder_;  // Jacobian assembly; capacity swaps with h_
  linalg::Matrix g_;        // H * C            (m x n)
  linalg::Matrix s_;        // innovation cov   (m x m)
  linalg::Vector residual_; // z - h(x)         (m)
  linalg::Vector rdiag_;    // noise variances  (m)
  linalg::Vector dx_;       // state correction (n)
  linalg::Vector w_;        // whitened residual L^-1 r (m)
  std::vector<Index> touched_;  // ascending columns of h_ (rows G reads)
  bool positions_finite_ = true;  // set by linearize
  /// True from a sweep's first downdate until finish_sweep_: C's upper
  /// triangle is stale outside the rows mirrored since.
  bool upper_stale_ = false;

  /// Applied-Jacobian archive (see applied_row): fixed kMaxRowNnz-stride
  /// (cols, vals) slots per constraint of the last apply_all set, plus a
  /// per-constraint nonzero count (-1 = dropped / never applied).  Sized
  /// once per set size, so steady-state sweeps refresh it without
  /// allocating.
  std::vector<Index> arch_cols_;
  std::vector<double> arch_vals_;
  std::vector<int> arch_len_;

  /// Copies the freshly applied batch's h_ rows [0, len) into the archive
  /// at constraints [start, start + len); `applied` false marks them
  /// dropped instead.
  void archive_batch_(Index start, Index len, bool applied);
};

}  // namespace phmse::est
