#include "estimation/update.hpp"

#include <algorithm>
#include <cmath>

#include "estimation/fault_injection.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "support/check.hpp"

namespace phmse::est {

using cons::Constraint;
using linalg::CsrBuilder;

namespace {

// Runs `fn` when the scope ends, normally or by a throw.
template <class Fn>
struct ScopeExit {
  Fn fn;
  ~ScopeExit() { fn(); }
};
template <class Fn>
ScopeExit(Fn) -> ScopeExit<Fn>;

}  // namespace

void BatchUpdater::linearize(par::ExecContext& ctx, const NodeState& state,
                             std::span<const cons::Constraint> batch) {
  const Index m = static_cast<Index>(batch.size());
  residual_.resize(static_cast<std::size_t>(m));
  rdiag_.resize(static_cast<std::size_t>(m));
  positions_finite_ = true;

  // Jacobian assembly is sequential (CSR rows build in order), but it is
  // O(m) work per batch — the paper leaves it outside the six categories.
  auto cost = [&](Index, Index) {
    par::KernelStats st;
    st.flops = 60.0 * static_cast<double>(m);  // ~ per-constraint evaluation
    st.bytes_stream = 48.0 * static_cast<double>(m);
    return st;
  };
  ctx.sequential(perf::Category::kOther, cost, [&] {
    CsrBuilder& builder = builder_;
    builder.reset(state.dim());
    bool finite = true;
    for (Index j = 0; j < m; ++j) {
      const Constraint& c = batch[static_cast<std::size_t>(j)];
      const Index na = cons::arity(c.kind);
      std::array<mol::Vec3, 4> pos{};
      for (Index k = 0; k < na; ++k) {
        const Index atom = c.atoms[static_cast<std::size_t>(k)];
        // API-boundary contract (see update.hpp): enforced with an always-on
        // check — position() itself only asserts, which compiles out under
        // NDEBUG and would turn a bad batch into an out-of-bounds read.
        PHMSE_CHECK(atom >= state.atom_begin && atom < state.atom_end,
                    "constraint atom outside the node's state range");
        const mol::Vec3 p = state.position(atom);
        finite = finite && std::isfinite(p.x) && std::isfinite(p.y) &&
                 std::isfinite(p.z);
        pos[static_cast<std::size_t>(k)] = p;
      }
      cons::Gradient grad;
      const double predicted = cons::evaluate_with_gradient(c, pos, grad);
      residual_[static_cast<std::size_t>(j)] = c.observed - predicted;
      // At the default scale the variance is copied verbatim: x * 1.0 is
      // bitwise x for every finite double, but skipping the multiply keeps
      // even non-finite inputs (caught by validation) byte-exact.
      rdiag_[static_cast<std::size_t>(j)] =
          variance_scale_ == 1.0 ? c.variance : c.variance * variance_scale_;

      builder.begin_row();
      for (Index k = 0; k < na; ++k) {
        const Index atom = c.atoms[static_cast<std::size_t>(k)];
        const mol::Vec3& g = grad.d[static_cast<std::size_t>(k)];
        const Index col = state.coord_index(atom, 0);
        if (g.x != 0.0) builder.add(col + 0, g.x);
        if (g.y != 0.0) builder.add(col + 1, g.y);
        if (g.z != 0.0) builder.add(col + 2, g.z);
      }
    }
    positions_finite_ = finite;
    builder.finish_into(h_);
  });
}

void BatchUpdater::set_variance_scale(double scale) {
  PHMSE_CHECK(std::isfinite(scale) && scale > 0.0,
              "variance scale must be finite and > 0");
  variance_scale_ = scale;
}

bool BatchUpdater::batch_inputs_valid_() const {
  if (!positions_finite_) return false;
  for (std::size_t j = 0; j < residual_.size(); ++j) {
    if (!std::isfinite(residual_[j])) return false;
    const double r = rdiag_[j];
    if (!(r > 0.0) || !std::isfinite(r)) return false;
  }
  return true;
}

BatchOutcome BatchUpdater::apply(par::ExecContext& ctx, NodeState& state,
                                 std::span<const cons::Constraint> batch,
                                 const SolvePolicy& policy,
                                 Index batch_index) {
  const ScopeExit restore{[&] { finish_sweep_(ctx, state); }};
  return apply_batch_(ctx, state, batch, policy, batch_index);
}

void BatchUpdater::finish_sweep_(par::ExecContext& ctx, NodeState& state) {
  if (!upper_stale_) return;
  linalg::mirror_lower(ctx, state.c);
  upper_stale_ = false;
}

BatchOutcome BatchUpdater::apply_batch_(par::ExecContext& ctx,
                                        NodeState& state,
                                        std::span<const cons::Constraint> batch,
                                        const SolvePolicy& policy,
                                        Index batch_index) {
  BatchOutcome out;
  if (batch.empty()) return out;
  const Index n = state.dim();
  const Index m = static_cast<Index>(batch.size());
  const bool can_retry =
      policy.on_failure == FailAction::kRetryRegularized ||
      policy.on_failure == FailAction::kGateOutliers;

  fault::maybe_stall(state, batch_index);
  fault::maybe_poison_state(state, batch_index);

  linearize(ctx, state, batch);

  fault::maybe_corrupt_observation(state, batch_index, residual_);

  // Pre-update validation: non-finite positions, observations or residuals
  // (and non-positive variances) can only produce garbage downstream.  The
  // check is O(m) against the update's O(m n^2) — noise.
  if (!batch_inputs_valid_()) {
    PHMSE_CHECK(policy.on_failure != FailAction::kAbort,
                "batch update: non-finite constraint inputs "
                "(observation, variance, or linearization point)");
    out.status = BatchStatus::kSkipped;
    out.attempts = 0;
    return out;
  }

  const linalg::Backend& be =
      backend_ != nullptr ? *backend_ : linalg::default_backend();

  if (upper_stale_) {
    // G = H C reads exactly the rows of C at H's columns: bring their upper
    // parts up to date from the current lower triangle.  The symmetric C
    // these entries represent does not change, so a batch rejected below
    // still leaves the state's value intact.
    touched_.clear();
    for (Index r = 0; r < m; ++r) {
      const std::span<const Index> cols = h_.row_indices(r);
      touched_.insert(touched_.end(), cols.begin(), cols.end());
    }
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
    linalg::mirror_rows(ctx, state.c, touched_);            //           vec
  }
  be.sparse_dense(ctx, h_, state.c, g_);                  // G = H C       d-s

  // Factor S = L L^T under the policy's retry ladder.  The first attempt
  // factors S exactly as the historical code path; a retry re-assembles S
  // from the untouched G, H and R (the factorization is destructive) and
  // adds the rung's Tikhonov term lambda I before factoring again.  The
  // state is not written anywhere in this loop, so a batch that exhausts
  // the ladder is dropped with the state bitwise intact.
  double lambda = 0.0;
  double scale = 0.0;
  for (int attempt = 0;; ++attempt) {
    be.innovation_covariance(ctx, g_, h_, rdiag_, s_);       // S = G H^T + R
    fault::maybe_force_non_spd(state, batch_index, s_);
    if (lambda > 0.0) {
      for (Index i = 0; i < m; ++i) s_(i, i) += lambda;
    }
    const linalg::CholeskyResult chol =
        be.cholesky_factor(ctx, s_, 48);                     // S = L L^T chol
    out.attempts = attempt + 1;
    if (chol.ok()) break;
    out.failed_pivot = chol.failed_pivot;
    PHMSE_CHECK(policy.on_failure != FailAction::kAbort,
                "cholesky: matrix is not positive definite");
    if (!can_retry || attempt >= policy.max_retries) {
      out.status = can_retry ? BatchStatus::kFailed : BatchStatus::kSkipped;
      out.regularization = lambda;
      return out;
    }
    if (scale == 0.0) {
      // Ladder scale: the mean |diagonal| of S as just assembled, computed
      // once on the first failure so every rung grows from the same base
      // and the ladder stays deterministic.
      double trace = 0.0;
      for (Index i = 0; i < m; ++i) trace += std::abs(s_(i, i));
      scale = std::max(trace / static_cast<double>(m), 1e-300);
    }
    lambda = lambda == 0.0 ? policy.regularization_init * scale
                           : lambda * policy.regularization_growth;
  }
  out.regularization = lambda;
  if (out.attempts > 1) out.status = BatchStatus::kRetried;

  // With W = L^{-1} H C- the remaining steps become symmetric by
  // construction:
  //   K (z - h) = (H C-)^T S^{-1} r = W^T (L^{-1} r)        and
  //   C+ = C- - K H C- = C- - (HC)^T S^{-1} (HC) = C- - W^T W.
  //
  // The whitened residual w = L^{-1} r comes first (it is independent of
  // the m x n gain solve), because w^T w is the batch's innovation
  // chi-squared — the gate can drop an outlier batch before the expensive
  // solve runs.
  w_ = residual_;  // member scratch: no per-batch allocation past warm-up
  ctx.sequential(
      perf::Category::kSystemSolve,
      [&](Index, Index) {
        par::KernelStats st;
        const double md = static_cast<double>(w_.size());
        st.flops = md * md;
        st.bytes_stream = 8.0 * md * md / 2.0;
        return st;
      },
      [&] { linalg::trsv_lower(s_, w_); });          // w = L^-1 r        sys
  out.chi2_per_dof =
      linalg::dot(w_.data(), w_.data(), m) / static_cast<double>(m);
  if (policy.on_failure == FailAction::kGateOutliers &&
      out.chi2_per_dof > policy.gate_chi2_per_dof) {
    out.status = BatchStatus::kGated;
    return out;
  }

  // Commit: every fallible step is behind us, so from here the batch either
  // applies completely or (on a crash) not at all — no half-mutated state.
  be.trsm_lower(ctx, s_, g_);                        // W = L^-1 G        sys
  dx_.assign(static_cast<std::size_t>(n), 0.0);
  be.gain_times_residual(ctx, g_, w_, dx_);          // dx = W^T w        m-v
  linalg::vec_add_inplace(ctx, dx_, state.x);        // x += dx           vec
  upper_stale_ = true;
  be.covariance_downdate(ctx, g_, state.c);          // C -= W^T W (lower) m-v
  return out;
}

bool BatchUpdater::applied_row(Index i, std::span<const Index>& cols,
                               std::span<const double>& vals) const {
  if (i < 0 || i >= static_cast<Index>(arch_len_.size())) return false;
  const int len = arch_len_[static_cast<std::size_t>(i)];
  if (len < 0) return false;
  const std::size_t base = static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(kMaxRowNnz);
  cols = {arch_cols_.data() + base, static_cast<std::size_t>(len)};
  vals = {arch_vals_.data() + base, static_cast<std::size_t>(len)};
  return true;
}

void BatchUpdater::archive_batch_(Index start, Index len, bool applied) {
  for (Index r = 0; r < len; ++r) {
    const auto i = static_cast<std::size_t>(start + r);
    if (!applied) {
      arch_len_[i] = -1;
      continue;
    }
    const std::span<const Index> cols = h_.row_indices(r);
    const std::span<const double> vals = h_.row_values(r);
    PHMSE_CHECK(static_cast<Index>(cols.size()) <= kMaxRowNnz,
                "constraint Jacobian row wider than the archive stride");
    const std::size_t base = i * static_cast<std::size_t>(kMaxRowNnz);
    std::copy(cols.begin(), cols.end(), arch_cols_.begin() + base);
    std::copy(vals.begin(), vals.end(), arch_vals_.begin() + base);
    arch_len_[i] = static_cast<int>(cols.size());
  }
}

void BatchUpdater::reserve(Index max_m, Index n) {
  PHMSE_CHECK(max_m >= 0 && n >= 0, "reserve sizes must be >= 0");
  const auto m = static_cast<std::size_t>(max_m);
  residual_.reserve(m);
  rdiag_.reserve(m);
  w_.reserve(m);
  touched_.reserve(m * static_cast<std::size_t>(kMaxRowNnz));
  dx_.reserve(static_cast<std::size_t>(n));
  g_.resize(max_m, n);
  s_.resize(max_m, max_m);
  g_.resize(0, 0);
  s_.resize(0, 0);
}

void BatchUpdater::apply_all(par::ExecContext& ctx, NodeState& state,
                             const cons::ConstraintSet& set, Index batch_size,
                             const SolvePolicy& policy, NodeReport* report) {
  PHMSE_CHECK(batch_size >= 1, "batch size must be >= 1");
  const auto& all = set.all();
  // (Re)size the applied-Jacobian archive for this set; the sizes are
  // stable across sweeps of the same set, so only the first sweep
  // allocates.
  const auto slots = static_cast<std::size_t>(set.size()) *
                     static_cast<std::size_t>(kMaxRowNnz);
  arch_cols_.resize(slots);
  arch_vals_.resize(slots);
  arch_len_.assign(static_cast<std::size_t>(set.size()), -1);
  Index applied_batches = 0;
  // The sweep keeps only C's lower triangle current; the upper one is
  // restored once, here on the way out (also on a cancel or abort throw).
  const ScopeExit restore{[&] { finish_sweep_(ctx, state); }};
  for (Index start = 0; start < set.size(); start += batch_size) {
    // Batch-boundary cancellation poll (DESIGN.md §13): between batches the
    // state holds only complete per-batch commits (apply is transactional),
    // so this is the finest point where an abort cannot tear anything.
    if (ctx.cancel_pending()) {
      par::throw_cancelled(*ctx.cancel_token(), state.atom_begin,
                           state.atom_end, applied_batches);
    }
    const Index len = std::min(batch_size, set.size() - start);
    const BatchOutcome out =
        apply_batch_(ctx, state,
                     std::span<const cons::Constraint>(
                         all.data() + start, static_cast<std::size_t>(len)),
                     policy, applied_batches);
    archive_batch_(start, len, out.applied());
    if (report != nullptr) report->record(applied_batches, out);
    ++applied_batches;
  }
}

}  // namespace phmse::est
