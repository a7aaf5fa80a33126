#include "core/solve_plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>

#include "linalg/backend.hpp"
#include "parallel/task_group.hpp"
#include "parallel/team.hpp"
#include "support/check.hpp"

namespace phmse::core {
namespace {

using est::NodeState;
using linalg::Vector;

// Binds a cancel token onto a context for the duration of a run, restoring
// whatever the caller had bound.  A null token leaves the context alone, so
// callers that bound their own token directly keep it.
class ScopedCancelBind {
 public:
  ScopedCancelBind(par::ExecContext& ctx, const par::CancelToken* token)
      : ctx_(token != nullptr ? &ctx : nullptr),
        prev_(token != nullptr ? ctx.cancel_token() : nullptr) {
    if (ctx_ != nullptr) ctx_->bind_cancel_token(token);
  }
  ~ScopedCancelBind() {
    if (ctx_ != nullptr) ctx_->bind_cancel_token(prev_);
  }
  ScopedCancelBind(const ScopedCancelBind&) = delete;
  ScopedCancelBind& operator=(const ScopedCancelBind&) = delete;

 private:
  par::ExecContext* ctx_;
  const par::CancelToken* prev_;
};

double rms_delta(const Vector& a, const Vector& b) {
  PHMSE_CHECK(a.size() == b.size(), "state dimension changed between cycles");
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace

SolvePlan::SolvePlan(Hierarchy& hierarchy, const HierSolveOptions& options)
    : hierarchy_(&hierarchy),
      options_(options),
      backend_(&linalg::resolve_backend(options.backend,
                                        "HierSolveOptions.backend")) {
  nodes_.reserve(static_cast<std::size_t>(hierarchy.num_nodes()));
  build_(hierarchy.root());

  // Pre-size every workspace so steady-state runs stay inside existing
  // capacity: the node estimate at its full dimension, and the updater's
  // scratch at the node's largest batch shape.
  for (NodeWork& w : nodes_) {
    const Index n = w.node->dim();
    w.state.atom_begin = w.node->atom_begin;
    w.state.atom_end = w.node->atom_end;
    w.state.x.resize(static_cast<std::size_t>(n));
    w.state.c.resize_zero(n, n);
    const Index max_m =
        std::min(std::max<Index>(options_.batch_size, 1),
                 w.node->constraints.size());
    w.updater.set_backend(backend_);
    w.updater.reserve(max_m, n);
  }
  // Incremental bookkeeping (DESIGN.md §11), all preallocated so marking,
  // scheduling and checkpointing never allocate on the steady-state path.
  node_index_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_index_.emplace(nodes_[i].node, i);
    for (std::size_t ci : nodes_[i].children) nodes_[ci].parent = i;
  }
  dirty_.assign(nodes_.size(), 0);
  exec_.assign(nodes_.size(), 1);
  last_initial_.reserve(static_cast<std::size_t>(hierarchy.root().dim()));
  prev_x_.reserve(static_cast<std::size_t>(hierarchy.root().dim()));
  refresh_schedule();
}

void SolvePlan::mark_constraint_dirty(const HierNode* node) {
  const auto it = node_index_.find(node);
  PHMSE_CHECK(it != node_index_.end(),
              "mark_constraint_dirty: node is not part of this plan");
  dirty_[it->second] = 1;
}

void SolvePlan::set_variance_scale(double scale) {
  PHMSE_CHECK(std::isfinite(scale) && scale > 0.0,
              "variance scale must be finite and > 0");
  if (std::bit_cast<std::uint64_t>(scale) ==
      std::bit_cast<std::uint64_t>(variance_scale_)) {
    return;  // no model change: checkpoints stay valid
  }
  variance_scale_ = scale;
  for (NodeWork& w : nodes_) w.updater.set_variance_scale(scale);
  // The persisted states (and their saved sweep tallies / archived Jacobian
  // rows) were produced under the previous noise model: an incremental
  // replay or low-rank shift over them would silently mix models, so the
  // next run must be a full one.
  has_checkpoint_ = false;
}

std::size_t SolvePlan::num_dirty_nodes() const {
  std::size_t count = 0;
  for (const unsigned char d : dirty_) count += d;
  return count;
}

// Decides the cycle-1 execution schedule.  A node re-executes when its own
// observations changed (dirty_), it is a leaf whose initial-state slice
// changed bitwise (leaves read initial_x directly; memcmp so NaNs and
// signed zeros compare conservatively), or any child re-executes.  nodes_
// is post-order — every parent index exceeds its children's — so one
// ascending pass propagates dirtiness transitively to the root.
void SolvePlan::prepare_schedule_(const Vector& initial_x, bool incremental) {
  if (!incremental) {
    std::fill(exec_.begin(), exec_.end(), 1);
    return;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeWork& w = nodes_[i];
    unsigned char e = dirty_[i];
    if (!e && w.node->is_leaf()) {
      const std::size_t begin =
          static_cast<std::size_t>(3 * w.node->atom_begin);
      const std::size_t len = static_cast<std::size_t>(w.node->dim());
      e = std::memcmp(initial_x.data() + begin, last_initial_.data() + begin,
                      len * sizeof(double)) != 0
              ? 1
              : 0;
    }
    exec_[i] = e;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (exec_[i] && nodes_[i].parent != kNoParent) exec_[nodes_[i].parent] = 1;
  }
}

std::size_t SolvePlan::build_(HierNode& node) {
  std::vector<std::size_t> kids;
  kids.reserve(node.children.size());
  for (auto& child : node.children) kids.push_back(build_(*child));
  NodeWork w;
  w.node = &node;
  w.children = std::move(kids);
  nodes_.push_back(std::move(w));
  return nodes_.size() - 1;
}

void SolvePlan::refresh_schedule() {
  for (NodeWork& w : nodes_) {
    w.inline_children.clear();
    w.remote_children.clear();
    for (std::size_t ci : w.children) {
      if (nodes_[ci].node->proc_first == w.node->proc_first) {
        w.inline_children.push_back(ci);
      } else {
        w.remote_children.push_back(ci);
      }
    }
  }
}

// Assembles a node's state from its children: x is the concatenation, C the
// block-diagonal of the children's covariances (children are uncorrelated
// until this node's constraints couple them).  Charged as vector/copy
// traffic.
void SolvePlan::assemble_from_children_(par::ExecContext& ctx, NodeWork& w) {
  NodeState& state = w.state;
  const Index n = state.dim();
  state.x.resize(static_cast<std::size_t>(n));
  state.c.resize_zero(n, n);

  auto cost = [&](Index begin, Index end) {
    par::KernelStats st;
    // Each parent row copies one child-row segment; plus the state vector.
    st.bytes_stream = 16.0 * static_cast<double>(end - begin) *
                      static_cast<double>(n) /
                      static_cast<double>(w.children.size());
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index row = begin; row < end; ++row) {
      // Find the child owning this row (few children; linear scan is fine).
      Index offset = 0;
      for (std::size_t ci : w.children) {
        const NodeState& cs = nodes_[ci].state;
        const Index cdim = cs.dim();
        if (row < offset + cdim) {
          const Index local = row - offset;
          const auto src = cs.c.row(local);
          std::copy(src.begin(), src.end(),
                    state.c.row(row).begin() + offset);
          state.x[static_cast<std::size_t>(row)] =
              cs.x[static_cast<std::size_t>(local)];
          break;
        }
        offset += cdim;
      }
    }
  };
  ctx.parallel(perf::Category::kVector, n, cost, body);
}

// Incremental assembly for a constraint-free interior node during cycle 1
// of an incremental run: the node's persisted state IS its previous
// assembly (no batches ever touch it, so the post-sweep state equals the
// block concatenation), and only the blocks owned by re-executed children
// changed.  Copy those blocks and keep the clean siblings' blocks — and the
// zero cross-blocks — byte-for-byte from the checkpoint.  This is the
// low-rank block refresh of DESIGN.md §11: cost scales with the dirty
// children's dimensions, not with the node dimension, and the result is
// bitwise identical to a full assembly.
void SolvePlan::assemble_dirty_children_(par::ExecContext& ctx, NodeWork& w) {
  NodeState& state = w.state;
  const Index n = state.dim();
  PHMSE_CHECK(static_cast<Index>(state.x.size()) == n && state.c.rows() == n &&
                  state.c.cols() == n,
              "incremental assembly requires a checkpointed state");
  Index offset = 0;
  for (std::size_t ci : w.children) {
    const NodeState& cs = nodes_[ci].state;
    const Index cdim = cs.dim();
    if (exec_[ci]) {
      const Index block = offset;
      auto cost = [&](Index begin, Index end) {
        par::KernelStats st;
        // Each refreshed row copies one child-row segment plus its state
        // vector entry (same accounting as assemble_from_children_).
        st.bytes_stream = 16.0 * static_cast<double>(end - begin) *
                          static_cast<double>(cdim);
        return st;
      };
      auto body = [&, block, ci](Index begin, Index end, int /*lane*/) {
        const NodeState& child = nodes_[ci].state;
        for (Index local = begin; local < end; ++local) {
          const auto src = child.c.row(local);
          std::copy(src.begin(), src.end(),
                    state.c.row(block + local).begin() + block);
          state.x[static_cast<std::size_t>(block + local)] =
              child.x[static_cast<std::size_t>(local)];
        }
      };
      ctx.parallel(perf::Category::kVector, cdim, cost, body);
    }
    offset += cdim;
  }
  PHMSE_CHECK(offset == n, "children no longer tile the node's state");
}

// Updates one node in place: refill the estimate (leaf: initial-state slice
// + spherical prior; interior: children assembly — partial when the node is
// constraint-free and this is an incremental cycle), then apply the node's
// constraint batches (paper Fig. 1).  The sweep tally lands in
// w.sweep_report so an incremental run can later replay it for a skipped
// node; it is folded into the run tally w.report immediately.
void SolvePlan::update_node_(par::ExecContext& ctx, NodeWork& w,
                             const Vector& x0) {
  HierNode& node = *w.node;
  // Node-boundary cancellation poll (DESIGN.md §13): abort before this
  // node's state is touched.  The batch sweep below polls again between
  // batches through the same context binding.
  if (ctx.cancel_pending()) {
    par::throw_cancelled(*ctx.cancel_token(), node.atom_begin, node.atom_end,
                         -1);
  }
  if (node.is_leaf()) {
    est::fill_state_from_full(w.state, x0, node.atom_begin, node.atom_end,
                              options_.prior_sigma);
  } else if (cycle_incremental_ && node.constraints.size() == 0) {
    assemble_dirty_children_(ctx, w);
  } else {
    assemble_from_children_(ctx, w);
  }
  w.sweep_report.clear();
  w.updater.apply_all(ctx, w.state, node.constraints, options_.batch_size,
                      options_.policy, &w.sweep_report);
  w.report.merge_from(w.sweep_report);
}

template <typename PassFn>
PlanRunStats SolvePlan::run_cycles_(const Vector& initial_x,
                                    bool want_incremental, PassFn&& pass) {
  PHMSE_CHECK(static_cast<Index>(initial_x.size()) == hierarchy_->root().dim(),
              "initial state dimension mismatch");
  PHMSE_CHECK(options_.max_cycles >= 1, "need at least one cycle");
  PlanRunStats stats;
  // A checkpoint is usable only when the last completed run took a single
  // cycle: with more cycles the persisted states were produced from the
  // previous cycle's root posterior, not from a caller-visible initial
  // state, so skipping a node could not reproduce a from-scratch solve.
  const bool incremental = want_incremental && has_checkpoint_;
  prepare_schedule_(initial_x, incremental);
  std::size_t exec_count = 0;
  for (const unsigned char e : exec_) exec_count += e;
  // Every run mutates per-node states in place, so the checkpoint is
  // invalid until this run completes (an exception mid-run leaves mixed
  // states; the next incremental request then falls back to a full run).
  has_checkpoint_ = false;
  prev_x_ = initial_x;
  // Per-node tallies and the aggregate report are rebuilt every run; the
  // clears keep vector capacity, so a clean steady-state run stays
  // allocation-free.
  for (NodeWork& w : nodes_) w.report.clear();
  report_.clear();
  report_.backend = backend_->name;
  if (incremental) {
    // Replay the saved sweep tallies of the nodes cycle 1 will skip:
    // determinism guarantees a re-execution would tally identically, so
    // the aggregated report stays bitwise equal to a from-scratch solve.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!exec_[i]) nodes_[i].report.merge_from(nodes_[i].sweep_report);
    }
  }
  try {
    for (int c = 0; c < options_.max_cycles; ++c) {
      // Later cycles start from the previous cycle's root posterior — a
      // globally changed input — so the dirty schedule applies to cycle 1
      // only and cycles >= 2 execute every node.
      cycle_incremental_ = incremental && c == 0;
      pass(static_cast<const Vector&>(prev_x_));
      ++stats.cycles;
      const NodeState& root = nodes_.back().state;
      stats.last_cycle_delta = rms_delta(root.x, prev_x_);
      prev_x_ = root.x;
      if (options_.tolerance > 0.0 &&
          stats.last_cycle_delta < options_.tolerance) {
        stats.converged = true;
        break;
      }
    }
  } catch (const par::CancelledError& e) {
    // Transactional abort (DESIGN.md §13): has_checkpoint_ is already false
    // and the dirty set stays undrained, so the next exact run re-executes
    // every node from the caller's inputs — bitwise identical to never
    // having been cancelled.  Record what committed before the stop: the
    // error surfaces only after every executor lane has joined, so reading
    // the per-node tallies races with nothing.
    cycle_incremental_ = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const NodeWork& w = nodes_[i];
      report_.merge(i, w.node->atom_begin, w.node->atom_end, w.report);
    }
    report_.cancelled = true;
    report_.cancelled_by_deadline = e.deadline_expired;
    report_.cancelled_atom_begin = e.atom_begin;
    report_.cancelled_atom_end = e.atom_end;
    report_.cancelled_batch = e.batch;
    throw;
  }
  cycle_incremental_ = false;
  stats.incremental = incremental;
  stats.nodes_recomputed =
      static_cast<long>(exec_count) +
      static_cast<long>(nodes_.size()) * static_cast<long>(stats.cycles - 1);
  stats.nodes_reused =
      incremental ? static_cast<long>(nodes_.size() - exec_count) : 0;
  // Aggregate after the executor has joined (every pass() above completes
  // its whole tree before returning), so reading the per-node tallies races
  // with nothing.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeWork& w = nodes_[i];
    report_.merge(i, w.node->atom_begin, w.node->atom_end, w.report);
  }
  report_.incremental = stats.incremental;
  report_.nodes_recomputed = stats.nodes_recomputed;
  report_.nodes_reused = stats.nodes_reused;
  // The run completed: every node state is now consistent with the current
  // observations and this initial_x, so the dirty set drains and — after a
  // single-cycle run — the states form a valid checkpoint for the next
  // incremental request.
  std::fill(dirty_.begin(), dirty_.end(), 0);
  has_checkpoint_ = stats.cycles == 1;
  if (has_checkpoint_) last_initial_ = initial_x;
  // Any completed run rebuilds every state a low-rank attempt could have
  // left half-updated (an abandoned attempt marks the root dirty).
  lowrank_in_progress_ = false;
  return stats;
}

bool SolvePlan::try_run_lowrank(par::ExecContext& ctx, const Vector& initial_x,
                                std::span<const LowRankChange> changes,
                                PlanRunStats* stats) {
  PHMSE_CHECK(stats != nullptr, "try_run_lowrank needs a stats output");
  PHMSE_CHECK(static_cast<Index>(initial_x.size()) == hierarchy_->root().dim(),
              "initial state dimension mismatch");
  if (!has_checkpoint_ || lowrank_in_progress_ || options_.max_cycles != 1) {
    return false;
  }
  // Under an inflated noise model (annealing, DESIGN.md §14) the shift's
  // R^{-1} weights would disagree with the sweep that formed the
  // checkpoint; the exact path decides instead.
  if (variance_scale_ != 1.0) return false;
  if (initial_x.size() != last_initial_.size() ||
      std::memcmp(initial_x.data(), last_initial_.data(),
                  initial_x.size() * sizeof(double)) != 0) {
    return false;
  }
  if (changes.empty()) return false;  // nothing changed: use run_incremental

  // Vet every change before the state is touched: it must resolve to a
  // compiled node, carry finite values and a positive variance, and its
  // Jacobian row must have been archived by the checkpoint-forming sweep
  // (a policy-dropped batch contributed no information to retract).  Under
  // an outlier-gating policy the exact path may DROP a wildly inconsistent
  // re-observation; the perturbative shift has no gate, so a change that
  // big (per-scalar chi^2 against its own noise, a conservative bound on
  // its innovation contribution) is refused and decided by the exact
  // fallback instead.
  const bool gated = options_.policy.on_failure == est::FailAction::kGateOutliers;
  double row_touches = 0.0;  // total archived-row nonzeros (cost model)
  for (const LowRankChange& ch : changes) {
    const auto it = node_index_.find(ch.node);
    if (it == node_index_.end()) return false;
    const NodeWork& w = nodes_[it->second];
    if (ch.index < 0 || ch.index >= w.node->constraints.size()) return false;
    const cons::Constraint& c = w.node->constraints[ch.index];
    const double dz = ch.new_observed - ch.old_observed;
    if (!std::isfinite(dz) || !(c.variance > 0.0)) return false;
    if (gated &&
        dz * dz > options_.policy.gate_chi2_per_dof * c.variance) {
      return false;
    }
    std::span<const Index> cols;
    std::span<const double> vals;
    if (!w.updater.applied_row(ch.index, cols, vals)) return false;
    row_touches += static_cast<double>(cols.size());
  }

  NodeWork& root = nodes_.back();
  // The root posterior diverges from the checkpointed tree the moment the
  // shift commits, so the next EXACT incremental run must rebuild the
  // root even if no other node is dirty.  Marking it up front also covers
  // a mid-flight failure: the fallback re-executes everything this attempt
  // may have touched.
  dirty_[nodes_.size() - 1] = 1;
  lowrank_in_progress_ = true;

  // dx = sum_j (dz_j / r_j) * C * g_j^T with g_j the archived row mapped
  // into root coordinates (a node's local state index i is root index
  // 3 * atom_begin + i; the root spans the whole molecule).  C is
  // symmetric, so column `col` is read as row `col` — each term is a
  // scaled sweep over a handful of covariance rows: O(nnz * n) per change.
  const Index n = root.state.dim();
  lowrank_dx_.assign(static_cast<std::size_t>(n), 0.0);
  const perf::Profile before = ctx.profile();
  ctx.sequential(
      perf::Category::kMatVec,
      [&](Index, Index) {
        par::KernelStats st;
        st.flops = 2.0 * row_touches * static_cast<double>(n) +
                   static_cast<double>(n);
        st.bytes_stream = 8.0 * (row_touches + 2.0) * static_cast<double>(n);
        return st;
      },
      [&] {
        for (const LowRankChange& ch : changes) {
          const NodeWork& w = nodes_[node_index_.find(ch.node)->second];
          const cons::Constraint& c = w.node->constraints[ch.index];
          const Index offset = 3 * w.node->atom_begin;
          const double scale = (ch.new_observed - ch.old_observed) /
                               c.variance;
          std::span<const Index> cols;
          std::span<const double> vals;
          w.updater.applied_row(ch.index, cols, vals);
          for (std::size_t k = 0; k < cols.size(); ++k) {
            const Index col = offset + cols[k];
            const double coeff = scale * vals[k];
            const std::span<const double> crow = root.state.c.row(col);
            for (Index i = 0; i < n; ++i) {
              lowrank_dx_[static_cast<std::size_t>(i)] +=
                  coeff * crow[static_cast<std::size_t>(i)];
            }
          }
        }
        for (Index i = 0; i < n; ++i) {
          root.state.x[static_cast<std::size_t>(i)] +=
              lowrank_dx_[static_cast<std::size_t>(i)];
        }
      });
  lowrank_in_progress_ = false;

  // One synthetic ok "batch" stands for the whole rank-k shift in the
  // tallies (attempts 0: no factorization ever runs on this path).
  est::NodeReport lowrank_report;
  est::BatchOutcome shift;
  shift.attempts = 0;
  lowrank_report.record(0, shift);

  // Bookkeeping mirrors a one-cycle run that reused every node: replay the
  // saved sweep tallies, then add this update's own batch outcomes under
  // the root.  dirty_ and the checkpoint are deliberately NOT touched —
  // the checkpointed children still describe the tree, and the dirty marks
  // keep accumulating until an exact run drains them.
  for (NodeWork& w : nodes_) w.report.clear();
  report_.clear();
  report_.backend = backend_->name;
  for (NodeWork& w : nodes_) w.report.merge_from(w.sweep_report);
  root.report.merge_from(lowrank_report);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeWork& w = nodes_[i];
    report_.merge(i, w.node->atom_begin, w.node->atom_end, w.report);
  }
  stats->cycles = 1;
  stats->last_cycle_delta = rms_delta(root.state.x, prev_x_);
  prev_x_ = root.state.x;
  stats->converged = false;
  stats->incremental = true;
  stats->low_rank = true;
  stats->nodes_recomputed = 0;
  stats->nodes_reused = static_cast<long>(nodes_.size());
  stats->breakdown = ctx.profile().minus(before);
  report_.incremental = true;
  report_.low_rank = true;
  report_.nodes_recomputed = 0;
  report_.nodes_reused = stats->nodes_reused;
  return true;
}

// Threaded recursion: subtrees with disjoint processor groups run as tasks
// on their group's first worker; the node's own update runs on a team over
// its whole range.
//
// Exception safety: a failure anywhere in a subtree (e.g. a bad constraint
// batch throwing phmse::Error inside a worker lane) must not deadlock the
// join or escape into the pool's worker loop.  Remote children run inside a
// TaskGroup, which always counts their arrival and carries the first
// exception back; an inline-child failure is held until the remote children
// have joined (they capture this frame by reference) and only then rethrown.
void SolvePlan::run_threaded_node_(par::ThreadPool& pool, std::size_t index,
                                   const Vector& x0) {
  NodeWork& w = nodes_[index];
  // Incremental cycle: an unmasked subtree is served from its checkpoint —
  // no task is spawned for it and the recursion never descends into it.
  if (cycle_incremental_ && !exec_[index]) return;
  int remote_count = 0;
  for (std::size_t ci : w.remote_children) {
    if (!cycle_incremental_ || exec_[ci]) ++remote_count;
  }
  par::TaskGroup group(remote_count);
  // A queued subtree task that has not started when the token fires is
  // never entered (TaskGroup records CancelledError in its place), so a
  // cancelled threaded run stops at task granularity, not tree granularity.
  group.bind_cancel_token(cancel_);
  for (std::size_t ci : w.remote_children) {
    if (cycle_incremental_ && !exec_[ci]) continue;
    HierNode* child = nodes_[ci].node;
    try {
      pool.submit(child->proc_first, [&, ci] {
        group.run([&] { run_threaded_node_(pool, ci, x0); });
      });
    } catch (...) {
      group.fail(std::current_exception());
    }
  }
  std::exception_ptr inline_error;
  try {
    for (std::size_t ci : w.inline_children) {
      if (cycle_incremental_ && !exec_[ci]) continue;
      run_threaded_node_(pool, ci, x0);
    }
  } catch (...) {
    inline_error = std::current_exception();
  }
  group.wait();  // join remote children before any unwind
  if (inline_error) std::rethrow_exception(inline_error);
  group.rethrow_any();

  par::TeamContext ctx(pool, w.node->proc_first, w.node->proc_count);
  ctx.bind_cancel_token(cancel_);
  update_node_(ctx, w, x0);
  w.profile += ctx.profile();
}

PlanRunStats SolvePlan::run(Executor executor, const Vector& initial_x,
                            bool incremental) {
  if (executor.machine != nullptr) {
    simarch::SimMachine& machine = *executor.machine;
    machine.reset();
    PlanRunStats stats = run_cycles_(initial_x, incremental,
                                     [&](const Vector& x0) {
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        NodeWork& w = nodes_[i];
        // Skipped nodes cost no virtual time and force no clock sync: the
        // simulated timeline reflects only the dirty path's work.
        if (cycle_incremental_ && !exec_[i]) continue;
        // The node's team forms once all children are done: the virtual
        // clocks of its processors join at the max (children ran on
        // disjoint sub-ranges).
        machine.sync_range(w.node->proc_first, w.node->proc_count);
        simarch::SimContext ctx(machine, w.node->proc_first,
                                w.node->proc_count);
        // The simulated clock is virtual but the deadline clock is real:
        // polls read the host's steady clock, so a wall-clock budget bounds
        // a simulated solve exactly like a real one.
        ctx.bind_cancel_token(cancel_);
        update_node_(ctx, w, x0);
      }
    });
    stats.vtime = machine.elapsed();
    stats.breakdown = machine.reported_profile();
    return stats;
  }

  if (executor.pool != nullptr) {
    par::ThreadPool& pool = *executor.pool;
    for (NodeWork& w : nodes_) w.profile.clear();
    PlanRunStats stats = run_cycles_(initial_x, incremental,
                                     [&](const Vector& x0) {
      par::TaskGroup group(1);
      group.bind_cancel_token(cancel_);
      try {
        pool.submit(hierarchy_->root().proc_first, [&] {
          group.run([&] { run_threaded_node_(pool, nodes_.size() - 1, x0); });
        });
      } catch (...) {
        group.fail(std::current_exception());
      }
      group.join();  // waits, then rethrows a subtree failure on this thread
    });
    for (const NodeWork& w : nodes_) stats.breakdown += w.profile;
    return stats;
  }

  par::ExecContext& ctx = *executor.context;
  const perf::Profile before = ctx.profile();
  PlanRunStats stats;
  {
    const ScopedCancelBind bind(ctx, cancel_);
    stats = run_cycles_(initial_x, incremental, [&](const Vector& x0) {
      // nodes_ is post-order, so children are always updated before their
      // parent reads them: the recursion flattens to one loop.
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (cycle_incremental_ && !exec_[i]) continue;
        update_node_(ctx, nodes_[i], x0);
      }
    });
  }
  stats.breakdown = ctx.profile().minus(before);
  return stats;
}

}  // namespace phmse::core
