// Tolerance harness for the opt-in low-rank perturbative re-solve
// (DESIGN.md §11).  Unlike RunMode::kIncremental — exact and covered by the
// bitwise differential harness in incremental_property_test.cpp — the
// RunMode::kLowRank path shifts the checkpointed root mean by
// C·H^T·R^-1·dz using each constraint's archived Jacobian row, a
// first-order approximation.  Its error is linear in the observation
// change dz (halve the nudge, halve the error), but RELATIVE to the
// update's own movement it converges to a geometry constant: the exact
// re-solve relinearizes downstream batches, and those feedback terms
// (curvature x jitter-scale residuals) are first-order effects no
// fixed-linearization rank-k update can reproduce.  The contract under
// test:
//
//  * the error scales linearly with the nudge (the first-order property);
//  * the approximate posterior stays within a modest envelope of the exact
//    re-solve's own movement (single and chained nudges);
//  * the fast path refuses and falls back to the EXACT answer whenever it
//    cannot give a principled one (no pending changes, no checkpoint,
//    changed initial state, multi-cycle plans, too many changed slots);
//  * a later exact solve on the same plan restores the bitwise-reproducible
//    baseline — the low-rank shortcut never contaminates it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "support/rng.hpp"

namespace phmse::engine {
namespace {

constexpr RunOptions kIncremental{.mode = RunMode::kIncremental};
constexpr RunOptions kLowRank{.mode = RunMode::kLowRank};

// A jittered chain molecule: position anchor on atom 0 plus random pair
// distances, enough of them (> 64) to overflow the pending-change cap when
// every value is perturbed at once.
struct ChainProblem {
  Index num_atoms = 24;
  cons::ConstraintSet set;
  linalg::Vector initial;

  explicit ChainProblem(std::uint64_t seed) {
    Rng rng(seed);
    initial.resize(static_cast<std::size_t>(3 * num_atoms));
    for (Index a = 0; a < num_atoms; ++a) {
      initial[static_cast<std::size_t>(3 * a)] =
          1.5 * static_cast<double>(a) + rng.gaussian(0.0, 0.2);
      initial[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.3);
      initial[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.3);
    }
    for (int axis = 0; axis < 3; ++axis) {
      cons::Constraint c;
      c.kind = cons::Kind::kPosition;
      c.atoms = {0, 0, 0, 0};
      c.axis = axis;
      c.observed = initial[static_cast<std::size_t>(axis)];
      c.variance = 0.01;
      set.add(c);
    }
    const Index num_dist = 4 * num_atoms;  // 96 > pending-change cap of 64
    for (Index k = 0; k < num_dist; ++k) {
      cons::Constraint c;
      c.kind = cons::Kind::kDistance;
      const Index i = rng.uniform_int(0, num_atoms - 2);
      const Index span = rng.uniform(0.0, 1.0) < 0.8
                             ? rng.uniform_int(1, 3)
                             : rng.uniform_int(1, num_atoms - 1 - i);
      const Index j = std::min<Index>(i + span, num_atoms - 1);
      c.atoms = {i, j, 0, 0};
      c.observed = 1.5 * static_cast<double>(j - i) + rng.gaussian(0.0, 0.1);
      c.variance = 0.05;
      set.add(c);
    }
  }

  Problem problem() const { return Problem::bisection(num_atoms, set, 4); }

  std::vector<double> base_values() const {
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(set.size()));
    for (const cons::Constraint& c : set.all()) values.push_back(c.observed);
    return values;
  }
};

CompileOptions options() {
  CompileOptions o;
  o.solve.max_cycles = 1;  // checkpoints require single-cycle runs
  o.solve.prior_sigma = 0.8;
  return o;
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

void expect_bitwise_equal(const Result& got, const Result& want,
                          const std::string& label) {
  ASSERT_EQ(got.posterior().x.size(), want.posterior().x.size()) << label;
  for (std::size_t i = 0; i < want.posterior().x.size(); ++i) {
    ASSERT_EQ(got.posterior().x[i], want.posterior().x[i])
        << label << " coord " << i;
  }
  ASSERT_EQ(got.posterior().c, want.posterior().c) << label;
}

TEST(IncrementalLowRank, SingleNudgeTracksExactSolveWithinTolerance) {
  ChainProblem cp(21);
  Plan exact = Engine::compile(cp.problem(), options());
  Plan fast = Engine::compile(cp.problem(), options());

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);
  const Result baseline = exact.solve(cp.initial);
  fast.solve(cp.initial);  // forms the checkpoint, drains pending changes
  EXPECT_EQ(fast.pending_observation_changes(), 0u);
  const linalg::Vector before = baseline.posterior().x;

  values[10] += 1e-3;
  exact.set_observations(values);
  fast.set_observations(values);
  EXPECT_EQ(fast.pending_observation_changes(), 1u);

  const Result want = exact.solve(cp.initial, kIncremental);
  const Result got = fast.solve(cp.initial, kLowRank);

  EXPECT_TRUE(got.report.low_rank);
  EXPECT_TRUE(got.report.incremental);
  EXPECT_EQ(got.report.nodes_recomputed, 0);
  EXPECT_EQ(got.report.nodes_reused,
            static_cast<long>(fast.hierarchy().num_nodes()));
  EXPECT_NE(got.report.summary().find("low-rank"), std::string::npos);
  EXPECT_EQ(fast.pending_observation_changes(), 0u);

  // The approximation error must be a modest fraction of the movement the
  // update itself caused (and the update must actually move the posterior).
  // The ratio is a geometry constant, not a function of the nudge size —
  // ErrorIsFirstOrderInTheNudge below pins the scaling law itself.
  const double shift = max_abs_diff(want.posterior().x, before);
  const double error = max_abs_diff(got.posterior().x, want.posterior().x);
  EXPECT_GT(shift, 0.0);
  EXPECT_LT(error, 0.5 * shift + 1e-12)
      << "shift " << shift << " error " << error;
}

// The defining property of a first-order update: shrinking the observation
// change shrinks the absolute error proportionally.  A linear scaling law
// would give exactly 100x here; the factor-20 bound leaves room for the
// second-order remainder at the larger nudge.
TEST(IncrementalLowRank, ErrorIsFirstOrderInTheNudge) {
  double errors[2] = {0.0, 0.0};
  const double deltas[2] = {1e-3, 1e-5};
  for (int s = 0; s < 2; ++s) {
    ChainProblem cp(21);
    Plan exact = Engine::compile(cp.problem(), options());
    Plan fast = Engine::compile(cp.problem(), options());

    std::vector<double> values = cp.base_values();
    exact.set_observations(values);
    fast.set_observations(values);
    exact.solve(cp.initial);
    fast.solve(cp.initial);

    values[10] += deltas[s];
    exact.set_observations(values);
    fast.set_observations(values);
    const Result want = exact.solve(cp.initial, kIncremental);
    const Result got = fast.solve(cp.initial, kLowRank);
    ASSERT_TRUE(got.report.low_rank) << "delta " << deltas[s];
    errors[s] = max_abs_diff(got.posterior().x, want.posterior().x);
  }
  EXPECT_GT(errors[0], 0.0);
  EXPECT_LT(errors[1], errors[0] / 20.0)
      << "error(1e-3) " << errors[0] << " error(1e-5) " << errors[1];
}

TEST(IncrementalLowRank, ChainedNudgesStayCloseToExactTwin) {
  ChainProblem cp(22);
  Plan exact = Engine::compile(cp.problem(), options());
  Plan fast = Engine::compile(cp.problem(), options());

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);
  const Result baseline = exact.solve(cp.initial);
  fast.solve(cp.initial);
  const linalg::Vector before = baseline.posterior().x;

  Rng rng(4242);
  for (int round = 0; round < 5; ++round) {
    const std::size_t slot = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1));
    values[slot] += rng.gaussian(0.0, 1e-3);
    exact.set_observations(values);
    fast.set_observations(values);

    const Result want = exact.solve(cp.initial, kIncremental);
    const Result got = fast.solve(cp.initial, kLowRank);
    ASSERT_TRUE(got.report.low_rank) << "round " << round;

    // Chained low-rank updates drift by at most a modest fraction of the
    // cumulative movement since the checkpoint-forming solve.  Shifts
    // compose additively (same linear model as one combined update), so
    // the bound does not loosen with the round count.
    const double shift = max_abs_diff(want.posterior().x, before);
    const double error = max_abs_diff(got.posterior().x, want.posterior().x);
    EXPECT_LT(error, 0.5 * shift + 1e-12)
        << "round " << round << " shift " << shift << " error " << error;
  }
}

TEST(IncrementalLowRank, FallsBackWhenNothingIsPending) {
  ChainProblem cp(23);
  Plan plan = Engine::compile(cp.problem(), options());
  plan.set_observations(cp.base_values());
  plan.solve(cp.initial);

  // No set_observations since the last solve: nothing to retract, so the
  // call degrades to the (here trivially empty) exact incremental run.
  const Result got = plan.solve(cp.initial, kLowRank);
  EXPECT_FALSE(got.report.low_rank);
  EXPECT_TRUE(got.report.incremental);
  EXPECT_EQ(got.report.nodes_recomputed, 0);
}

TEST(IncrementalLowRank, FirstSolveFallsBackThenFastPathEngages) {
  ChainProblem cp(24);
  Plan exact = Engine::compile(cp.problem(), options());
  Plan fast = Engine::compile(cp.problem(), options());

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);

  // No checkpoint yet: a low-rank solve must produce the exact full answer.
  const Result want = exact.solve(cp.initial);
  const Result got = fast.solve(cp.initial, kLowRank);
  EXPECT_FALSE(got.report.low_rank);
  EXPECT_FALSE(got.report.incremental);
  expect_bitwise_equal(got, want, "first-solve fallback");

  // The fallback drained the pending list and formed a checkpoint, so the
  // fast path engages on the next nudge.
  values[5] += 1e-3;
  fast.set_observations(values);
  const Result second = fast.solve(cp.initial, kLowRank);
  EXPECT_TRUE(second.report.low_rank);
}

TEST(IncrementalLowRank, ChangedInitialStateFallsBackToExact) {
  ChainProblem cp(25);
  Plan exact = Engine::compile(cp.problem(), options());
  Plan fast = Engine::compile(cp.problem(), options());

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);
  exact.solve(cp.initial);
  fast.solve(cp.initial);

  values[7] += 1e-3;
  exact.set_observations(values);
  fast.set_observations(values);
  linalg::Vector moved = cp.initial;
  moved[0] += 0.05;  // retraction baseline no longer matches: must refuse

  const Result want = exact.solve(moved, kIncremental);
  const Result got = fast.solve(moved, kLowRank);
  EXPECT_FALSE(got.report.low_rank);
  expect_bitwise_equal(got, want, "changed-initial fallback");
}

TEST(IncrementalLowRank, MultiCyclePlansAlwaysFallBack) {
  ChainProblem cp(26);
  CompileOptions o = options();
  o.solve.max_cycles = 3;
  Plan exact = Engine::compile(cp.problem(), o);
  Plan fast = Engine::compile(cp.problem(), o);

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);
  exact.solve(cp.initial);
  fast.solve(cp.initial);

  values[9] += 1e-3;
  exact.set_observations(values);
  fast.set_observations(values);
  const Result want = exact.solve(cp.initial);
  const Result got = fast.solve(cp.initial, kLowRank);
  EXPECT_FALSE(got.report.low_rank);
  expect_bitwise_equal(got, want, "multi-cycle fallback");
}

TEST(IncrementalLowRank, ManyChangedSlotsOverflowToExactPath) {
  ChainProblem cp(27);
  ASSERT_GT(cp.set.size(), 64);  // enough slots to overflow the cap
  Plan exact = Engine::compile(cp.problem(), options());
  Plan fast = Engine::compile(cp.problem(), options());

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);
  exact.solve(cp.initial);
  fast.solve(cp.initial);

  Rng rng(7);
  for (double& v : values) v += rng.gaussian(0.0, 1e-3);
  exact.set_observations(values);
  fast.set_observations(values);

  const Result want = exact.solve(cp.initial, kIncremental);
  const Result got = fast.solve(cp.initial, kLowRank);
  EXPECT_FALSE(got.report.low_rank);
  expect_bitwise_equal(got, want, "overflow fallback");
}

// The critical safety property: after a low-rank solve perturbed the root
// posterior, the next EXACT solve on the same plan rebuilds the root from
// its checkpointed children and lands bitwise on the reproducible baseline
// — as if the low-rank shortcut had never run.
TEST(IncrementalLowRank, ExactSolveAfterLowRankRestoresBitwiseBaseline) {
  ChainProblem cp(28);
  Plan exact = Engine::compile(cp.problem(), options());
  Plan fast = Engine::compile(cp.problem(), options());

  std::vector<double> values = cp.base_values();
  exact.set_observations(values);
  fast.set_observations(values);
  exact.solve(cp.initial);
  fast.solve(cp.initial);

  values[11] += 1e-3;
  exact.set_observations(values);
  fast.set_observations(values);
  const Result want = exact.solve(cp.initial, kIncremental);
  const Result approx = fast.solve(cp.initial, kLowRank);
  ASSERT_TRUE(approx.report.low_rank);

  // Same plan, same bound values: the exact incremental run drains the
  // accumulated dirty set (changed node + root) and must agree bitwise
  // with the twin that never took the shortcut.
  const Result restored = fast.solve(cp.initial, kIncremental);
  EXPECT_FALSE(restored.report.low_rank);
  EXPECT_TRUE(restored.report.incremental);
  EXPECT_GT(restored.report.nodes_recomputed, 0);
  expect_bitwise_equal(restored, want, "post-low-rank exact re-solve");
}

}  // namespace
}  // namespace phmse::engine
