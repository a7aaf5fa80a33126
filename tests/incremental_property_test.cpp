// Differential property harness for the incremental dirty-subtree re-solve
// (DESIGN.md §11).  The contract under test: for ANY problem, ANY sequence
// of observation rebinds (empty, single-constraint, random subsets, all)
// and initial-state perturbations, an incremental solve is bitwise identical
// — posterior x, posterior C, and the aggregated SolveReport — to a
// from-scratch solve of the same values, on all three executors.  Seeded
// random molecules and dirty sets sweep the space; a fresh compile-and-
// solve cross-check per seed anchors the warm reference plan itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse::engine {
namespace {

constexpr RunOptions kIncremental{.mode = RunMode::kIncremental};

// A random chain molecule: atoms jittered around a line, anchored by
// position constraints on the first atom, plus random pair distances (any
// pair — spanning pairs land high in the tree, local pairs on leaves).
struct RandomProblem {
  Index num_atoms = 0;
  cons::ConstraintSet set;
  linalg::Vector initial;
  Index max_leaf = 4;

  explicit RandomProblem(std::uint64_t seed) {
    Rng rng(seed);
    // At least three levels of hierarchy (max_leaf <= num_atoms / 4), so a
    // single dirty constraint never touches the whole tree.
    num_atoms = rng.uniform_int(12, 40);
    max_leaf = rng.uniform_int(3, num_atoms / 4);
    initial.resize(static_cast<std::size_t>(3 * num_atoms));
    for (Index a = 0; a < num_atoms; ++a) {
      initial[static_cast<std::size_t>(3 * a)] =
          1.5 * static_cast<double>(a) + rng.gaussian(0.0, 0.2);
      initial[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.4);
      initial[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.4);
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
    const Index num_dist = rng.uniform_int(2 * num_atoms, 4 * num_atoms);
    for (Index k = 0; k < num_dist; ++k) {
      cons::Constraint c;
      c.kind = cons::Kind::kDistance;
      const Index i = rng.uniform_int(0, num_atoms - 2);
      // Mostly near-neighbor pairs (leaf constraints), sometimes long-range
      // (interior / root constraints).
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

  Problem problem() const {
    return Problem::bisection(num_atoms, set, max_leaf);
  }

  std::vector<double> base_values() const {
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(set.size()));
    for (const cons::Constraint& c : set.all()) values.push_back(c.observed);
    return values;
  }
};

CompileOptions options(int processors) {
  CompileOptions o;
  // Incremental reuse requires single-cycle checkpoints; this is also the
  // online steady-state configuration the feature targets.
  o.solve.max_cycles = 1;
  o.solve.prior_sigma = 0.8;
  o.processors = processors;
  return o;
}

void expect_same_posterior(const Result& got, const Result& want,
                           const std::string& label) {
  ASSERT_EQ(got.posterior().x.size(), want.posterior().x.size()) << label;
  for (std::size_t i = 0; i < want.posterior().x.size(); ++i) {
    ASSERT_EQ(got.posterior().x[i], want.posterior().x[i])
        << label << " coord " << i;
  }
  ASSERT_EQ(got.posterior().c, want.posterior().c) << label;
  EXPECT_EQ(got.report.batches, want.report.batches) << label;
  EXPECT_EQ(got.report.ok, want.report.ok) << label;
  EXPECT_EQ(got.report.retried, want.report.retried) << label;
  EXPECT_EQ(got.report.gated, want.report.gated) << label;
  EXPECT_EQ(got.report.skipped, want.report.skipped) << label;
  EXPECT_EQ(got.report.failed, want.report.failed) << label;
  EXPECT_EQ(got.report.incidents.size(), want.report.incidents.size())
      << label;
}

TEST(IncrementalProperty, RandomDirtySetsMatchFromScratchOnAllExecutors) {
  constexpr int kProcessors = 3;
  constexpr int kRounds = 8;
  par::ThreadPool pool(kProcessors);
  simarch::SimMachine machine(simarch::generic(kProcessors));

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomProblem rp(seed);
    Rng rng(seed * 977);

    Plan ref = Engine::compile(rp.problem(), options(1));
    Plan inc_serial = Engine::compile(rp.problem(), options(1));
    Plan inc_threaded = Engine::compile(rp.problem(), options(kProcessors));
    Plan inc_sim = Engine::compile(rp.problem(), options(kProcessors));
    const long num_nodes =
        static_cast<long>(inc_serial.hierarchy().num_nodes());

    std::vector<double> values = rp.base_values();
    linalg::Vector x0 = rp.initial;

    for (int round = 0; round < kRounds; ++round) {
      // Dirty pattern of this round (round 0 is the checkpoint-forming
      // full solve; every plan starts checkpoint-less).
      const int pattern = round == 0 ? -1 : (round - 1) % 5;
      if (pattern == 1) {  // single constraint
        const std::size_t slot = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1));
        values[slot] += rng.gaussian(0.0, 0.05);
      } else if (pattern == 2) {  // all constraints
        for (double& v : values) v += rng.gaussian(0.0, 0.05);
      } else if (pattern == 3) {  // random subset
        for (double& v : values) {
          if (rng.uniform(0.0, 1.0) < 0.3) v += rng.gaussian(0.0, 0.05);
        }
      } else if (pattern == 4) {  // initial-state perturbation, one atom
        const Index atom = rng.uniform_int(0, rp.num_atoms - 1);
        for (Index k = 0; k < 3; ++k) {
          x0[static_cast<std::size_t>(3 * atom + k)] +=
              rng.gaussian(0.0, 0.1);
        }
      }  // pattern 0: empty dirty set — rebind identical values

      ref.set_observations(values);
      inc_serial.set_observations(values);
      inc_threaded.set_observations(values);
      inc_sim.set_observations(values);
      if (pattern == 0) {
        EXPECT_EQ(inc_serial.pending_dirty_nodes(), 0u)
            << "identical rebind must leave the dirty set empty";
      }

      const Result want = ref.solve(x0);
      const Result got_serial = inc_serial.solve(x0, kIncremental);
      const Result got_threaded = inc_threaded.solve(pool, x0, kIncremental);
      const Result got_sim = inc_sim.solve(machine, x0, kIncremental);

      const std::string tag =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      expect_same_posterior(got_serial, want, tag + " serial");
      expect_same_posterior(got_threaded, want, tag + " threaded");
      expect_same_posterior(got_sim, want, tag + " sim");

      if (round == 0) {
        EXPECT_FALSE(got_serial.report.incremental) << tag;
        EXPECT_EQ(got_serial.report.nodes_recomputed, num_nodes) << tag;
      } else {
        EXPECT_TRUE(got_serial.report.incremental) << tag;
        EXPECT_EQ(got_serial.report.nodes_recomputed +
                      got_serial.report.nodes_reused,
                  num_nodes)
            << tag;
        if (pattern == 0) {
          EXPECT_EQ(got_serial.report.nodes_recomputed, 0) << tag;
          EXPECT_EQ(got_serial.report.nodes_reused, num_nodes) << tag;
        }
        if (pattern == 1) {
          // A single dirty constraint re-executes its node's root path
          // only: strictly fewer nodes than a full solve (every random
          // tree here has more than one leaf).
          EXPECT_GT(got_serial.report.nodes_recomputed, 0) << tag;
          EXPECT_LT(got_serial.report.nodes_recomputed, num_nodes) << tag;
        }
      }
    }

    // Anchor the warm reference plan itself: a brand-new compile bound to
    // the final values must reproduce the warm plan's last answer.
    Plan fresh = Engine::compile(rp.problem(), options(1));
    fresh.set_observations(values);
    const Result fresh_result = fresh.solve(x0);
    Plan warm = Engine::compile(rp.problem(), options(1));
    warm.set_observations(values);
    const Result warm_inc = warm.solve(x0, kIncremental);  // no checkpoint yet
    EXPECT_FALSE(warm_inc.report.incremental);
    expect_same_posterior(warm_inc, fresh_result,
                          "seed " + std::to_string(seed) + " fresh anchor");
  }
}

// Multi-cycle plans cannot form checkpoints (the persisted states are not
// functions of a caller-visible initial state), so an incremental solve must
// permanently degrade to full runs — and still match solve() bitwise.
TEST(IncrementalProperty, MultiCyclePlansAlwaysFallBackToFullRuns) {
  RandomProblem rp(7);
  CompileOptions o = options(1);
  o.solve.max_cycles = 3;
  Plan ref = Engine::compile(rp.problem(), o);
  Plan inc = Engine::compile(rp.problem(), o);
  const long num_nodes = static_cast<long>(inc.hierarchy().num_nodes());

  std::vector<double> values = rp.base_values();
  Rng rng(99);
  for (int round = 0; round < 3; ++round) {
    values[0] += rng.gaussian(0.0, 0.05);
    ref.set_observations(values);
    inc.set_observations(values);
    const Result want = ref.solve(rp.initial);
    const Result got = inc.solve(rp.initial, kIncremental);
    EXPECT_FALSE(got.report.incremental) << "round " << round;
    EXPECT_FALSE(inc.has_checkpoint()) << "round " << round;
    EXPECT_EQ(got.report.nodes_recomputed, num_nodes * got.cycles)
        << "round " << round;
    expect_same_posterior(got, want, "round " + std::to_string(round));
  }
}

// Interleaving executors on ONE plan: checkpoints formed by one executor
// must be reusable by another (the posterior states are bitwise identical
// across executors, so the dirty schedule composes freely).
TEST(IncrementalProperty, CheckpointsTransferAcrossExecutors) {
  constexpr int kProcessors = 3;
  par::ThreadPool pool(kProcessors);
  simarch::SimMachine machine(simarch::generic(kProcessors));

  RandomProblem rp(11);
  Plan ref = Engine::compile(rp.problem(), options(1));
  Plan inc = Engine::compile(rp.problem(), options(kProcessors));

  std::vector<double> values = rp.base_values();
  ref.set_observations(values);
  inc.set_observations(values);
  ref.solve(rp.initial);
  inc.solve(pool, rp.initial);  // threaded run forms the checkpoint

  Rng rng(5);
  values[3] += rng.gaussian(0.0, 0.05);
  ref.set_observations(values);
  inc.set_observations(values);
  const Result want = ref.solve(rp.initial);
  const Result got_sim = inc.solve(machine, rp.initial, kIncremental);
  EXPECT_TRUE(got_sim.report.incremental);
  expect_same_posterior(got_sim, want, "threaded checkpoint, sim re-solve");

  values[4] += rng.gaussian(0.0, 0.05);
  ref.set_observations(values);
  inc.set_observations(values);
  const Result want2 = ref.solve(rp.initial);
  const Result got_serial = inc.solve(rp.initial, kIncremental);
  EXPECT_TRUE(got_serial.report.incremental);
  expect_same_posterior(got_serial, want2, "sim checkpoint, serial re-solve");
}

}  // namespace
}  // namespace phmse::engine
