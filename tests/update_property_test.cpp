// Parameterized property sweeps of the Fig.-1 update: invariants that
// must hold across batch sizes, problem sizes and random data, plus a
// golden-value regression test pinning a seeded end-to-end refinement.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <span>
#include <string>

#include "constraints/helix_gen.hpp"
#include "constraints/set.hpp"
#include "estimation/update.hpp"
#include "linalg/blas.hpp"
#include "molecule/rna_helix.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

using cons::Constraint;
using cons::Kind;

NodeState random_chain_state(Index atoms, double prior, Rng& rng) {
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = atoms;
  st.x.resize(static_cast<std::size_t>(3 * atoms));
  for (Index a = 0; a < atoms; ++a) {
    st.x[static_cast<std::size_t>(3 * a)] = 1.4 * static_cast<double>(a);
    st.x[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.3);
    st.x[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.3);
  }
  st.reset_covariance(prior);
  return st;
}

cons::ConstraintSet random_constraints(const NodeState& st, Index count,
                                       Rng& rng) {
  cons::ConstraintSet set;
  const Index atoms = st.num_atoms();
  for (Index i = 0; i < count; ++i) {
    Constraint c;
    if (i % 5 == 4) {
      c.kind = Kind::kPosition;
      c.atoms = {rng.uniform_int(0, atoms - 1), 0, 0, 0};
      c.axis = static_cast<int>(rng.uniform_int(0, 2));
      c.observed = rng.gaussian(0.0, 2.0);
      c.variance = 0.25;
    } else {
      c.kind = Kind::kDistance;
      Index a = rng.uniform_int(0, atoms - 1);
      Index b = rng.uniform_int(0, atoms - 1);
      if (a == b) b = (b + 1) % atoms;
      c.atoms = {a, b, 0, 0};
      c.observed = 1.0 + rng.uniform(0.0, 3.0);
      c.variance = 0.04;
    }
    set.add(c);
  }
  return set;
}

class BatchSweep : public ::testing::TestWithParam<Index> {};

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchSweep,
                         ::testing::Values<Index>(1, 2, 3, 7, 16, 33, 64));

TEST_P(BatchSweep, CovarianceStaysSymmetricPositiveDefinite) {
  Rng rng(40 + static_cast<std::uint64_t>(GetParam()));
  NodeState st = random_chain_state(10, 1.0, rng);
  const cons::ConstraintSet set = random_constraints(st, 60, rng);

  par::SerialContext ctx;
  BatchUpdater up;
  up.apply_all(ctx, st, set, GetParam());

  // Symmetric to round-off...
  for (Index i = 0; i < st.dim(); ++i) {
    for (Index j = i + 1; j < st.dim(); ++j) {
      EXPECT_NEAR(st.c(i, j), st.c(j, i), 1e-10);
    }
  }
  // ...and positive definite: Cholesky succeeds after exact
  // symmetrization.
  linalg::Matrix c = st.c;
  c.symmetrize();
  EXPECT_NO_THROW(linalg::cholesky_serial(c));
}

TEST_P(BatchSweep, EveryMarginalVarianceWithinPrior) {
  Rng rng(60 + static_cast<std::uint64_t>(GetParam()));
  NodeState st = random_chain_state(8, 2.0, rng);
  const cons::ConstraintSet set = random_constraints(st, 40, rng);
  par::SerialContext ctx;
  BatchUpdater up;
  up.apply_all(ctx, st, set, GetParam());
  for (Index i = 0; i < st.dim(); ++i) {
    EXPECT_GT(st.c(i, i), 0.0);
    EXPECT_LE(st.c(i, i), 4.0 + 1e-9);  // prior variance
  }
}

TEST_P(BatchSweep, LinearDataGivesBatchingInvariantPosterior) {
  // For purely linear constraints the posterior is independent of how the
  // sequence is batched (information is additive).
  Rng rng(80);
  NodeState reference = random_chain_state(6, 1.5, rng);
  cons::ConstraintSet set;
  Rng crng(81);
  for (int i = 0; i < 30; ++i) {
    Constraint c;
    c.kind = Kind::kPosition;
    c.atoms = {crng.uniform_int(0, 5), 0, 0, 0};
    c.axis = static_cast<int>(crng.uniform_int(0, 2));
    c.observed = crng.gaussian(0.0, 1.0);
    c.variance = 0.2 + crng.uniform(0.0, 1.0);
    set.add(c);
  }

  par::SerialContext ctx;
  BatchUpdater up;
  NodeState baseline = reference;
  up.apply_all(ctx, baseline, set, 1);

  NodeState batched = reference;
  up.apply_all(ctx, batched, set, GetParam());

  for (std::size_t i = 0; i < baseline.x.size(); ++i) {
    EXPECT_NEAR(batched.x[i], baseline.x[i], 1e-9);
  }
  EXPECT_LT(batched.c.frobenius_distance(baseline.c), 1e-8);
}

TEST_P(BatchSweep, RepeatedIdenticalMeasurementsConcentrate) {
  // Applying the same linear measurement k times shrinks the variance as
  // prior*r/(r + k*prior): check against the closed form.
  const double prior = 1.0;
  const double r = 0.5;
  Rng rng(90);
  NodeState st = random_chain_state(2, prior, rng);
  cons::ConstraintSet set;
  const Index k = GetParam();
  for (Index i = 0; i < k; ++i) {
    Constraint c;
    c.kind = Kind::kPosition;
    c.atoms = {0, 0, 0, 0};
    c.axis = 0;
    c.observed = 3.0;
    c.variance = r;
    set.add(c);
  }
  par::SerialContext ctx;
  BatchUpdater up;
  up.apply_all(ctx, st, set, 4);
  const double expected_var =
      prior * r / (r + static_cast<double>(k) * prior);
  EXPECT_NEAR(st.c(0, 0), expected_var, 1e-9);
}

TEST_P(BatchSweep, RejectedBatchLeavesStateBitwiseUntouched) {
  // Transactional apply (DESIGN.md §9): a batch rejected by pre-update
  // validation — here a NaN observation — must leave x and C bitwise
  // identical, at every batch size, not merely "numerically close".
  Rng rng(120 + static_cast<std::uint64_t>(GetParam()));
  NodeState st = random_chain_state(10, 1.0, rng);
  cons::ConstraintSet set = random_constraints(st, GetParam(), rng);
  set.set_observed(set.size() / 2, std::numeric_limits<double>::quiet_NaN());

  par::SerialContext ctx;
  BatchUpdater up;
  const NodeState before = st;
  const BatchOutcome out =
      up.apply(ctx, st, std::span<const Constraint>(set.all()),
               SolvePolicy::skip_batch());

  EXPECT_EQ(out.status, BatchStatus::kSkipped);
  EXPECT_EQ(out.attempts, 0);
  EXPECT_EQ(st.x, before.x);
  EXPECT_EQ(st.c, before.c);

  // And under the default abort policy the same batch throws, also without
  // touching the state.
  EXPECT_THROW(up.apply(ctx, st, std::span<const Constraint>(set.all())),
               Error);
  EXPECT_EQ(st.x, before.x);
  EXPECT_EQ(st.c, before.c);
}

TEST_P(BatchSweep, NonAbortPolicyIsBitwiseIdenticalOnCleanData) {
  // The retry ladder and chi-squared gate observe a clean batch without
  // perturbing it: every policy produces the same bits as the historical
  // abort path.  "Clean" includes statistically consistent — the gate is
  // entitled to drop genuine outliers, so observe the state's own geometry
  // with noise at the constraint's sigma (chi^2/dof stays near 1, far
  // under the gate threshold of 25).
  Rng rng(140 + static_cast<std::uint64_t>(GetParam()));
  const NodeState reference = random_chain_state(9, 1.0, rng);
  cons::ConstraintSet set;
  for (Index i = 0; i < 50; ++i) {
    Constraint c;
    c.kind = Kind::kDistance;
    Index a = rng.uniform_int(0, 8);
    Index b = rng.uniform_int(0, 8);
    if (a == b) b = (b + 1) % 9;
    c.atoms = {a, b, 0, 0};
    const mol::Vec3 u = reference.position(a) - reference.position(b);
    c.observed = u.norm() + rng.gaussian(0.0, 0.2);
    c.variance = 0.04;
    set.add(c);
  }

  par::SerialContext ctx;
  NodeState baseline = reference;
  BatchUpdater up0;
  up0.apply_all(ctx, baseline, set, GetParam());  // default: abort

  for (const SolvePolicy& policy :
       {SolvePolicy::skip_batch(), SolvePolicy::retry_regularized(),
        SolvePolicy::gate_outliers()}) {
    NodeState st = reference;
    BatchUpdater up;
    NodeReport report;
    up.apply_all(ctx, st, set, GetParam(), policy, &report);
    EXPECT_EQ(st.x, baseline.x);
    EXPECT_EQ(st.c, baseline.c);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.ok, report.batches);
  }
}

// End-to-end invariance: a seeded full refinement of a 2-bp helix (86
// atoms, state dimension 258 — wide enough to cross the blocked kernels'
// column-strip boundary) must reproduce the golden RMSD and covariance
// trace recorded with the pre-optimization scalar kernels.  This pins the
// whole Fig.-1 pipeline, so a kernel rewrite cannot silently drift the
// estimator.  Regenerate with PHMSE_UPDATE_GOLDEN=1 after an intentional
// numerical change (and justify the change in the commit).
TEST(UpdateGolden, SeededHelixRefinementMatchesGolden) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(20260805);
  NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                    1.0, 0.3, rng);
  par::SerialContext ctx;
  BatchUpdater up;
  up.apply_all(ctx, st, set, 16);

  const double rmsd = model.topology.rmsd_to_truth(st.x);
  double trace = 0.0;
  for (Index i = 0; i < st.dim(); ++i) trace += st.c(i, i);

  const std::string path =
      std::string(PHMSE_GOLDEN_DIR) + "/helix_update_2bp.txt";
  if (env_flag("PHMSE_UPDATE_GOLDEN")) {
    std::ofstream out(path);
    out.precision(17);
    out << rmsd << "\n" << trace << "\n";
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with PHMSE_UPDATE_GOLDEN=1";
  double g_rmsd = 0.0;
  double g_trace = 0.0;
  in >> g_rmsd >> g_trace;
  ASSERT_FALSE(in.fail()) << "malformed golden file " << path;

  // Blocked kernels keep each element's reduction order fixed, so only
  // FMA-contraction round-off may differ from the scalar reference; 1e-8
  // relative headroom is orders of magnitude above that but far below any
  // real estimator drift.
  EXPECT_NEAR(rmsd, g_rmsd, 1e-8 * std::max(1.0, std::abs(g_rmsd)));
  EXPECT_NEAR(trace, g_trace, 1e-8 * std::max(1.0, std::abs(g_trace)));
}

}  // namespace
}  // namespace phmse::est
