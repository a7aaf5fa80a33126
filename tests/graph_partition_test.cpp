#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/graph_partition.hpp"
#include "core/solve_plan.hpp"
#include "core/schedule.hpp"
#include "core/work_model.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::core {
namespace {

cons::Constraint dist(Index a, Index b) {
  cons::Constraint c;
  c.kind = cons::Kind::kDistance;
  c.atoms = {a, b, 0, 0};
  c.observed = 1.0;
  c.variance = 0.01;
  return c;
}

// Two 8-atom cliques joined by a single edge, with the atom ids shuffled so
// contiguous-range bisection cannot find the cut without reordering.
struct TwoCliques {
  cons::ConstraintSet set;
  std::vector<Index> clique_of;  // 0 or 1 per original atom id
};

TwoCliques two_shuffled_cliques() {
  Rng rng(9);
  std::vector<Index> ids(16);
  std::iota(ids.begin(), ids.end(), Index{0});
  // Deterministic shuffle.
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  TwoCliques out;
  out.clique_of.assign(16, 0);
  for (int cl = 0; cl < 2; ++cl) {
    for (int i = 0; i < 8; ++i) {
      out.clique_of[static_cast<std::size_t>(
          ids[static_cast<std::size_t>(cl * 8 + i)])] = cl;
      for (int j = i + 1; j < 8; ++j) {
        out.set.add(dist(ids[static_cast<std::size_t>(cl * 8 + i)],
                         ids[static_cast<std::size_t>(cl * 8 + j)]));
      }
    }
  }
  out.set.add(dist(ids[0], ids[8]));  // the lone bridge
  return out;
}

TEST(GraphPartition, FindsTheNaturalCut) {
  const TwoCliques problem = two_shuffled_cliques();
  GraphPartitionOptions opts;
  opts.max_leaf_atoms = 8;
  const Decomposition d =
      decompose_by_graph_partition(16, problem.set, opts);

  // The top split must separate the cliques: cut weight 1 (the bridge).
  const cons::ConstraintSet remapped =
      remap_constraints(problem.set, d.rank);
  EXPECT_EQ(count_cut_constraints(d.hierarchy, remapped), 1);

  // Each half is one clique.
  const HierNode& left = *d.hierarchy.root().children[0];
  int cliques_seen[2] = {0, 0};
  for (Index new_id = left.atom_begin; new_id < left.atom_end; ++new_id) {
    cliques_seen[problem.clique_of[static_cast<std::size_t>(
        d.order[static_cast<std::size_t>(new_id)])]]++;
  }
  EXPECT_TRUE(cliques_seen[0] == 8 || cliques_seen[1] == 8);
}

TEST(GraphPartition, PermutationIsABijection) {
  const TwoCliques problem = two_shuffled_cliques();
  const Decomposition d = decompose_by_graph_partition(16, problem.set);
  std::vector<char> seen(16, 0);
  for (Index old_id : d.order) {
    ASSERT_GE(old_id, 0);
    ASSERT_LT(old_id, 16);
    EXPECT_EQ(seen[static_cast<std::size_t>(old_id)], 0);
    seen[static_cast<std::size_t>(old_id)] = 1;
  }
  for (Index new_id = 0; new_id < 16; ++new_id) {
    EXPECT_EQ(d.rank[static_cast<std::size_t>(
                  d.order[static_cast<std::size_t>(new_id)])],
              new_id);
  }
}

TEST(GraphPartition, HierarchyIsValidAndBounded) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  GraphPartitionOptions opts;
  opts.max_leaf_atoms = 12;
  const Decomposition d =
      decompose_by_graph_partition(model.num_atoms(), set, opts);
  d.hierarchy.validate();
  d.hierarchy.for_each_post_order([&](const HierNode& node) {
    if (node.is_leaf()) EXPECT_LE(node.num_atoms(), 12);
  });
}

TEST(GraphPartition, RemapHelpersRoundTrip) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  const Decomposition d =
      decompose_by_graph_partition(model.num_atoms(), set);

  const mol::Topology remapped = remap_topology(model.topology, d.order);
  EXPECT_EQ(remapped.size(), model.topology.size());
  // Atom new_id carries old atom order[new_id]'s label and position.
  for (Index new_id = 0; new_id < remapped.size(); ++new_id) {
    const Index old_id = d.order[static_cast<std::size_t>(new_id)];
    EXPECT_EQ(remapped.atom(new_id).label,
              model.topology.atom(old_id).label);
  }

  const linalg::Vector x = model.topology.true_state();
  const linalg::Vector there = remap_state(x, d.order);
  const linalg::Vector back = unmap_state(there, d.order);
  EXPECT_EQ(back, x);
  EXPECT_EQ(there, remapped.true_state());
}

TEST(GraphPartition, RemappedConstraintsStayConsistent) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  const Decomposition d =
      decompose_by_graph_partition(model.num_atoms(), set);
  const cons::ConstraintSet remapped = remap_constraints(set, d.rank);
  ASSERT_EQ(remapped.size(), set.size());

  // Measured value of each constraint is invariant under the relabeling
  // when evaluated on the correspondingly permuted topology.
  const mol::Topology topo2 = remap_topology(model.topology, d.order);
  EXPECT_NEAR(cons::rms_residual(set, model.topology,
                                 model.topology.true_state()),
              cons::rms_residual(remapped, topo2, topo2.true_state()),
              1e-12);
}

TEST(GraphPartition, SolvingInPartitionedOrderMatchesOriginal) {
  // End-to-end: solve the same problem in the original order (flat tree)
  // and in the graph-partitioned order; mapped back, the estimates must
  // match to round-off of a different-but-equivalent elimination order.
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);

  Rng rng(4);
  linalg::Vector x0 = model.topology.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.2);

  HierSolveOptions opts;
  opts.max_cycles = 6;
  opts.prior_sigma = 0.5;

  // Original order, user-specified Fig.-2 hierarchy.
  Hierarchy h1 = build_helix_hierarchy(model);
  assign_constraints(h1, set);
  par::SerialContext ctx1;
  SolvePlan r1(h1, opts);
  r1.run(ctx1, x0);

  // Graph-partitioned order.
  Decomposition d = decompose_by_graph_partition(model.num_atoms(), set);
  Hierarchy h2 = std::move(d.hierarchy);
  const cons::ConstraintSet remapped = remap_constraints(set, d.rank);
  assign_constraints(h2, remapped);
  par::SerialContext ctx2;
  SolvePlan r2(h2, opts);
  r2.run(ctx2, remap_state(x0, d.order));
  const linalg::Vector back = unmap_state(r2.root_state().x, d.order);

  // Different constraint application orders => different round-off paths
  // and linearization points, but both must land at comparable fits.
  const double res1 =
      cons::rms_residual(set, model.topology, r1.root_state().x);
  const double res2 = cons::rms_residual(set, model.topology, back);
  EXPECT_NEAR(res1, res2, 0.05);
}

TEST(GraphPartition, BeatsNaiveBisectionOnShuffledAtoms) {
  const TwoCliques problem = two_shuffled_cliques();

  // Naive contiguous bisection on the shuffled ids cuts many clique edges.
  Hierarchy naive = build_bisection_hierarchy(16, 8);
  Index naive_cut = count_cut_constraints(naive, problem.set);

  GraphPartitionOptions opts;
  opts.max_leaf_atoms = 8;
  const Decomposition d =
      decompose_by_graph_partition(16, problem.set, opts);
  const Index smart_cut = count_cut_constraints(
      d.hierarchy, remap_constraints(problem.set, d.rank));

  EXPECT_LT(smart_cut, naive_cut);
  EXPECT_EQ(smart_cut, 1);
}

TEST(GraphPartition, TinyProblemIsSingleLeaf) {
  cons::ConstraintSet set;
  set.add(dist(0, 1));
  const Decomposition d = decompose_by_graph_partition(4, set);
  EXPECT_EQ(d.hierarchy.num_nodes(), 1);
  EXPECT_EQ(d.order.size(), 4u);
}

}  // namespace
}  // namespace phmse::core
