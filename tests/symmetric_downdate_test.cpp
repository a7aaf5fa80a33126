// The symmetric covariance downdate (kernels.hpp): only C's lower triangle
// is updated during a node's sweep, and mirror_rows / mirror_lower restore
// the upper part.  Pinned here:
//
//   * the lower kernel plus mirror_lower is BITWISE the full product
//     C -= W^T W on every backend — against the full gemm panel of every
//     usable ISA for the panel backends, against the full row-axpy loop for
//     ref;
//   * serial, threaded (P = 2, 3, 4) and simulated execution are bitwise
//     equal, and the paired row-tile split balances lanes at the ribo30s
//     root shape;
//   * a solve leaves every node's C bitwise symmetric on every executor,
//     and so does a sweep that throws (abort batch, cancel).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "estimation/fault_injection.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "simarch/sim_context.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Compares by bit pattern, so -0.0 vs 0.0 or NaN payloads would show.
::testing::AssertionResult bitwise_symmetric(const linalg::Matrix& c) {
  if (c.rows() != c.cols()) {
    return ::testing::AssertionFailure() << "not square";
  }
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = 0; j < i; ++j) {
      if (bits(c(i, j)) != bits(c(j, i))) {
        return ::testing::AssertionFailure()
               << "C(" << i << ", " << j << ") = " << c(i, j) << " but C("
               << j << ", " << i << ") = " << c(j, i);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace
}  // namespace phmse

namespace phmse::linalg {
namespace {

const std::vector<Index> kNs = {1, 7, 33, 65, 257, 1031};
const std::vector<Index> kMs = {0, 1, 16};

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

// A bitwise-symmetric matrix: random lower triangle, mirrored by hand.
Matrix random_symmetric(Index n, Rng& rng) {
  Matrix c(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) c(i, j) = c(j, i) = rng.gaussian();
  }
  return c;
}

::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      if (bits(a(i, j)) != bits(b(i, j))) {
        return ::testing::AssertionFailure()
               << "differs at (" << i << ", " << j << "): " << a(i, j)
               << " vs " << b(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string tag(const std::string& what, Index m, Index n) {
  return what + " m=" + std::to_string(m) + " n=" + std::to_string(n);
}

// The full square C -= W^T W as one scalar row-axpy per (row, k): the ref
// kernel's per-element chain, applied above the diagonal too.
void full_row_axpy(const Matrix& w, Matrix& c) {
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index k = 0; k < w.rows(); ++k) {
      axpy(-w(k, i), w.row(k).data(), c.row(i).data(), c.cols());
    }
  }
}

TEST(SymmetricDowndate, LowerPlusMirrorIsBitwiseTheFullProduct) {
  Rng rng(13001);
  par::SerialContext ctx;
  std::vector<std::string> isas = simd::testable_isas();
  isas.emplace_back("scalar");  // the blocked backend's portable panels
  for (const Index n : kNs) {
    for (const Index m : kMs) {
      const Matrix w = random_matrix(m, n, rng);
      const Matrix c0 = random_symmetric(n, rng);
      for (const Backend* b : all_backends()) {
        Matrix c = c0;
        b->covariance_downdate(ctx, w, c);
        mirror_lower(ctx, c);
        if (std::string(b->name) == "ref") {
          Matrix full = c0;
          full_row_axpy(w, full);
          EXPECT_TRUE(bitwise_equal(c, full)) << tag("ref", m, n);
          continue;
        }
        for (const std::string& isa : isas) {
          Matrix full = c0;
          simd::gemm_panel_for_isa(isa, /*trans=*/true, /*zero=*/false, -1.0,
                                   w.data(), n, w.data(), n, full.data(), n,
                                   n, m, n);
          EXPECT_TRUE(bitwise_equal(c, full))
              << tag(std::string(b->name) + " vs " + isa + " panel", m, n);
        }
      }
    }
  }
}

TEST(SymmetricDowndate, SerialThreadedAndSimulatedAreBitwiseEqual) {
  Rng rng(13002);
  par::ThreadPool pool(4);
  simarch::SimMachine machine(simarch::generic(4));
  for (const Index n : {7, 65, 257, 1031}) {
    const Matrix w = random_matrix(16, n, rng);
    const Matrix c0 = random_symmetric(n, rng);
    std::vector<Index> rows;
    for (Index r = n / 3; r < n; r += 5) rows.push_back(r);
    for (const Backend* b : all_backends()) {
      // Downdate, refresh a few rows as a sweep does, downdate again,
      // restore the whole upper triangle; compare every stage.
      auto run = [&](par::ExecContext& ctx, Matrix& lower, Matrix& out) {
        out = c0;
        b->covariance_downdate(ctx, w, out);
        mirror_rows(ctx, out, rows);
        b->covariance_downdate(ctx, w, out);
        lower = out;
        mirror_lower(ctx, out);
      };
      par::SerialContext serial;
      Matrix lower_ref, out_ref;
      run(serial, lower_ref, out_ref);
      EXPECT_TRUE(bitwise_symmetric(out_ref)) << tag(b->name, 16, n);
      for (const int p : {2, 3, 4}) {
        par::TeamContext team(pool, 0, p);
        Matrix lower, out;
        run(team, lower, out);
        EXPECT_TRUE(bitwise_equal(lower, lower_ref))
            << tag(std::string(b->name) + " P=" + std::to_string(p), 16, n);
        EXPECT_TRUE(bitwise_equal(out, out_ref))
            << tag(std::string(b->name) + " P=" + std::to_string(p), 16, n);
      }
      simarch::SimContext sim(machine, 0, 4);
      Matrix lower, out;
      run(sim, lower, out);
      EXPECT_TRUE(bitwise_equal(lower, lower_ref))
          << tag(std::string(b->name) + " sim", 16, n);
      EXPECT_TRUE(bitwise_equal(out, out_ref))
          << tag(std::string(b->name) + " sim", 16, n);
    }
  }
}

TEST(SymmetricDowndate, MirrorRowsRefreshesExactlyTheListedRows) {
  Rng rng(13003);
  par::SerialContext ctx;
  const Index n = 70;
  Matrix c = random_matrix(n, n, rng);
  const Matrix before = c;
  const std::vector<Index> rows = {3, 4, 5, 40, 69};
  mirror_rows(ctx, c, rows);
  for (Index i = 0; i < n; ++i) {
    const bool listed = std::find(rows.begin(), rows.end(), i) != rows.end();
    for (Index j = 0; j < n; ++j) {
      const double want = listed && j > i ? before(j, i) : before(i, j);
      ASSERT_EQ(bits(c(i, j)), bits(want)) << "(" << i << ", " << j << ")";
    }
  }
  mirror_rows(ctx, c, std::vector<Index>{});  // no rows: a no-op
  EXPECT_THROW(mirror_rows(ctx, c, std::vector<Index>{n}), Error);
}

// Evaluates a kernel's cost callback over the even_chunk slices a P-lane
// executor would run, without running the body.
class CostProbe final : public par::ExecContext {
 public:
  explicit CostProbe(int lanes) : lanes_(lanes) {}
  int width() const override { return lanes_; }
  void parallel(perf::Category, Index n, const par::CostFn& cost,
                const par::BodyFn&) override {
    lane_flops.clear();
    for (int lane = 0; lane < lanes_; ++lane) {
      const par::Range r = par::even_chunk(n, lanes_, lane);
      lane_flops.push_back(cost(r.begin, r.end).flops);
    }
  }
  void sequential(perf::Category, const par::CostFn&,
                  const par::SectionFn&) override {}
  const perf::Profile& profile() const override { return profile_; }

  std::vector<double> lane_flops;

 private:
  int lanes_;
  perf::Profile profile_;
};

// At the ribo30s root shape the paired row tiles give every lane within 5%
// of the mean flops, so a P=2 solve is not held back by a triangular lane
// imbalance.  The charge also covers the whole triangle and no more than
// the diagonal tiles' overhang.
TEST(SymmetricDowndate, PairedTilesBalanceLanesAtTheRibo30sRoot) {
  const Index n = 2697;
  const Index m = 16;
  const Matrix w(m, n);
  Matrix c(n, n);
  const double triangle = static_cast<double>(m) * static_cast<double>(n) *
                          static_cast<double>(n + 1);
  for (const Backend* b : all_backends()) {
    for (const int p : {2, 3, 4}) {
      CostProbe probe(p);
      b->covariance_downdate(probe, w, c);
      ASSERT_EQ(probe.lane_flops.size(), static_cast<std::size_t>(p));
      double total = 0.0;
      double most = 0.0;
      for (const double f : probe.lane_flops) {
        total += f;
        most = std::max(most, f);
      }
      const double mean = total / static_cast<double>(p);
      EXPECT_LE(most / mean, 1.05) << b->name << " P=" << p;
      EXPECT_GE(total, triangle) << b->name << " P=" << p;
      EXPECT_LE(total, 1.01 * triangle) << b->name << " P=" << p;
    }
  }
}

}  // namespace
}  // namespace phmse::linalg

namespace phmse::est {
namespace {

using cons::Constraint;
using cons::Kind;

core::Hierarchy prepared_helix(const mol::HelixModel& model,
                               const cons::ConstraintSet& set, int procs) {
  core::Hierarchy h = core::build_helix_hierarchy(model);
  core::assign_constraints(h, set);
  core::estimate_work(h, core::WorkModel{}, 16);
  core::assign_processors(h, procs);
  return h;
}

TEST(SymmetricDowndate, HelixSolveLeavesEveryNodeBitwiseSymmetric) {
  const mol::HelixModel model = mol::build_helix(4);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  linalg::Vector x0 = model.topology.true_state();
  Rng rng(13004);
  for (double& v : x0) v += rng.gaussian(0.0, 0.3);

  auto check = [&](core::Executor exec, int procs, const char* what) {
    core::Hierarchy h = prepared_helix(model, set, procs);
    core::SolvePlan plan(h, core::HierSolveOptions{});
    plan.run(exec, x0);
    for (std::size_t i = 0; i < plan.num_nodes(); ++i) {
      EXPECT_TRUE(bitwise_symmetric(plan.node_state(i).c))
          << what << " node " << i;
    }
    return plan.root_state().c;
  };
  par::SerialContext serial;
  const linalg::Matrix c_serial = check(serial, 1, "serial");
  par::ThreadPool pool(4);
  const linalg::Matrix c_pool = check(pool, 4, "thread pool");
  simarch::SimMachine machine(simarch::generic(4));
  const linalg::Matrix c_sim = check(machine, 4, "simulated");
  EXPECT_EQ(c_pool, c_serial);
  EXPECT_EQ(c_sim, c_serial);
}

NodeState chain_state(Index atoms) {
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = atoms;
  st.x.resize(static_cast<std::size_t>(3 * atoms));
  Rng rng(13005);
  for (Index a = 0; a < atoms; ++a) {
    st.x[static_cast<std::size_t>(3 * a)] = 1.4 * static_cast<double>(a);
    st.x[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.3);
    st.x[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.3);
  }
  st.reset_covariance(1.0);
  return st;
}

// `batches` batches of 8 distance constraints along an atom chain.
cons::ConstraintSet chain_distances(Index atoms, Index batches) {
  cons::ConstraintSet set;
  Rng rng(13006);
  for (Index i = 0; i < 8 * batches; ++i) {
    Constraint c;
    c.kind = Kind::kDistance;
    const Index a = (5 * i) % (atoms - 1);
    c.atoms = {a, a + 1, 0, 0};
    c.observed = 1.3 + rng.uniform(0.0, 0.3);
    c.variance = 0.04;
    set.add(c);
  }
  return set;
}

// The first `batches` batches of `set` as a set of their own.
cons::ConstraintSet head(const cons::ConstraintSet& set, Index batches) {
  cons::ConstraintSet out;
  for (Index i = 0; i < 8 * batches; ++i) {
    out.add(set.all()[static_cast<std::size_t>(i)]);
  }
  return out;
}

// A sweep that throws after `done` applied batches must leave exactly the
// state of a clean sweep over those batches: lower triangle current, upper
// triangle restored.
void expect_clean_prefix(const NodeState& st, const cons::ConstraintSet& set,
                         Index done) {
  EXPECT_TRUE(bitwise_symmetric(st.c));
  NodeState clean = chain_state(st.num_atoms());
  par::SerialContext ctx;
  BatchUpdater up;
  up.apply_all(ctx, clean, head(set, done), 8);
  EXPECT_EQ(st.c, clean.c);
  EXPECT_EQ(st.x, clean.x);
}

TEST(SymmetricDowndate, AbortedSweepLeavesCovarianceSymmetric) {
  const Index atoms = 40;
  cons::ConstraintSet set = chain_distances(atoms, 6);
  // A non-finite observation in batch 4 aborts the sweep under the default
  // policy, before that batch touches the state.
  cons::ConstraintSet poisoned;
  for (Index i = 0; i < set.size(); ++i) {
    Constraint c = set.all()[static_cast<std::size_t>(i)];
    if (i == 4 * 8 + 3) c.observed = std::numeric_limits<double>::quiet_NaN();
    poisoned.add(c);
  }
  NodeState st = chain_state(atoms);
  par::SerialContext ctx;
  BatchUpdater up;
  EXPECT_THROW(up.apply_all(ctx, st, poisoned, 8), Error);
  expect_clean_prefix(st, set, 4);
}

#ifdef PHMSE_FAULT_INJECTION
TEST(SymmetricDowndate, InjectedAbortBatchLeavesCovarianceSymmetric) {
  fault::Injector::instance().clear();
  const Index atoms = 40;
  const cons::ConstraintSet set = chain_distances(atoms, 6);
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd, .batch = 3});
  NodeState st = chain_state(atoms);
  par::SerialContext ctx;
  BatchUpdater up;
  EXPECT_THROW(up.apply_all(ctx, st, set, 8), Error);
  fault::Injector::instance().clear();
  expect_clean_prefix(st, set, 3);
}
#endif

// A serial context that cancels its token once `after` batches have run
// their covariance downdate (every applied batch runs two m-v kernels: the
// gain times the residual, then the downdate).
class CancelAfterBatches final : public par::ExecContext {
 public:
  CancelAfterBatches(par::CancelToken& token, int after)
      : token_(token), after_(after) {
    bind_cancel_token(&token);
  }
  int width() const override { return 1; }
  void parallel(perf::Category cat, Index n, const par::CostFn& cost,
                const par::BodyFn& body) override {
    inner_.parallel(cat, n, cost, body);
    if (cat == perf::Category::kMatVec && ++matvec_ == 2 * after_) {
      token_.cancel();
    }
  }
  void sequential(perf::Category cat, const par::CostFn& cost,
                  const par::SectionFn& body) override {
    inner_.sequential(cat, cost, body);
  }
  const perf::Profile& profile() const override { return inner_.profile(); }

 private:
  par::SerialContext inner_;
  par::CancelToken& token_;
  int after_;
  int matvec_ = 0;
};

TEST(SymmetricDowndate, CancelBetweenBatchesLeavesCovarianceSymmetric) {
  const Index atoms = 40;
  const cons::ConstraintSet set = chain_distances(atoms, 6);
  par::CancelToken token;
  CancelAfterBatches ctx(token, 2);
  NodeState st = chain_state(atoms);
  BatchUpdater up;
  EXPECT_THROW(up.apply_all(ctx, st, set, 8), par::CancelledError);
  expect_clean_prefix(st, set, 2);
}

}  // namespace
}  // namespace phmse::est
