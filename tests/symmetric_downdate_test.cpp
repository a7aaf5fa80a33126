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
//
// Suite StructuralZeroDowndate pins the restricted downdate a node's sweep
// runs over the child blocks its batches have coupled (update.hpp):
//
//   * over runs outside which W is zero, it is BITWISE the full downdate on
//     every backend and ISA, read from a padded panel, and serial, threaded
//     and simulated execution agree;
//   * a wide node's sweep is bitwise the same with and without its blocks,
//     on every executor, and really skips entries; blocks that do not match
//     C fall back to the full triangle;
//   * solves never leave -0 in C (the skip's precondition);
//   * the paired tiles balance lanes at the ribo30s root's early batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "constraints/ribo_gen.hpp"
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
#include "molecule/ribo30s.hpp"
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
        b->covariance_downdate(ctx, w, WholeRun(w.cols()), c);
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
        b->covariance_downdate(ctx, w, WholeRun(w.cols()), out);
        mirror_rows(ctx, out, rows);
        b->covariance_downdate(ctx, w, WholeRun(w.cols()), out);
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

// Runs the downdate's cost callback at m = 16 over `runs` of the ribo30s
// root (n = 2697) as P = 2, 3, 4 lanes would: every lane within 5% of the
// mean flops, and the charge covers the active triangle with no more than
// the diagonal tiles' overhang.
void expect_balanced_lanes_at_ribo_root(std::span<const ColumnRun> runs) {
  const Index n = 2697;
  const Index m = 16;
  const Matrix w(m, n);
  Matrix c(n, n);
  const double active = static_cast<double>(run_columns(runs));
  const double triangle = static_cast<double>(m) * active * (active + 1.0);
  for (const Backend* b : all_backends()) {
    for (const int p : {2, 3, 4}) {
      CostProbe probe(p);
      b->covariance_downdate(probe, w, runs, c);
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

// At the ribo30s root shape the paired row tiles balance the lanes, so a
// P=2 solve is not held back by a triangular lane imbalance.
TEST(SymmetricDowndate, PairedTilesBalanceLanesAtTheRibo30sRoot) {
  expect_balanced_lanes_at_ribo_root(WholeRun(2697));
}

// ---------------------------------------------------------------------------
// StructuralZeroDowndate: the restricted downdate.

// W's row stride in a sweep: n rounded up to 8 doubles, plus 8 at a
// multiple of 512 (est::BatchUpdater's panel).
Index panel_stride(Index n) {
  Index stride = (n + 7) / 8 * 8;
  if (stride % 512 == 0) stride += 8;
  return stride;
}

// W with the given runs' columns random and every other column zero (-0 on
// every third row, which the skip must tolerate).
Matrix zero_outside(Index m, Index n, std::span<const ColumnRun> runs,
                    Rng& rng) {
  Matrix w = random_matrix(m, n, rng);
  for (Index k = 0; k < m; ++k) {
    Index j = 0;
    for (const ColumnRun& r : runs) {
      for (; j < r.begin; ++j) w(k, j) = k % 3 == 0 ? -0.0 : 0.0;
      j = r.end;
    }
    for (; j < n; ++j) w(k, j) = k % 3 == 0 ? -0.0 : 0.0;
  }
  return w;
}

// `w` copied into a padded panel whose padding holds NaN, so a read past
// column n would show.
Matrix padded(const Matrix& w) {
  Matrix p(w.rows(), panel_stride(w.cols()));
  p.fill(std::numeric_limits<double>::quiet_NaN());
  for (Index k = 0; k < w.rows(); ++k) {
    std::copy(w.row(k).begin(), w.row(k).end(), p.row(k).begin());
  }
  return p;
}

// Unaligned runs, one-column runs and the whole node, for a state of n.
std::vector<std::vector<ColumnRun>> run_sets(Index n) {
  std::vector<std::vector<ColumnRun>> sets = {
      {{0, n}},
      {{n / 2, n / 2 + 1}},
      {{0, 1}, {n - 1, n}},
      {{1, n / 3 + 2}, {n / 2 + 1, n - 1}},
      {{n / 5, n / 5 + 1}, {n / 3 + 1, 2 * n / 3}, {n - 2, n}},
  };
  std::vector<std::vector<ColumnRun>> valid;
  for (auto& runs : sets) {
    if (runs_valid(runs, n)) valid.push_back(runs);
  }
  return valid;
}

std::string runs_tag(std::span<const ColumnRun> runs) {
  std::string t = " runs";
  for (const ColumnRun& r : runs) {
    t += " [" + std::to_string(r.begin) + "," + std::to_string(r.end) + ")";
  }
  return t;
}

TEST(StructuralZeroDowndate, RestrictedIsBitwiseTheFullDowndate) {
  Rng rng(16001);
  par::SerialContext ctx;
  std::vector<std::string> isas = simd::testable_isas();
  isas.emplace_back("scalar");
  for (const Index n : {7, 65, 1031}) {
    const Matrix c0 = random_symmetric(n, rng);
    for (const std::vector<ColumnRun>& runs : run_sets(n)) {
      for (const Index m : {1, 16}) {
        const Matrix w = zero_outside(m, n, runs, rng);
        const Matrix panel = padded(w);
        const std::string what = tag("restricted", m, n) + runs_tag(runs);
        for (const Backend* b : all_backends()) {
          Matrix restricted = c0;
          b->covariance_downdate(ctx, panel, runs, restricted);
          mirror_lower(ctx, restricted);
          Matrix full = c0;
          b->covariance_downdate(ctx, w, WholeRun(n), full);
          mirror_lower(ctx, full);
          EXPECT_TRUE(bitwise_equal(restricted, full))
              << b->name << " " << what;
          if (std::string(b->name) == "ref") continue;
          for (const std::string& isa : isas) {
            Matrix product = c0;
            simd::gemm_panel_for_isa(isa, /*trans=*/true, /*zero=*/false,
                                     -1.0, w.data(), n, w.data(), n,
                                     product.data(), n, n, m, n);
            EXPECT_TRUE(bitwise_equal(restricted, product))
                << b->name << " vs " << isa << " panel " << what;
          }
        }
      }
    }
  }
}

TEST(StructuralZeroDowndate, SerialThreadedAndSimulatedAreBitwiseEqual) {
  Rng rng(16002);
  par::ThreadPool pool(4);
  simarch::SimMachine machine(simarch::generic(4));
  for (const Index n : {7, 65, 1031}) {
    const Matrix c0 = random_symmetric(n, rng);
    for (const std::vector<ColumnRun>& runs : run_sets(n)) {
      const Matrix panel = padded(zero_outside(16, n, runs, rng));
      const std::string what = tag("restricted", 16, n) + runs_tag(runs);
      for (const Backend* b : all_backends()) {
        auto run = [&](par::ExecContext& ctx) {
          Matrix out = c0;
          b->covariance_downdate(ctx, panel, runs, out);
          return out;
        };
        par::SerialContext serial;
        const Matrix want = run(serial);
        for (const int p : {2, 3, 4}) {
          par::TeamContext team(pool, 0, p);
          EXPECT_TRUE(bitwise_equal(run(team), want))
              << b->name << " P=" << p << " " << what;
        }
        simarch::SimContext sim(machine, 0, 4);
        EXPECT_TRUE(bitwise_equal(run(sim), want))
            << b->name << " sim " << what;
      }
    }
  }
}

TEST(StructuralZeroDowndate, RejectsRunsOutsideTheState) {
  par::SerialContext ctx;
  const Index n = 20;
  const Matrix w(2, n);
  Matrix c(n, n);
  const std::vector<std::vector<ColumnRun>> bad = {
      {{0, n + 1}}, {{-1, 3}}, {{4, 4}}, {{5, 9}, {8, 12}}, {{9, 12}, {0, 3}}};
  for (const Backend* b : all_backends()) {
    for (const std::vector<ColumnRun>& runs : bad) {
      EXPECT_THROW(b->covariance_downdate(ctx, w, runs, c), Error)
          << b->name << runs_tag(runs);
    }
    EXPECT_THROW(b->covariance_downdate(ctx, Matrix(2, n - 1), WholeRun(n), c),
                 Error)
        << b->name << " W narrower than C";
  }
}

// The ribo30s root's batches 1-14 couple 4 of its 7 domains: 1560 of 2697
// columns, in two runs.  Tiles of active rows keep the lanes balanced.
TEST(StructuralZeroDowndate, PairedTilesBalanceLanesOverActiveRuns) {
  const std::vector<ColumnRun> runs = {{0, 789}, {1926, 2697}};
  ASSERT_EQ(run_columns(runs), 1560);
  expect_balanced_lanes_at_ribo_root(runs);
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


// ---------------------------------------------------------------------------
// StructuralZeroDowndate: sweeps over a node's child blocks.

// Sums the flops the m-v kernels charge, forwarding every call to `inner`.
class MatVecFlops final : public par::ExecContext {
 public:
  explicit MatVecFlops(par::ExecContext& inner) : inner_(inner) {}
  int width() const override { return inner_.width(); }
  void parallel(perf::Category cat, Index n, const par::CostFn& cost,
                const par::BodyFn& body) override {
    if (cat == perf::Category::kMatVec) flops += cost(0, n).flops;
    inner_.parallel(cat, n, cost, body);
  }
  void sequential(perf::Category cat, const par::CostFn& cost,
                  const par::SectionFn& body) override {
    inner_.sequential(cat, cost, body);
  }
  const perf::Profile& profile() const override { return inner_.profile(); }

  double flops = 0.0;

 private:
  par::ExecContext& inner_;
};

// A wide interior node: six children of different sizes (their blocks of
// 15-33 state indices do not fall on 8-column lines), assembled
// block-diagonally from dense random child covariances.
const std::vector<Index> kBlockAtoms = {5, 9, 6, 11, 7, 10};

std::vector<Index> ring_offsets() {
  std::vector<Index> offsets{0};
  for (const Index atoms : kBlockAtoms) {
    offsets.push_back(offsets.back() + 3 * atoms);
  }
  return offsets;
}

// First atom of block b.
Index block_atom(std::size_t b) { return ring_offsets()[b] / 3; }

NodeState wide_node(bool coupled) {
  const std::vector<Index> offsets = ring_offsets();
  const Index atoms = offsets.back() / 3;
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = atoms;
  st.x.resize(static_cast<std::size_t>(3 * atoms));
  Rng rng(16003);
  for (std::size_t b = 0; b < kBlockAtoms.size(); ++b) {
    // Blocks sit around a ring; atoms of a block cluster together.
    const double angle = 2.0 * 3.14159265358979 * static_cast<double>(b) /
                         static_cast<double>(kBlockAtoms.size());
    for (Index a = block_atom(b); a < block_atom(b) + kBlockAtoms[b]; ++a) {
      st.x[static_cast<std::size_t>(3 * a)] =
          6.0 * std::cos(angle) + rng.gaussian(0.0, 1.0);
      st.x[static_cast<std::size_t>(3 * a + 1)] =
          6.0 * std::sin(angle) + rng.gaussian(0.0, 1.0);
      st.x[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 1.0);
    }
  }
  const Index n = st.dim();
  auto block_of = [&](Index i) {
    return std::upper_bound(offsets.begin(), offsets.end(), i) -
           offsets.begin();
  };
  st.c.resize_zero(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      if (!coupled && block_of(i) != block_of(j)) continue;
      const double v =
          i == j ? 1.0 + 0.1 * rng.uniform(0.0, 1.0)
                 : 0.3 / static_cast<double>(n) * rng.gaussian();
      st.c(i, j) = st.c(j, i) = v;
    }
  }
  return st;
}

// Intra-block distances first, then the ring's edges one batch of 4 each,
// in an order that couples non-adjacent blocks early: after (0,1), (3,4)
// and (5,0) the batches' active runs are two separate column ranges.
cons::ConstraintSet ring_constraints(const NodeState& st) {
  cons::ConstraintSet set;
  Rng rng(16004);
  auto add = [&](Index a, Index b) {
    Constraint c;
    c.kind = Kind::kDistance;
    c.atoms = {a, b, 0, 0};
    const mol::Vec3 pa = st.position(a);
    const mol::Vec3 pb = st.position(b);
    c.observed = std::sqrt((pa.x - pb.x) * (pa.x - pb.x) +
                           (pa.y - pb.y) * (pa.y - pb.y) +
                           (pa.z - pb.z) * (pa.z - pb.z)) +
                 rng.gaussian(0.0, 0.2);
    c.variance = 0.04;
    set.add(c);
  };
  for (std::size_t b = 0; b < kBlockAtoms.size(); ++b) {
    for (Index k = 0; k < 4; ++k) {
      add(block_atom(b) + k, block_atom(b) + k + 1);
    }
  }
  for (const std::size_t b : {0, 3, 5, 1, 4, 2}) {
    const std::size_t next = (b + 1) % kBlockAtoms.size();
    for (Index k = 0; k < 4; ++k) {
      add(block_atom(b) + k, block_atom(next) + (k + 1) % 5);
    }
  }
  return set;
}

// Sweeps `st` with and without the block offsets on `ctx`; returns the m-v
// flops of each sweep.  Both must give bitwise the same posterior.
std::pair<double, double> sweep_both_ways(par::ExecContext& ctx,
                                          const NodeState& st,
                                          const std::string& what) {
  const cons::ConstraintSet set = ring_constraints(st);
  NodeState with = st;
  NodeState without = st;
  BatchUpdater blocked;
  blocked.set_blocks(ring_offsets());
  BatchUpdater full;
  MatVecFlops counted_with(ctx);
  MatVecFlops counted_without(ctx);
  blocked.apply_all(counted_with, with, set, 4);
  full.apply_all(counted_without, without, set, 4);
  EXPECT_EQ(with.x, without.x) << what;
  EXPECT_EQ(with.c, without.c) << what;
  EXPECT_TRUE(bitwise_symmetric(with.c)) << what;
  return {counted_with.flops, counted_without.flops};
}

TEST(StructuralZeroDowndate, WideNodeSweepIsBitwiseWithAndWithoutBlocks) {
  const NodeState st = wide_node(/*coupled=*/false);
  par::SerialContext serial;
  const auto [with, without] = sweep_both_ways(serial, st, "serial");
  // The intra-block batches and the first ring batches skip most of the
  // node; every sweep still ends fully coupled.
  EXPECT_LT(with, 0.8 * without);
  par::ThreadPool pool(4);
  for (const int p : {2, 3, 4}) {
    par::TeamContext team(pool, 0, p);
    sweep_both_ways(team, st, "P=" + std::to_string(p));
  }
  simarch::SimMachine machine(simarch::generic(4));
  simarch::SimContext sim(machine, 0, 4);
  sweep_both_ways(sim, st, "sim");

  // The pool and the simulator give the serial posterior too.
  const cons::ConstraintSet set = ring_constraints(st);
  BatchUpdater up;
  up.set_blocks(ring_offsets());
  NodeState a = st;
  up.apply_all(serial, a, set, 4);
  NodeState b = st;
  par::TeamContext team(pool, 0, 3);
  up.apply_all(team, b, set, 4);
  NodeState c = st;
  up.apply_all(sim, c, set, 4);
  EXPECT_EQ(b.c, a.c);
  EXPECT_EQ(c.c, a.c);
  EXPECT_EQ(b.x, a.x);
  EXPECT_EQ(c.x, a.x);
}

// Blocks that do not describe C (it is coupled from the start) make W
// nonzero outside the predicted runs: the updater sees it while copying W
// and downdates the full triangle, so the posterior is still exact.
TEST(StructuralZeroDowndate, BlocksThatDoNotMatchCFallBackToTheFullTriangle) {
  const NodeState st = wide_node(/*coupled=*/true);
  par::SerialContext serial;
  const auto [with, without] = sweep_both_ways(serial, st, "coupled C");
  EXPECT_LE(with, without);
}

TEST(StructuralZeroDowndate, SetBlocksValidatesOffsets) {
  BatchUpdater up;
  EXPECT_THROW(up.set_blocks(std::vector<Index>{}), Error);
  EXPECT_THROW(up.set_blocks(std::vector<Index>{3, 6}), Error);
  EXPECT_THROW(up.set_blocks(std::vector<Index>{0, 6, 3}), Error);
  // Blocks must tile the swept state.
  up.set_blocks(std::vector<Index>{0, 15, 15, 30});
  NodeState st = wide_node(false);
  par::SerialContext ctx;
  EXPECT_THROW(up.apply_all(ctx, st, ring_constraints(st), 4), Error);
}

::testing::AssertionResult no_negative_zero(const linalg::Matrix& c) {
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = 0; j < c.cols(); ++j) {
      if (bits(c(i, j)) == bits(-0.0)) {
        return ::testing::AssertionFailure()
               << "C(" << i << ", " << j << ") is -0";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The skip is exact only because C never holds -0 (x + (+-0) == x for every
// other x).  Pin that on a helix and on the ribo30s tree, whose root and
// domain nodes skip.
TEST(StructuralZeroDowndate, SolvesLeaveNoNegativeZeroInC) {
  par::SerialContext serial;
  {
    const mol::HelixModel model = mol::build_helix(4);
    const cons::ConstraintSet set = cons::generate_helix_constraints(model);
    linalg::Vector x0 = model.topology.true_state();
    Rng rng(16005);
    for (double& v : x0) v += rng.gaussian(0.0, 0.3);
    core::Hierarchy h = prepared_helix(model, set, 1);
    core::SolvePlan plan(h, core::HierSolveOptions{});
    plan.run(serial, x0);
    for (std::size_t i = 0; i < plan.num_nodes(); ++i) {
      EXPECT_TRUE(no_negative_zero(plan.node_state(i).c)) << "helix node " << i;
    }
  }
  {
    const mol::Ribo30sModel model = mol::build_ribo30s();
    const cons::ConstraintSet set = cons::generate_ribo_constraints(model);
    core::Hierarchy h = core::build_ribo_hierarchy(model);
    core::assign_constraints(h, set);
    core::estimate_work(h, core::WorkModel{}, 16);
    core::assign_processors(h, 1);
    linalg::Vector x0 = model.topology.true_state();
    Rng rng(16006);
    for (double& v : x0) v += rng.gaussian(0.0, 1.0);
    core::SolvePlan plan(h, core::HierSolveOptions{});
    plan.run(serial, x0);
    for (std::size_t i = 0; i < plan.num_nodes(); ++i) {
      EXPECT_TRUE(no_negative_zero(plan.node_state(i).c)) << "ribo node " << i;
    }
  }
}

}  // namespace
}  // namespace phmse::est
