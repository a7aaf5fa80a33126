// Per-layer probes: tree shape and Eq.-1 balance (core), per-category solve
// time (estimation), and a replay of the update kernels at the shapes a
// real solve runs them, next to a memory-bandwidth probe (linalg, machine).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "parallel/exec.hpp"

namespace perfbench {

using namespace phmse;

namespace {

constexpr perf::Category kCategories[] = {
    perf::Category::kDenseSparse, perf::Category::kMatMat,
    perf::Category::kCholesky,    perf::Category::kSystemSolve,
    perf::Category::kMatVec,      perf::Category::kVector,
    perf::Category::kOther};
constexpr const char* kCategoryKeys[] = {"ds",  "mm",  "chol", "sys",
                                         "mv",  "vec", "other"};

}  // namespace

void report_core(engine::Plan& plan, Report& report) {
  const int processors = plan.processors();
  if (processors != 4) plan.reschedule(4);
  const core::Hierarchy& h = plan.hierarchy();
  std::vector<double> load(4, 0.0);
  h.for_each_post_order([&](const core::HierNode& node) {
    const double share = node.own_work / node.proc_count;
    for (int p = node.proc_first; p < node.proc_first + node.proc_count; ++p) {
      load[static_cast<std::size_t>(p)] += share;
    }
  });
  const double peak = *std::max_element(load.begin(), load.end());
  report.set("core.nodes", static_cast<double>(h.num_nodes()));
  report.set("core.depth", static_cast<double>(h.depth()));
  report.set("core.root_work_share",
             h.root().own_work / h.root().subtree_work);
  report.set("core.imbalance_p4", peak / mean(load));
  if (processors != 4) plan.reschedule(processors);
}

void report_update(const std::vector<perf::Profile>& breakdowns,
                   const std::string& prefix, Report& report) {
  std::vector<double> mv_share;
  for (const perf::Profile& p : breakdowns) {
    mv_share.push_back(p.time(perf::Category::kMatVec) / p.total());
  }
  for (std::size_t k = 0; k < std::size(kCategories); ++k) {
    std::vector<double> ms;
    for (const perf::Profile& p : breakdowns) {
      ms.push_back(category_ms(p, kCategories[k]));
    }
    report.set(prefix + kCategoryKeys[k] + "_ms", median(ms));
  }
  report.set(prefix + "mv_share", median(mv_share));
}

void report_unattributed(const std::vector<perf::Profile>& breakdowns,
                         const std::vector<double>& walls, Report& report) {
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < breakdowns.size(); ++i) {
    const double total = breakdowns[i].total();
    report.check(total <= walls[i] + 1e-6,
                 "serial solve categories exceed its wall time");
    unattributed.push_back((walls[i] - total) / walls[i]);
  }
  report.set("engine.unattributed_share", median(unattributed));
}

// --- Kernel replay ---------------------------------------------------------

const char* const kReplayKernels[6] = {
    "covariance_downdate", "sparse_dense", "innovation_covariance",
    "cholesky",            "trsm",         "gain_times_residual"};

namespace {

// Runs kernels serially like par::SerialContext and sums the work the
// kernels' own cost functions declare for each call.  Its profile stays
// empty: the replay times whole kernel calls itself.
class CountingContext final : public par::ExecContext {
 public:
  int width() const override { return 1; }
  void parallel(perf::Category, Index n, const par::CostFn& cost,
                const par::BodyFn& body) override {
    if (n > 0) {
      work_ += cost(0, n);
      body(0, n, 0);
    }
  }
  void sequential(perf::Category, const par::CostFn& cost,
                  const par::SectionFn& body) override {
    work_ += cost(0, 1);
    body();
  }
  const perf::Profile& profile() const override { return profile_; }

  // Times one kernel call and books it on `tally`.
  template <typename F>
  void run(ReplayTally& tally, F&& kernel) {
    work_ = par::KernelStats{};
    const Clock::time_point start = Clock::now();
    kernel();
    tally.seconds += seconds_between(start, Clock::now());
    tally.flops += work_.flops;
    tally.bytes += work_.bytes_stream + work_.bytes_irregular;
    ++tally.calls;
  }

 private:
  par::KernelStats work_;
  perf::Profile profile_;
};

}  // namespace

void replay_kernels(const engine::Plan& plan, const Molecule& mol,
                    std::vector<ReplayTally>& tallies) {
  tallies.resize(std::size(kReplayKernels));
  const Index batch = plan.options().batch_size;
  const double prior_var =
      plan.options().prior_sigma * plan.options().prior_sigma;
  const auto& atoms = mol.topology->atoms();
  CountingContext ctx;
  linalg::CsrBuilder builder;
  linalg::Csr h;
  linalg::Matrix g;
  linalg::Matrix s;
  linalg::Vector rdiag;
  linalg::Vector w;
  linalg::Vector dx;
  plan.hierarchy().for_each_post_order([&](const core::HierNode& node) {
    const auto& list = node.constraints.all();
    if (list.empty()) return;
    const Index n = node.dim();
    linalg::Matrix c(n, n);
    for (Index i = 0; i < n; ++i) c(i, i) = prior_var;
    dx.assign(static_cast<std::size_t>(n), 0.0);
    for (std::size_t start = 0; start < list.size();
         start += static_cast<std::size_t>(batch)) {
      const std::size_t end =
          std::min(list.size(), start + static_cast<std::size_t>(batch));
      // The batch's Jacobian at the ground truth, in node-local columns.
      builder.reset(n);
      rdiag.clear();
      for (std::size_t r = start; r < end; ++r) {
        const cons::Constraint& con = list[r];
        std::array<mol::Vec3, 4> pos{};
        for (Index k = 0; k < cons::arity(con.kind); ++k) {
          pos[static_cast<std::size_t>(k)] =
              atoms[static_cast<std::size_t>(
                        con.atoms[static_cast<std::size_t>(k)])]
                  .position;
        }
        cons::Gradient grad;
        cons::evaluate_with_gradient(con, pos, grad);
        builder.begin_row();
        for (Index k = 0; k < cons::arity(con.kind); ++k) {
          const Index base =
              3 * (con.atoms[static_cast<std::size_t>(k)] - node.atom_begin);
          const mol::Vec3& d = grad.d[static_cast<std::size_t>(k)];
          builder.add(base + 0, d.x);
          builder.add(base + 1, d.y);
          builder.add(base + 2, d.z);
        }
        rdiag.push_back(con.variance);
      }
      builder.finish_into(h);
      w.assign(rdiag.size(), 0.1);
      // The update sequence of est::BatchUpdater::apply, kernel by kernel.
      ctx.run(tallies[1], [&] { linalg::sparse_dense(ctx, h, c, g); });
      ctx.run(tallies[2],
              [&] { linalg::innovation_covariance(ctx, g, h, rdiag, s); });
      ctx.run(tallies[3], [&] { linalg::cholesky(ctx, s); });
      ctx.run(tallies[4], [&] { linalg::trsm_lower(ctx, s, g); });
      ctx.run(tallies[5],
              [&] { linalg::gain_times_residual(ctx, g, w, dx); });
      ctx.run(tallies[0], [&] { linalg::covariance_downdate(ctx, g, g, c); });
    }
  });
}

namespace {

// Single-threaded in-place scale-add over one array of at least four times
// the last-level cache: 16 bytes moved per element (read + write).  Returns
// the best of three passes in GB/s.
double stream_gbps(double llc_bytes, double* array_mib) {
  const auto n = static_cast<std::size_t>(4.0 * llc_bytes / sizeof(double));
  *array_mib = static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0);
  std::vector<double> a(n, 1.0);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point start = Clock::now();
    double* p = a.data();
    for (std::size_t i = 0; i < n; ++i) p[i] = p[i] * 0.999 + 0.001;
    const double sec = seconds_between(start, Clock::now());
    best = std::max(best, 16.0 * static_cast<double>(n) / sec * 1e-9);
  }
  // Keep the result observable so the passes are not optimized away.
  if (a[n / 2] < 0.0) std::fprintf(stderr, "unexpected stream value\n");
  return best;
}

}  // namespace

double kernel_category_ms(const perf::Profile& p) {
  return category_ms(p, perf::Category::kDenseSparse) +
         category_ms(p, perf::Category::kMatMat) +
         category_ms(p, perf::Category::kCholesky) +
         category_ms(p, perf::Category::kSystemSolve) +
         category_ms(p, perf::Category::kMatVec);
}

void report_kernels(const std::vector<ReplayTally>& tallies,
                    double category_ms_sum, Report& report) {
  double replay_ms = 0.0;
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    const ReplayTally& t = tallies[k];
    const std::string key = std::string("linalg.") + kReplayKernels[k];
    report.set(key + ".calls", static_cast<double>(t.calls));
    report.set(key + ".ms", 1e3 * t.seconds);
    report.set(key + ".gflops", t.seconds > 0.0 ? t.flops / t.seconds * 1e-9
                                                : 0.0);
    report.set(key + ".flop_per_byte", t.bytes > 0.0 ? t.flops / t.bytes : 0.0);
    replay_ms += 1e3 * t.seconds;
  }
  report.set("linalg.replay_coverage", replay_ms / category_ms_sum);

  // sysconf reads the cache size from cpuid; fall back to 32 MiB.
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  double array_mib = 0.0;
  const double gbps = stream_gbps(static_cast<double>(llc), &array_mib);
  report.set("machine.stream_gbps", gbps);
  report.set("machine.llc_mib", static_cast<double>(llc) / (1024.0 * 1024.0));
  report.set("machine.stream_array_mib", array_mib);
  const ReplayTally& downdate = tallies[0];
  report.set("linalg.covariance_downdate.bw_ratio",
             downdate.bytes / downdate.seconds * 1e-9 / gbps);
}

}  // namespace perfbench
