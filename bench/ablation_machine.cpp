// Ablation A5: sensitivity of the parallel behaviour to the machine's
// memory system — the quantitative side of the paper's locality analysis.
//
// The paper attributes the dense-sparse kernels' 55-75% efficiency on DASH
// to remote cache misses ("the proportion of which increases with more
// processors"), and the overall speedup knee to memory overheads.  This
// harness sweeps the remote-miss latency of the simulated DASH and reports
// how the 32-processor speedup and the d-s category's scaling respond;
// it also contrasts the distributed machine with an idealized uniform-
// memory variant.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "support/table.hpp"

namespace phmse::bench {
namespace {

struct Point {
  double t1;
  double t32;
  double ds1;
  double ds32;
};

Point run_machine(const HelixProblem& p, const simarch::MachineConfig& cfg) {
  core::HierSolveOptions opts;
  Point out{};
  for (int procs : {1, 32}) {
    core::Hierarchy h = prepare_helix_hierarchy(p, procs);
    simarch::SimMachine machine(cfg);
    const core::PlanRunStats res =
        core::SolvePlan(h, opts).run(machine, p.initial);
    if (procs == 1) {
      out.t1 = res.vtime;
      out.ds1 = res.breakdown.time(perf::Category::kDenseSparse);
    } else {
      out.t32 = res.vtime;
      out.ds32 = res.breakdown.time(perf::Category::kDenseSparse);
    }
  }
  return out;
}

int run() {
  print_header("Ablation A5",
               "Memory-system sensitivity of the parallel speedup");

  const HelixProblem p = make_helix_problem(bench_scale() < 0.5 ? 8 : 16);

  Table t({"remote/local miss ratio", "speedup@32", "d-s speedup@32"});
  const simarch::MachineConfig base = simarch::dash32();
  for (double ratio : {1.0, 2.0, 3.5, 6.0, 10.0}) {
    simarch::MachineConfig cfg = base;
    cfg.t_miss_remote = cfg.t_miss_local * ratio;
    const Point pt = run_machine(p, cfg);
    t.add_row({format_fixed(ratio, 1), format_fixed(pt.t1 / pt.t32, 2),
               format_fixed(pt.ds1 / pt.ds32, 2)});
  }
  std::printf("%s", t.str().c_str());
  std::printf("(simulated DASH with the remote-miss latency scaled; "
              "ratio 1.0 = uniform memory)\n\n");

  // Second sweep: cache capacity.  The kernel cost annotations assume
  // ideally blocked tiles stay resident; with a finite modeled cache the
  // big root-node updates overflow and the m-v category turns partly
  // memory-bound.
  Table t2({"cache per proc (KB)", "time@1", "time@32", "speedup@32"});
  for (double kb : {0.0, 64.0, 256.0, 1024.0}) {
    simarch::MachineConfig cfg = base;
    cfg.cache_bytes_per_proc = kb * 1024.0;
    const Point pt = run_machine(p, cfg);
    t2.add_row({kb == 0.0 ? std::string("unlimited")
                          : format_fixed(kb, 0),
                format_fixed(pt.t1, 2), format_fixed(pt.t32, 2),
                format_fixed(pt.t1 / pt.t32, 2)});
  }
  std::printf("%s", t2.str().c_str());
  std::printf("(smaller caches make the dominant covariance update "
              "partly memory-bound, slowing NP=1\nand shifting the "
              "speedup curve — the paper's \"bend in the speedup curve "
              "correlates\nstrongly with the increase in the overhead of "
              "memory operations\")\n");
  std::printf("Expected shape: overall speedup degrades mildly (the "
              "dominant m-v kernel is compute-bound\nafter tiling) while "
              "the memory-bound d-s category's scaling collapses as remote "
              "misses\nbecome expensive — the paper's explanation of its "
              "55-75%% d-s efficiency.\n");
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main() { return phmse::bench::run(); }
