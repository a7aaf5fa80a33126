#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "linalg/backend.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace phmse::bench {

double bench_scale() {
  const double s = env_double("PHMSE_BENCH_SCALE", 1.0);
  return std::clamp(s, 0.01, 1.0);
}

namespace {

linalg::Vector perturbed_state(const mol::Topology& topo, double sigma) {
  Rng rng(static_cast<std::uint64_t>(env_long("PHMSE_BENCH_SEED", 1234)));
  linalg::Vector x = topo.true_state();
  for (auto& v : x) v += rng.gaussian(0.0, sigma);
  return x;
}

}  // namespace

HelixProblem make_helix_problem(Index length) {
  HelixProblem p{mol::build_helix(length), {}, {}};
  p.constraints = cons::generate_helix_constraints(p.model);
  p.initial = perturbed_state(p.model.topology, 0.3);
  return p;
}

RiboProblem make_ribo_problem() {
  RiboProblem p{mol::build_ribo30s(), {}, {}};
  p.constraints = cons::generate_ribo_constraints(p.model);
  p.initial = perturbed_state(p.model.topology, 1.0);
  return p;
}

core::Hierarchy prepare_helix_hierarchy(const HelixProblem& p, int procs,
                                        Index batch_size) {
  core::Hierarchy h = core::build_helix_hierarchy(p.model);
  core::assign_constraints(h, p.constraints);
  core::estimate_work(h, core::WorkModel{}, batch_size);
  core::assign_processors(h, procs);
  return h;
}

core::Hierarchy prepare_ribo_hierarchy(const RiboProblem& p, int procs,
                                       Index batch_size) {
  core::Hierarchy h = core::build_ribo_hierarchy(p.model);
  core::assign_constraints(h, p.constraints);
  core::estimate_work(h, core::WorkModel{}, batch_size);
  core::assign_processors(h, procs);
  return h;
}

engine::Plan make_helix_plan(const HelixProblem& p, int procs,
                             const core::HierSolveOptions& solve) {
  engine::Problem problem = engine::Problem::custom(
      p.model.topology.size(), p.constraints,
      [model = p.model] { return core::build_helix_hierarchy(model); });
  engine::CompileOptions opts;
  opts.solve = solve;
  opts.processors = procs;
  return Engine::compile(problem, opts);
}

engine::Plan make_ribo_plan(const RiboProblem& p, int procs,
                            const core::HierSolveOptions& solve) {
  engine::Problem problem = engine::Problem::custom(
      p.model.topology.size(), p.constraints,
      [model = p.model] { return core::build_ribo_hierarchy(model); });
  engine::CompileOptions opts;
  opts.solve = solve;
  opts.processors = procs;
  return Engine::compile(problem, opts);
}

int run_speedup_table(const SpeedupSpec& spec) {
  print_header(spec.table_id, spec.title);

  HelixProblem helix;
  RiboProblem ribo;
  Index helix_len = 16;
  if (!spec.helix_problem) {
    ribo = make_ribo_problem();
  } else {
    if (bench_scale() < 0.5) helix_len = 8;
    helix = make_helix_problem(helix_len);
  }

  std::printf("problem: %s; machine: %s (%d processors, %s memory)\n",
              spec.helix_problem
                  ? ("Helix " + std::to_string(helix_len) + " bp").c_str()
                  : "ribo30S (~900 pseudo-atoms, ~6500 constraints)",
              spec.machine.name.c_str(), spec.machine.processors,
              spec.machine.layout == simarch::MemoryLayout::kDistributed
                  ? "distributed (CC-NUMA)"
                  : "centralized (bus)");

  // One plan, compiled once (one cycle, batch 16 — as the paper times);
  // run_speedup_study reschedules it per processor count.
  core::HierSolveOptions opts;
  engine::Plan plan = spec.helix_problem ? make_helix_plan(helix, 1, opts)
                                         : make_ribo_plan(ribo, 1, opts);
  const linalg::Vector& initial =
      spec.helix_problem ? helix.initial : ribo.initial;
  const engine::SpeedupStudy study = engine::run_speedup_study(
      plan, initial, spec.machine, spec.proc_counts);
  std::printf("%s", engine::format_speedup_table(study).c_str());
  std::printf("(simulated work time in seconds on the %s machine model; "
              "categories are max-over-processors)\n",
              spec.machine.name.c_str());
  std::printf("%s\n", spec.paper_note.c_str());
  return 0;
}

int parse_output_args(int argc, char** argv, const std::string& default_out,
                      std::string* out) {
  const char* slash = std::strrchr(argv[0], '/');
  const char* name = slash != nullptr ? slash + 1 : argv[0];
  const auto usage = [&](std::FILE* stream) {
    std::fprintf(stream,
                 "usage: %s [--help] [OUT.json]\n"
                 "  Runs the benchmark and writes its JSON document to "
                 "OUT.json\n"
                 "  (default: $PHMSE_BENCH_OUT, else %s).\n"
                 "  Environment: PHMSE_BENCH_SCALE (< 0.5 = smoke run), "
                 "PHMSE_BENCH_SEED.\n",
                 name, default_out.c_str());
  };
  *out = env_string("PHMSE_BENCH_OUT", default_out);
  bool have_path = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg.starts_with("-") || have_path) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", name,
                   arg.c_str());
      usage(stderr);
      return 2;
    }
    *out = arg;
    have_path = true;
  }
  return -1;
}

double time_best(const std::function<void()>& fn, int min_reps,
                 int* reps_out) {
  // One warm-up rep also sizes the adaptive rep count.
  Stopwatch warm;
  fn();
  const double first = warm.seconds();
  int reps = min_reps;
  if (first > 0.0) {
    const double target_total = 0.1;  // ~100 ms of timed work per config
    reps = std::clamp(static_cast<int>(target_total / first) + 1, min_reps,
                      128);
  }
  // Minimum over reps, not the median: the best rep approximates the
  // kernel's unloaded speed even when a co-tenant steals the machine for
  // stretches longer than a whole rep, which would drag the median.
  double best = first;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  if (reps_out != nullptr) *reps_out = reps;
  return best;
}

namespace {

// Minimal JSON string escaping (kernel/impl names are plain identifiers,
// but paths in error messages deserve correctness anyway).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch; break;
    }
  }
  return out;
}

}  // namespace

void write_kernel_bench_json(const std::string& path,
                             const std::vector<KernelBenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PHMSE_CHECK(f != nullptr,
              "write_kernel_bench_json: cannot open " + path);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"phmse-kernel-bench-v1\",\n");
  std::fprintf(f, "  \"bench_scale\": %.4g,\n", bench_scale());
  // Which backend free-function dispatch resolves to on this host, and the
  // microkernel set behind the simd rows (bench_check's speedup gate only
  // means something when a vector ISA was actually in play).
  std::fprintf(f, "  \"default_backend\": \"%s\",\n",
               json_escape(linalg::default_backend().name).c_str());
  std::fprintf(f, "  \"simd_isa\": \"%s\",\n",
               json_escape(linalg::find_backend("simd")->simd_isa).c_str());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelBenchRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"impl\": \"%s\", \"m\": %lld, "
        "\"n\": %lld, \"threads\": %d, \"reps\": %d, "
        "\"seconds\": %.6e, \"flops\": %.6e, \"bytes\": %.6e, "
        "\"gflops\": %.4f, \"gbytes_per_sec\": %.4f}%s\n",
        json_escape(r.kernel).c_str(), json_escape(r.impl).c_str(),
        static_cast<long long>(r.m), static_cast<long long>(r.n), r.threads,
        r.reps, r.seconds, r.flops, r.bytes, r.gflops(), r.gbytes_per_sec(),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  const bool ok = std::fclose(f) == 0;
  PHMSE_CHECK(ok, "write_kernel_bench_json: write failed for " + path);
}

void print_header(const std::string& table_id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("PHMSE reproduction — %s: %s\n", table_id.c_str(),
              title.c_str());
  std::printf("(Chen, Singh, Altman, \"Parallel Hierarchical Molecular "
              "Structure Estimation\", SC'96)\n");
  if (bench_scale() < 1.0) {
    std::printf("NOTE: PHMSE_BENCH_SCALE=%.2f — reduced configuration\n",
                bench_scale());
  }
  std::printf("================================================================\n");
}

}  // namespace phmse::bench
