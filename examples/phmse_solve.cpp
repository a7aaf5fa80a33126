// phmse_solve: the command-line face of the library.
//
// Reads an initial structure (XYZ) and a measurement file (see
// src/constraints/io.hpp), estimates the structure, and writes the refined
// XYZ plus an uncertainty report.
//
// Usage:
//   phmse_solve <structure.xyz> <constraints.txt> [options]
//     --out FILE      refined structure output (default: refined.xyz)
//     --cycles N      maximum cycles (default 30)
//     --tol T         convergence tolerance in A RMS (default 0.01)
//     --prior S       prior/damping sigma in A (default 1.0)
//     --batch M       constraint batch dimension (default 16)
//     --threads T     worker threads (default: hardware)
//     --flat          disable the hierarchical decomposition
//     --leaf N        target leaf size for auto-decomposition (default 16)
//
// Without --flat, the molecule is decomposed automatically by partitioning
// the constraint graph (paper Section 5), scheduled across the threads
// (Section 4.3), and solved hierarchically.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "constraints/io.hpp"
#include "core/graph_partition.hpp"
#include "engine/engine.hpp"
#include "estimation/analysis.hpp"
#include "estimation/residuals.hpp"
#include "molecule/xyz_io.hpp"
#include "support/stopwatch.hpp"

using namespace phmse;

namespace {

struct Options {
  std::string structure;
  std::string constraints;
  std::string out = "refined.xyz";
  int cycles = 30;
  double tol = 0.01;
  double prior = 1.0;
  Index batch = 16;
  int threads = 0;
  bool flat = false;
  Index leaf = 16;
};

int usage() {
  std::fprintf(stderr,
               "usage: phmse_solve <structure.xyz> <constraints.txt> "
               "[--out FILE] [--cycles N]\n"
               "                   [--tol T] [--prior S] [--batch M] "
               "[--threads T] [--flat] [--leaf N]\n");
  return 2;
}

// Strict numeric flag values: the whole argument must be one number (no
// trailing text, no overflow), and a real must be finite.  Ranges (batch
// >= 1, prior > 0, ...) are checked by Engine::compile, whose errors name
// the option.
bool parse_integer(const char* flag, const char* v, long& out) {
  errno = 0;
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || x < INT_MIN ||
      x > INT_MAX) {
    std::fprintf(stderr, "invalid value for %s: '%s' (need an integer)\n",
                 flag, v);
    return false;
  }
  out = x;
  return true;
}

bool parse_real(const char* flag, const char* v, double& out) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(x)) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (need a finite number)\n", flag,
                 v);
    return false;
  }
  out = x;
  return true;
}

bool parse_args(int argc, char** argv, Options& o) {
  if (argc < 3) return false;
  o.structure = argv[1];
  o.constraints = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--flat") {
      o.flat = true;
    } else if (a == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      o.out = v;
    } else if (a == "--cycles") {
      const char* v = next("--cycles");
      long x = 0;
      if (v == nullptr || !parse_integer("--cycles", v, x)) return false;
      o.cycles = static_cast<int>(x);
    } else if (a == "--tol") {
      const char* v = next("--tol");
      if (v == nullptr || !parse_real("--tol", v, o.tol)) return false;
    } else if (a == "--prior") {
      const char* v = next("--prior");
      if (v == nullptr || !parse_real("--prior", v, o.prior)) return false;
    } else if (a == "--batch") {
      const char* v = next("--batch");
      long x = 0;
      if (v == nullptr || !parse_integer("--batch", v, x)) return false;
      o.batch = static_cast<Index>(x);
    } else if (a == "--threads") {
      const char* v = next("--threads");
      long x = 0;
      if (v == nullptr || !parse_integer("--threads", v, x)) return false;
      o.threads = static_cast<int>(x);
    } else if (a == "--leaf") {
      const char* v = next("--leaf");
      long x = 0;
      if (v == nullptr || !parse_integer("--leaf", v, x)) return false;
      o.leaf = static_cast<Index>(x);
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();

  try {
    std::ifstream sf(opt.structure);
    PHMSE_CHECK(sf.good(), "cannot open structure file: " + opt.structure);
    const mol::Topology topo = mol::read_xyz(sf);
    const cons::ConstraintSet data =
        cons::read_constraints_file(opt.constraints, topo.size());
    std::printf("structure: %lld atoms; data: %lld constraints\n",
                static_cast<long long>(topo.size()),
                static_cast<long long>(data.size()));

    const linalg::Vector x0 = topo.true_state();  // file positions = start
    est::NodeState result;
    int cycles = 0;
    bool converged = false;
    Stopwatch sw;

    engine::CompileOptions copts;
    copts.solve.batch_size = opt.batch;
    copts.solve.max_cycles = opt.cycles;
    copts.solve.tolerance = opt.tol;
    copts.solve.prior_sigma = opt.prior;

    if (opt.flat) {
      engine::Plan plan =
          Engine::compile(engine::Problem::flat(topo.size(), data), copts);
      const engine::Result r = plan.solve(x0);
      cycles = r.cycles;
      converged = r.converged;
      result = r.posterior();
    } else {
      // Decompose by partitioning the constraint graph; the constraints
      // and the state are remapped into partition order, so the engine
      // sees the REMAPPED problem and the answer is mapped back below.
      core::GraphPartitionOptions gpo;
      gpo.max_leaf_atoms = opt.leaf;
      core::Decomposition d =
          core::decompose_by_graph_partition(topo.size(), data, gpo);
      const cons::ConstraintSet remapped =
          core::remap_constraints(data, d.rank);

      const int threads =
          opt.threads > 0
              ? opt.threads
              : static_cast<int>(
                    std::max(1u, std::thread::hardware_concurrency()));
      engine::Problem problem = engine::Problem::custom(
          topo.size(), remapped, [&topo, &data, &gpo] {
            return core::decompose_by_graph_partition(topo.size(), data, gpo)
                .hierarchy;
          });
      copts.processors = threads;
      engine::Plan plan = Engine::compile(problem, copts);
      std::printf("decomposition: %lld nodes, depth %lld, %d thread(s)\n",
                  static_cast<long long>(plan.hierarchy().num_nodes()),
                  static_cast<long long>(plan.hierarchy().depth()), threads);

      par::ThreadPool pool(threads);
      const engine::Result r =
          plan.solve(pool, core::remap_state(x0, d.order));
      cycles = r.cycles;
      converged = r.converged;

      // Back to the input atom order (covariance diagonal blocks follow).
      const est::NodeState& solved = r.posterior();
      result.atom_begin = 0;
      result.atom_end = topo.size();
      result.x = core::unmap_state(solved.x, d.order);
      result.c.resize_zero(3 * topo.size(), 3 * topo.size());
      for (Index new_a = 0; new_a < topo.size(); ++new_a) {
        const Index old_a = d.order[static_cast<std::size_t>(new_a)];
        for (Index new_b = 0; new_b < topo.size(); ++new_b) {
          const Index old_b = d.order[static_cast<std::size_t>(new_b)];
          for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j) {
              result.c(3 * old_a + i, 3 * old_b + j) =
                  solved.c(3 * new_a + i, 3 * new_b + j);
            }
          }
        }
      }
    }

    std::printf("solved in %.2f s, %d cycle(s), converged: %s\n",
                sw.seconds(), cycles, converged ? "yes" : "no");
    std::printf("RMS residual at solution: %.4f\n",
                cons::rms_residual(data, topo, result.x));

    std::ofstream of(opt.out);
    PHMSE_CHECK(of.good(), "cannot open output file: " + opt.out);
    mol::write_xyz(of, topo, result.x, "refined by phmse_solve");
    std::printf("wrote %s\n\n", opt.out.c_str());
    std::printf("%s\n", est::uncertainty_report(result, topo, 5).c_str());
    std::printf("%s", est::residual_report(result, data, 5).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
