// Shared pieces of the repository benchmark (see perfbench/README.md).
//
// The benchmark drives the library only through its public API, from these
// files: workloads build seeded inputs, time the calls they make into each
// module (service, engine, refine, core, estimation, linalg), check the
// outputs, and print one JSON result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraints/set.hpp"
#include "core/hierarchy.hpp"
#include "engine/engine.hpp"
#include "linalg/matrix.hpp"
#include "molecule/topology.hpp"
#include "perf/profile.hpp"
#include "support/rng.hpp"

namespace perfbench {

using phmse::Index;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples;
/// 0 for an empty sample.
double percentile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// Spans kept in memory during a traced run and written when it ends.
/// Single-threaded: only the benchmark's driving thread records.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), -1 for a root span
    long request;  // request / operation id, -1 when none
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its id, or -1 when it is not recorded.  A span
  /// is recorded while tracing is on, and always under a recorded parent.
  int begin(const char* name, int parent = -1, long request = -1);
  void end(int id) { end_at(id, Clock::now()); }
  void end_at(int id, Clock::time_point t);
  /// Records a span whose bounds were taken elsewhere (for example the
  /// queue interval a service response reports).
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1, long request = -1);

  std::size_t size() const { return spans_.size(); }
  /// Writes {"spans": [...]} to `path`; false if the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t ns_(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = -1,
             long request = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Outcome of one run: operation counts, failed checks and metrics.
class Report {
 public:
  /// Counts one attempted operation.
  void attempt() { ++attempted_; }
  /// Counts a failed operation (error, rejection, expiry or a failed output
  /// check) and records why.
  void fail(const std::string& why);
  /// Records `why` as a failure unless `ok`.
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  void set(const std::string& name, double value);
  /// Marks every per-layer metric whose name starts with `prefix` as not
  /// exercised by this workload: it prints as 0.
  void not_exercised(const std::string& prefix);

  long attempted() const { return attempted_; }
  /// Failed operations; an operation that fails two checks counts once.
  long failed() const { return std::min(failed_, attempted_); }

  /// Prints the result line for the metric list of `trace`; returns false
  /// (after printing a diagnostic) if a listed metric was never set.
  bool print(bool trace) const;

 private:
  long attempted_ = 0;
  long failed_ = 0;
  long reported_failures_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::string> not_exercised_;
};

/// Names and units of the printed metrics, in BENCHMARK.json order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// A molecule with its measurement model: ground truth, the constraints,
/// their noise-free values, and the decomposition recipe.
struct Molecule {
  std::shared_ptr<const phmse::mol::Topology> topology;
  phmse::cons::ConstraintSet constraints;
  std::function<phmse::core::Hierarchy()> decompose;
  std::string recipe;
  /// h(truth) and sqrt(variance) per constraint, in constraint order.
  std::vector<double> truth_value;
  std::vector<double> sigma;

  Index num_atoms() const { return topology->size(); }
  phmse::engine::Problem problem() const;
  /// One fresh observation vector: truth plus N(0, sigma) per constraint.
  std::vector<double> draw_observations(phmse::Rng& rng) const;
  /// Truth plus N(0, sigma_a) per coordinate.
  phmse::linalg::Vector perturbed_start(phmse::Rng& rng,
                                        double sigma_a) const;
  double rmsd(const phmse::linalg::Vector& x) const {
    return topology->rmsd_to_truth(x);
  }
};

/// The paper's synthetic 30S ribosome (Fig.-4 hierarchy).
Molecule make_ribo30s();
/// An anchored RNA double helix of `base_pairs` (Fig.-2 hierarchy).
Molecule make_anchored_helix(Index base_pairs);

bool all_finite(const phmse::linalg::Vector& x);
bool same_bits(const phmse::linalg::Vector& a, const phmse::linalg::Vector& b);
bool same_bits(const phmse::linalg::Matrix& a, const phmse::linalg::Matrix& b);

/// Milliseconds a breakdown spent in category `c`.
double category_ms(const phmse::perf::Profile& p, phmse::perf::Category c);

// --- Per-layer probes (layers.cpp) ----------------------------------------

/// core.*: shape and Eq.-1 balance of the plan's hierarchy.  The plan is
/// rescheduled to 4 processors for the imbalance figure and restored.
void report_core(phmse::engine::Plan& plan, Report& report);

/// update.* (median per category, and the m-v share) from solve
/// breakdowns.  `prefix` is "update." (serial) or "update.p4.".
void report_update(const std::vector<phmse::perf::Profile>& breakdowns,
                   const std::string& prefix, Report& report);
/// engine.unattributed_share from serial solve breakdowns and their wall
/// times (seconds), checking that the categories never exceed the wall.
void report_unattributed(const std::vector<phmse::perf::Profile>& breakdowns,
                         const std::vector<double>& walls, Report& report);

/// Kernel time of one replay, per kernel, summed over the given plans.
struct ReplayTally {
  long calls = 0;
  double seconds = 0.0;
  double flops = 0.0;  // from the kernels' own cost functions
  double bytes = 0.0;  // computed from array sizes, not measured
};
/// Replays the update kernels at every node's shape and batch split of
/// `plan` (3 x atoms for n, one call set per batch of the node's
/// constraints) and adds the tallies to `tallies` (indexed like
/// kReplayKernels).
void replay_kernels(const phmse::engine::Plan& plan, const Molecule& mol,
                    std::vector<ReplayTally>& tallies);
/// Names of the replayed kernels, in tally order.
extern const char* const kReplayKernels[6];

/// linalg.* and machine.* from a replay and a bandwidth probe.
/// `category_ms_sum` is the d-s + m-m + chol + sys + m-v time (ms) of the
/// solves the replay mirrors, for linalg.replay_coverage.
void report_kernels(const std::vector<ReplayTally>& tallies,
                    double category_ms_sum, Report& report);
/// The d-s + m-m + chol + sys + m-v milliseconds of one breakdown: the
/// categories the replayed kernels belong to.
double kernel_category_ms(const phmse::perf::Profile& p);

// --- Workloads --------------------------------------------------------------

void run_ribo30s(const Options& options, Report& report, Tracer& tracer);
void run_service_small(const Options& options, Report& report,
                       Tracer& tracer);
void run_helix8_session(const Options& options, Report& report,
                        Tracer& tracer);

}  // namespace perfbench
