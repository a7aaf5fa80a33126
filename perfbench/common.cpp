#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "constraints/helix_gen.hpp"
#include "constraints/ribo_gen.hpp"
#include "molecule/ribo30s.hpp"
#include "molecule/rna_helix.hpp"

namespace perfbench {

using namespace phmse;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// --- Tracer ----------------------------------------------------------------

int Tracer::begin(const char* name, int parent, long request) {
  const Clock::time_point now = Clock::now();
  return add(name, now, now, parent, request);
}

void Tracer::end_at(int id, Clock::time_point t) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns_(t);
}

int Tracer::add(const char* name, Clock::time_point start,
                Clock::time_point end, int parent, long request) {
  if (!enabled_ && parent < 0) return -1;
  spans_.push_back({name, ns_(start), ns_(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %ld}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Report ----------------------------------------------------------------

void Report::fail(const std::string& why) {
  ++failed_;
  // Cap the log: one broken invariant can fail every operation of a run.
  if (++reported_failures_ <= 20) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::not_exercised(const std::string& prefix) {
  not_exercised_.push_back(prefix);
}

bool Report::print(bool trace) const {
  const std::vector<MetricSpec>& specs =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    const auto it = values_.find(spec.name);
    if (it != values_.end()) {
      value = it->second;
    } else {
      const bool skipped = std::any_of(
          not_exercised_.begin(), not_exercised_.end(),
          [&](const std::string& p) {
            return std::strncmp(spec.name, p.c_str(), p.size()) == 0;
          });
      if (!skipped) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     spec.name);
        return false;
      }
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", spec.name);
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  const bool correct = failed() == 0 && attempted_ > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted_, failed(), metrics.c_str());
  std::fflush(stdout);
  return true;
}

// --- Metric lists (must match BENCHMARK.json; run.py checks) ---------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},   {"op_ms_p50", "ms"}, {"op2_ms_p50", "ms"},
      {"rmsd_A", "A"},    {"ok_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"loop.op_ms_p90", "ms"},
        {"loop.op2_ms_p90", "ms"},
        {"loop.rate_per_s", "1/s"},
        {"service.req_ms_p99", "ms"},
        {"service.max_rate_rps", "1/s"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.overhead_ms_p50", "ms"},
        {"service.overhead_ms_p99", "ms"},
        {"service.submit_us_p99", "us"},
        {"service.cache_hit_ratio", "ratio"},
        {"service.backlog_max", "count"},
        {"service.failed", "count"},
        {"service.rejected", "count"},
        {"service.expired", "count"},
        {"gen.late_ms_p99", "ms"},
        {"gen.late_ms_max", "ms"},
        {"engine.compile_ms", "ms"},
        {"engine.first_solve_ms", "ms"},
        {"engine.rebind_us", "us"},
        {"engine.nodes_reused_ratio", "ratio"},
        {"engine.unattributed_share", "ratio"},
        {"update.ds_ms", "ms"},
        {"update.mm_ms", "ms"},
        {"update.chol_ms", "ms"},
        {"update.sys_ms", "ms"},
        {"update.mv_ms", "ms"},
        {"update.vec_ms", "ms"},
        {"update.other_ms", "ms"},
        {"update.mv_share", "ratio"},
        {"update.p4.ds_ms", "ms"},
        {"update.p4.mm_ms", "ms"},
        {"update.p4.chol_ms", "ms"},
        {"update.p4.sys_ms", "ms"},
        {"update.p4.mv_ms", "ms"},
        {"update.p4.vec_ms", "ms"},
        {"update.p4.other_ms", "ms"},
        {"update.p4.mv_share", "ratio"},
    };
    static const std::vector<std::string> names = [] {
      std::vector<std::string> n;
      for (const char* k : kReplayKernels) {
        for (const char* m : {"calls", "ms", "gflops", "flop_per_byte"}) {
          n.push_back(std::string("linalg.") + k + "." + m);
        }
      }
      return n;
    }();
    static const char* const units[] = {"count", "ms", "GFLOP/s", "flop/B"};
    for (std::size_t i = 0; i < names.size(); ++i) {
      s.push_back({names[i].c_str(), units[i % 4]});
    }
    const std::vector<MetricSpec> rest = {
        {"linalg.replay_coverage", "ratio"},
        {"linalg.covariance_downdate.bw_ratio", "ratio"},
        {"machine.stream_gbps", "GB/s"},
        {"machine.llc_mib", "MiB"},
        {"machine.stream_array_mib", "MiB"},
        {"core.nodes", "count"},
        {"core.depth", "count"},
        {"core.root_work_share", "ratio"},
        {"core.imbalance_p4", "ratio"},
        {"parallel.p4_ms_p50", "ms"},
        {"parallel.p4_ms_p90", "ms"},
        {"parallel.speedup_p4", "ratio"},
        {"parallel.busy_share_p4", "ratio"},
        {"parallel.speedup_p2", "ratio"},
        {"refine.iterations", "count"},
        {"refine.restarts", "count"},
        {"refine.iter_ms", "ms"},
        {"refine.monitor_ms", "ms"},
        {"trace.spans", "count"},
        {"trace.overhead_share", "ratio"},
        {"error_ratio", "ratio"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

// --- Molecules ---------------------------------------------------------------

engine::Problem Molecule::problem() const {
  return engine::Problem::custom(num_atoms(), constraints, decompose, recipe);
}

std::vector<double> Molecule::draw_observations(Rng& rng) const {
  std::vector<double> z(truth_value.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = truth_value[i] + rng.gaussian(0.0, sigma[i]);
  }
  return z;
}

linalg::Vector Molecule::perturbed_start(Rng& rng, double sigma_a) const {
  linalg::Vector x = topology->true_state();
  for (double& v : x) v += rng.gaussian(0.0, sigma_a);
  return x;
}

namespace {

// Fills the noise-free constraint values and sigmas from the ground truth.
void measure_truth(Molecule& m) {
  const auto& atoms = m.topology->atoms();
  m.truth_value.clear();
  m.sigma.clear();
  for (const cons::Constraint& c : m.constraints.all()) {
    std::array<mol::Vec3, 4> pos{};
    for (Index k = 0; k < cons::arity(c.kind); ++k) {
      pos[static_cast<std::size_t>(k)] =
          atoms[static_cast<std::size_t>(c.atoms[static_cast<std::size_t>(k)])]
              .position;
    }
    m.truth_value.push_back(cons::evaluate(c, pos));
    m.sigma.push_back(std::sqrt(c.variance));
  }
}

}  // namespace

Molecule make_ribo30s() {
  auto model = std::make_shared<const mol::Ribo30sModel>(mol::build_ribo30s());
  Molecule m;
  m.topology = std::shared_ptr<const mol::Topology>(model, &model->topology);
  m.constraints = cons::generate_ribo_constraints(*model);
  m.decompose = [model] { return core::build_ribo_hierarchy(*model); };
  m.recipe = "ribo30s";
  measure_truth(m);
  return m;
}

Molecule make_anchored_helix(Index base_pairs) {
  auto model =
      std::make_shared<const mol::HelixModel>(mol::build_helix(base_pairs));
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  Molecule m;
  m.topology = std::shared_ptr<const mol::Topology>(model, &model->topology);
  m.constraints = cons::generate_helix_constraints(*model, noise);
  m.decompose = [model] { return core::build_helix_hierarchy(*model); };
  m.recipe = "anchored-helix/" + std::to_string(base_pairs);
  measure_truth(m);
  return m;
}

bool all_finite(const linalg::Vector& x) {
  return std::all_of(x.begin(), x.end(),
                     [](double v) { return std::isfinite(v); });
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) *
                         sizeof(double)) == 0;
}

double category_ms(const perf::Profile& p, perf::Category c) {
  return 1e3 * p.time(c);
}

}  // namespace perfbench
