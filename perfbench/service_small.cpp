// service-small: open loop into a phmse::Server with 3 workers.  One
// generator thread sends Poisson arrivals at a fixed ladder of offered
// rates; 4 tenants send anchored helices of 2, 3 and 4 base pairs (three
// plan fingerprints, in turn), every request with fresh observations and a
// fresh start.  A closed-loop phase that keeps the server saturated then
// measures its capacity.
//
// Each request is timed from its scheduled send to the moment its future
// is seen ready: the generator polls every outstanding future while it
// waits for the next send, so completions are not collected in order.
// Sampled responses are re-solved directly on a compiled plan afterwards
// and must match bitwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "service/server.hpp"

namespace perfbench {

using namespace phmse;

namespace {

constexpr int kWorkers = 3;
constexpr int kTenants = 4;
constexpr int kSizes = 3;  // 2, 3 and 4 base pairs
// Offered rates (requests per second).  Latency metrics come from the
// first rung, the reference, at which about one worker in six is busy, so
// a host that slows the solves adds little queueing; the ladder stops at
// the first failing rung.
constexpr double kLadder[] = {100, 200, 300, 400, 500};
constexpr double kReferenceRate = kLadder[0];
// Shares of the run: the reference rung, each other rung, the capacity
// phase.  The reference runs in one segment before each other rung and
// before the capacity phase, so that, like the in-server solve time, it
// samples the whole run and a few slow seconds of the host move it little.
constexpr double kReferenceShare = 0.6;
constexpr double kRungShare = 0.06;
constexpr double kCapacityShare = 0.16;
// A rung passes when its p99 latency stays under this limit and its
// backlog does not grow.
constexpr double kLimitMs = 50.0;
// Requests kept outstanding in the capacity phase, and sent at once per
// fingerprint in a cache warm-up round.
constexpr std::size_t kSaturation = 4 * kWorkers;
// Every kSampleEvery-th request is re-solved directly and compared.
constexpr long kSampleEvery = 32;

struct Sample {
  int size = 0;
  std::vector<double> observations;
  linalg::Vector start;
  linalg::Vector x;
};

// A request about to be sent.
struct Outgoing {
  long id;
  int size;
  std::string tenant;
  service::Request request;
};

// One sent request awaiting its response.
struct Sent {
  std::future<service::Response> future;
  Clock::time_point due, submitted;
  long id;
  int size;
  int span;  // request span, -1 when untraced
};

struct Rung {
  double rate = 0;  // offered requests per second; 0 for the capacity phase
  std::vector<double> latency_ms, queue_ms, overhead_ms, submit_us, late_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<long> backlog;  // outstanding requests at each send
  // Appends the samples of another segment of the same rate.
  void absorb(const Rung& other) {
    const auto add = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    add(latency_ms, other.latency_ms);
    add(queue_ms, other.queue_ms);
    add(overhead_ms, other.overhead_ms);
    add(submit_us, other.submit_us);
    add(late_ms, other.late_ms);
    add(traced_ms, other.traced_ms);
    add(untraced_ms, other.untraced_ms);
    add(backlog, other.backlog);
  }
  bool passed() const {
    if (latency_ms.empty()) return false;
    // Growing backlog: the second half of the rung keeps clearly more
    // requests outstanding than the first.
    const std::size_t half = backlog.size() / 2;
    double first = 0, second = 0;
    for (std::size_t i = 0; i < backlog.size(); ++i) {
      (i < half ? first : second) += static_cast<double>(backlog[i]);
    }
    const bool growing =
        half > 0 && second / static_cast<double>(backlog.size() - half) >
                        1.5 * first / static_cast<double>(half) + kWorkers;
    return percentile(latency_ms, 0.99) <= kLimitMs && !growing;
  }
};

class ServiceBench {
 public:
  ServiceBench(const Options& options, Report& report, Tracer& tracer)
      : options_(options), report_(report), tracer_(tracer),
        rng_(options.seed) {
    copts_.solve.max_cycles = 1;
    copts_.solve.prior_sigma = 0.5;
    for (int s = 0; s < kSizes; ++s) {
      mols_.push_back(make_anchored_helix(2 + s));
      problems_.push_back(mols_.back().problem());
    }
  }

  void run();

 private:
  service::Request make_request(int size, std::vector<double> z,
                                linalg::Vector start) const {
    service::Request r;
    r.problem = problems_[static_cast<std::size_t>(size)];
    r.compile = copts_;
    r.observations = std::move(z);
    r.initial = std::move(start);
    return r;
  }
  std::unique_ptr<service::Server> start_server(double* setup_s);
  void send(service::Server& server, Clock::time_point due, Outgoing out,
            Rung& rung, std::vector<Sent>& pending);
  void collect(std::vector<Sent>& pending, Rung& rung);
  void drain(std::vector<Sent>& pending, Rung& rung);
  // The next request of the stream: sizes in turn, seeded tenant and values.
  Outgoing next_request();
  Rung run_rung(service::Server& server, double rate, double seconds);
  double run_capacity(service::Server& server, double seconds);
  void verify_samples();

  const Options& options_;
  Report& report_;
  Tracer& tracer_;
  Rng rng_;
  engine::CompileOptions copts_;
  std::vector<Molecule> mols_;
  std::vector<engine::Problem> problems_;
  std::vector<Sample> samples_;
  std::vector<double> rmsd_;
  std::vector<double> solve_ms_;  // Response.seconds of every request
  long next_id_ = 0;
  long reused_ = 0;
  long executed_ = 0;
};

// Starts a server and warms its plan cache: rounds of kSaturation
// concurrent requests of one fingerprint, so that every worker takes one
// even when the host delays some of them, until the cache holds an idle
// compiled instance of every fingerprint for every worker.  Set-up ends at
// the last verified warm-up answer.
std::unique_ptr<service::Server> ServiceBench::start_server(double* setup_s) {
  constexpr std::size_t kInstances = kWorkers * kSizes;
  constexpr std::size_t kMaxRounds = 30;
  service::ServerOptions sopts;
  sopts.workers = kWorkers;
  sopts.plan_cache_capacity = kInstances;
  sopts.max_pending = 1 << 16;
  sopts.max_pending_per_tenant = 1 << 16;
  std::vector<std::vector<double>> z;
  std::vector<linalg::Vector> starts;
  for (std::size_t i = 0; i < kMaxRounds * kSaturation; ++i) {
    const Molecule& mol = mols_[i / kSaturation % kSizes];
    z.push_back(mol.draw_observations(rng_));
    starts.push_back(mol.perturbed_start(rng_, 0.3));
  }
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<service::Server>(sopts);
  for (std::size_t i = 0; server->stats().cache.idle_instances < kInstances;) {
    if (i == z.size()) throw Error("plan cache warm-up did not converge");
    const int size = static_cast<int>(i / kSaturation % kSizes);
    std::vector<std::future<service::Response>> warm;
    for (std::size_t w = 0; w < kSaturation; ++w, ++i) {
      report_.attempt();
      warm.push_back(server->submit(
          "warm-up",
          make_request(size, std::move(z[i]), std::move(starts[i]))));
    }
    for (auto& f : warm) {
      const service::Response r = f.get();
      report_.check(all_finite(r.x), "warm-up response not finite");
    }
  }
  *setup_s = seconds_between(t0, Clock::now());
  return server;
}

Outgoing ServiceBench::next_request() {
  const long id = next_id_++;
  const int size = static_cast<int>(id % kSizes);
  std::string tenant =
      "tenant-" + std::to_string(rng_.uniform_int(0, kTenants - 1));
  const Molecule& mol = mols_[static_cast<std::size_t>(size)];
  std::vector<double> z = mol.draw_observations(rng_);
  linalg::Vector start = mol.perturbed_start(rng_, 0.3);
  if (id % kSampleEvery == 0) samples_.push_back({size, z, start, {}});
  return {id, size, std::move(tenant),
          make_request(size, std::move(z), std::move(start))};
}

void ServiceBench::send(service::Server& server, Clock::time_point due,
                        Outgoing out, Rung& rung, std::vector<Sent>& pending) {
  tracer_.set_enabled(options_.trace && out.id % 2 == 0);
  const Clock::time_point submitted = Clock::now();
  report_.attempt();
  try {
    std::future<service::Response> f =
        server.submit(out.tenant, std::move(out.request));
    const Clock::time_point after = Clock::now();
    const int span = tracer_.add("service.request", due, after, -1, out.id);
    tracer_.add("gen.late", due, submitted, span, out.id);
    tracer_.add("service.submit", submitted, after, span, out.id);
    rung.submit_us.push_back(1e6 * seconds_between(submitted, after));
    rung.late_ms.push_back(1e3 * seconds_between(due, submitted));
    pending.push_back({std::move(f), due, submitted, out.id, out.size, span});
  } catch (const std::exception& e) {
    report_.fail(std::string("request rejected: ") + e.what());
  }
  tracer_.set_enabled(false);
  rung.backlog.push_back(static_cast<long>(pending.size()));
}

// Collects every ready future; the completion time is the poll that saw it
// ready.
void ServiceBench::collect(std::vector<Sent>& pending, Rung& rung) {
  for (std::size_t i = 0; i < pending.size();) {
    Sent& p = pending[i];
    if (p.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    const Clock::time_point seen = Clock::now();
    try {
      service::Response r = p.future.get();
      const Clock::time_point queued =
          p.submitted + to_duration(r.queue_seconds);
      const Clock::time_point solved = queued + to_duration(r.seconds);
      const double latency = seconds_between(p.due, seen);
      // Request time = generator lateness + queue + solve + overhead; the
      // overhead is what remains and can never be negative.
      const double overhead = seconds_between(solved, seen);
      report_.check(overhead >= -1e-6, "request time below queue + solve");
      report_.check(all_finite(r.x), "service response not finite");
      rung.latency_ms.push_back(1e3 * latency);
      rung.queue_ms.push_back(1e3 * r.queue_seconds);
      solve_ms_.push_back(1e3 * r.seconds);
      rung.overhead_ms.push_back(1e3 * overhead);
      (p.span >= 0 ? rung.traced_ms : rung.untraced_ms)
          .push_back(1e3 * latency);
      rmsd_.push_back(mols_[static_cast<std::size_t>(p.size)].rmsd(r.x));
      if (p.span >= 0) {
        tracer_.add("service.queue", p.submitted, queued, p.span, p.id);
        tracer_.add("service.solve", queued, solved, p.span, p.id);
        tracer_.end_at(p.span, seen);
      }
      reused_ += r.report.nodes_reused;
      executed_ += r.report.nodes_reused + r.report.nodes_recomputed;
      if (p.id % kSampleEvery == 0) {
        samples_[static_cast<std::size_t>(p.id / kSampleEvery)].x =
            std::move(r.x);
      }
    } catch (const std::exception& e) {
      report_.fail(std::string("request failed: ") + e.what());
    }
    pending[i] = std::move(pending.back());
    pending.pop_back();
  }
}

void ServiceBench::drain(std::vector<Sent>& pending, Rung& rung) {
  while (!pending.empty()) {
    collect(pending, rung);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Rung ServiceBench::run_rung(service::Server& server, double rate,
                            double seconds) {
  Rung rung;
  rung.rate = rate;
  std::vector<Sent> pending;
  const Clock::time_point rung_start = Clock::now();
  const Clock::time_point rung_end = rung_start + to_duration(seconds);
  Clock::time_point due = rung_start;
  for (;;) {
    due += to_duration(-std::log(1.0 - rng_.uniform()) / rate);
    if (due >= rung_end) break;
    Outgoing out = next_request();  // built before it is due
    while (Clock::now() < due) {
      collect(pending, rung);
      const Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            due - now, std::chrono::microseconds(100)));
      }
    }
    send(server, due, std::move(out), rung, pending);
  }
  drain(pending, rung);
  std::fprintf(stderr,
               "perfbench: rung %4.0f/s: %zu done, p50 %.2f ms, p99 %.2f ms, "
               "backlog max %ld: %s\n",
               rate, rung.latency_ms.size(), percentile(rung.latency_ms, 0.5),
               percentile(rung.latency_ms, 0.99),
               rung.backlog.empty() ? 0L
                                    : *std::max_element(rung.backlog.begin(),
                                                        rung.backlog.end()),
               rung.passed() ? "pass" : "fail");
  return rung;
}

// Closed loop: keeps kSaturation requests outstanding, so the workers never
// idle.  Returns the median completion rate over half-second windows, which
// a short stall of the host moves less than the overall mean.
double ServiceBench::run_capacity(service::Server& server, double seconds) {
  constexpr double kWindowSeconds = 0.5;
  Rung rung;
  std::vector<Sent> pending;
  std::vector<double> window_rates;
  const Clock::time_point end = Clock::now() + to_duration(seconds);
  Clock::time_point window_start = Clock::now();
  std::size_t window_done = 0;
  for (Clock::time_point now = window_start; now < end; now = Clock::now()) {
    while (pending.size() < kSaturation) {
      Outgoing out = next_request();
      send(server, Clock::now(), std::move(out), rung, pending);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    collect(pending, rung);
    const double elapsed = seconds_between(window_start, Clock::now());
    if (elapsed >= kWindowSeconds) {
      window_rates.push_back(
          static_cast<double>(rung.latency_ms.size() - window_done) / elapsed);
      window_start = Clock::now();
      window_done = rung.latency_ms.size();
    }
  }
  drain(pending, rung);
  return median(window_rates);
}

// Re-solves every sampled request on a directly compiled plan; the service
// answer must be bitwise identical.  The direct solves also give the
// engine and estimation layer figures.
void ServiceBench::verify_samples() {
  std::vector<engine::Plan> plans;
  std::vector<double> compile_ms, first_ms, rebind_us, walls;
  std::vector<perf::Profile> breakdowns;
  std::vector<std::vector<double>> kernel_ms(kSizes);
  for (int s = 0; s < kSizes; ++s) {
    const Clock::time_point t0 = Clock::now();
    plans.push_back(Engine::compile(problems_[static_cast<std::size_t>(s)],
                                    copts_));
    compile_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  std::vector<bool> fresh(kSizes, true);
  for (const Sample& sample : samples_) {
    if (sample.x.empty()) continue;  // request failed; already counted
    const auto size = static_cast<std::size_t>(sample.size);
    engine::Plan& plan = plans[size];
    const Clock::time_point t0 = Clock::now();
    plan.set_observations(sample.observations);
    const Clock::time_point t1 = Clock::now();
    const engine::Result r = plan.solve(sample.start);
    const double wall = seconds_between(t1, Clock::now());
    report_.check(same_bits(r.posterior().x, sample.x),
                  "service response differs from a direct solve");
    if (fresh[size]) {
      // The first solve on a fresh plan is set-up, not steady state.
      fresh[size] = false;
      first_ms.push_back(1e3 * wall);
      continue;
    }
    rebind_us.push_back(1e6 * seconds_between(t0, t1));
    walls.push_back(wall);
    breakdowns.push_back(r.breakdown);
    kernel_ms[size].push_back(kernel_category_ms(r.breakdown));
  }
  if (!options_.trace) return;
  report_.set("engine.compile_ms", median(compile_ms));
  report_.set("engine.first_solve_ms", median(first_ms));
  report_.set("engine.rebind_us", median(rebind_us));
  report_update(breakdowns, "update.", report_);
  report_unattributed(breakdowns, walls, report_);
  report_core(plans.back(), report_);
  // The replay runs one solve's kernels for each size; compare it with the
  // median direct solve of each size.
  std::vector<ReplayTally> tallies;
  double category_ms = 0.0;
  for (int s = 0; s < kSizes; ++s) {
    replay_kernels(plans[static_cast<std::size_t>(s)],
                   mols_[static_cast<std::size_t>(s)], tallies);
    category_ms += median(kernel_ms[static_cast<std::size_t>(s)]);
  }
  report_kernels(tallies, category_ms, report_);
}

void ServiceBench::run() {
  std::vector<double> setup_s;
  std::unique_ptr<service::Server> server;
  for (int i = 0; i < 9; ++i) {
    server.reset();
    double s = 0;
    server = start_server(&s);
    setup_s.push_back(s);
  }
  const service::ServerStats before = server->stats();

  constexpr std::size_t kSegments = std::size(kLadder);
  const double seconds = options_.seconds;
  Rung ref;
  ref.rate = kReferenceRate;
  std::vector<Rung> ladder;  // the other rungs, up to the first failing one
  for (std::size_t i = 0; i < kSegments; ++i) {
    ref.absorb(run_rung(*server, kReferenceRate,
                        kReferenceShare * seconds / kSegments));
    if (i + 1 < kSegments && (ladder.empty() || ladder.back().passed())) {
      ladder.push_back(run_rung(*server, kLadder[i + 1], kRungShare * seconds));
    }
  }
  const double capacity = run_capacity(*server, kCapacityShare * seconds);
  server->drain();
  const service::ServerStats after = server->stats();
  server.reset();

  long backlog_max = 0;
  ladder.insert(ladder.begin(), ref);
  for (const Rung& r : ladder) {
    for (const long b : r.backlog) backlog_max = std::max(backlog_max, b);
  }
  // The highest rate of the unbroken run of passing rungs from the bottom.
  double max_rate = 0;
  for (const Rung& r : ladder) {
    if (!r.passed()) break;
    max_rate = r.rate;
  }

  report_.set("setup_s", median(setup_s));
  report_.set("op_ms_p50", percentile(ref.latency_ms, 0.5));
  report_.set("op2_ms_p50", percentile(solve_ms_, 0.5));
  report_.set("loop.op_ms_p90", percentile(ref.latency_ms, 0.9));
  report_.set("loop.op2_ms_p90", percentile(solve_ms_, 0.9));
  report_.set("loop.rate_per_s", capacity);
  report_.set("rmsd_A", mean(rmsd_));
  verify_samples();
  if (!options_.trace) return;

  const long hits = after.cache.hits - before.cache.hits;
  const long misses = after.cache.misses - before.cache.misses;
  report_.not_exercised("update.p4.");
  report_.not_exercised("parallel.");
  report_.not_exercised("refine.");
  report_.set("service.req_ms_p99", percentile(ref.latency_ms, 0.99));
  report_.set("service.max_rate_rps", max_rate);
  report_.set("service.queue_ms_p50", percentile(ref.queue_ms, 0.5));
  report_.set("service.queue_ms_p99", percentile(ref.queue_ms, 0.99));
  report_.set("service.overhead_ms_p50", percentile(ref.overhead_ms, 0.5));
  report_.set("service.overhead_ms_p99", percentile(ref.overhead_ms, 0.99));
  report_.set("service.submit_us_p99", percentile(ref.submit_us, 0.99));
  report_.set("service.cache_hit_ratio",
              static_cast<double>(hits) / static_cast<double>(hits + misses));
  report_.set("service.backlog_max", static_cast<double>(backlog_max));
  report_.set("service.failed", static_cast<double>(after.failed - before.failed));
  report_.set("service.rejected",
              static_cast<double>(after.rejected - before.rejected));
  report_.set("service.expired",
              static_cast<double>(after.expired - before.expired));
  report_.set("gen.late_ms_p99", percentile(ref.late_ms, 0.99));
  report_.set("gen.late_ms_max", percentile(ref.late_ms, 1.0));
  report_.set("engine.nodes_reused_ratio",
              static_cast<double>(reused_) / static_cast<double>(executed_));
  report_.set("trace.overhead_share",
              median(ref.traced_ms) / median(ref.untraced_ms) - 1.0);
}

}  // namespace

void run_service_small(const Options& options, Report& report,
                       Tracer& tracer) {
  ServiceBench(options, report, tracer).run();
}

}  // namespace perfbench
