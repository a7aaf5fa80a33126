// phmse::Server — the multi-tenant solve service (DESIGN.md §10, §13).
//
// The paper's premise is compile-once / solve-many: plan compile is cheap
// and observation-independent, the solve is the steady-state cost.  At
// service scale many tenants submit molecules from the same structural
// family (same topology, same constraint structure, fresh measurements),
// so the Server puts an LRU plan cache in front of Engine::compile and
// batches the resulting independent solves across a ThreadPool:
//
//   * submissions are queued per tenant and dispatched round-robin across
//     tenants, so one tenant's backlog never starves another's single
//     request;
//   * admission is bounded (total and per tenant): past the bound submit()
//     throws AdmissionError instead of growing the queue without limit;
//   * each in-flight solve leases its own plan instance from the cache
//     (plans are single-flight), runs serially on one pool worker — cross-
//     problem parallelism, no worker ever blocks on another tenant's work
//     — and returns the warm instance for the next hit;
//   * shutdown either drains the queue or fails every queued-but-unstarted
//     submission with ShutdownError; a submission is never abandoned.
//
// End-to-end deadlines (DESIGN.md §13): a Request may carry a wall-clock
// budget measured from submit().  A queued request whose budget expires is
// shed — failed with engine::DeadlineError — before it ever occupies a
// worker (both at dispatch and by the watchdog thread between dispatches);
// an in-flight request runs under a CancelToken armed with the absolute
// deadline, which the executors poll at batch/node boundaries, and the
// watchdog additionally cancels it once over-deadline.  Transient solve
// failures retry with exponential backoff and jitter inside the request's
// remaining budget; per-tenant circuit breakers stop a persistently
// failing tenant from burning workers (closed → open after N consecutive
// failures → half-open probe → closed on success).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "refine/refiner.hpp"
#include "service/plan_cache.hpp"

namespace phmse::service {

/// Submission rejected by admission control (queue bound reached).
class AdmissionError : public Error {
 public:
  using Error::Error;
};

/// Submission rejected, or a queued solve failed, because the server is
/// shutting down.  Distinct from AdmissionError so callers can retry
/// elsewhere rather than back off.
class ShutdownError : public Error {
 public:
  using Error::Error;
};

/// Submission rejected because the tenant's circuit breaker is open (or a
/// half-open probe is already in flight).  Distinct from AdmissionError:
/// the queue has room, the tenant's recent history does not.
class CircuitOpenError : public Error {
 public:
  using Error::Error;
};

/// Per-tenant circuit-breaker state (DESIGN.md §13).
enum class BreakerState : int {
  kClosed = 0,  ///< normal admission
  kOpen,        ///< rejecting: threshold consecutive failures, cooling down
  kHalfOpen,    ///< cooldown elapsed: admitting one probe request
};

struct ServerOptions {
  /// Pool workers executing solves (>= 1).
  int workers = 2;
  /// Total idle plan instances the cache retains (see PlanCache).
  std::size_t plan_cache_capacity = 8;
  /// Admission bounds: queued-but-unstarted submissions, total and per
  /// tenant.  Both >= 1.
  std::size_t max_pending = 256;
  std::size_t max_pending_per_tenant = 64;
  /// Consecutive execute-side failures that trip a tenant's breaker open;
  /// 0 disables circuit breaking.  Queue shedding (deadline expiry before
  /// the solve starts, shutdown) never counts against the breaker.
  int breaker_failure_threshold = 5;
  /// Seconds an open breaker rejects before admitting a half-open probe.
  double breaker_cooldown_seconds = 0.5;
  /// Watchdog period: how often queued requests are checked for expired
  /// deadlines and over-deadline in-flight solves are cancelled.
  double watchdog_interval_seconds = 0.02;
  /// Outer-iteration ceiling for refined requests (DESIGN.md §14): a
  /// Request.refine.max_iterations above the tenant's cap is clamped (not
  /// rejected) at submit() — refinement multiplies solve cost by its
  /// iteration count, so the operator, not the tenant, bounds worker time.
  /// Must be >= 1.  single_pass requests are unaffected.
  int max_refine_iterations = 32;
  /// Per-tenant overrides of max_refine_iterations (each >= 1): lets an
  /// operator grant a heavy tenant more refinement headroom — or throttle
  /// one — without touching everyone else's ceiling.
  std::unordered_map<std::string, int> tenant_refine_iteration_caps;
};

/// One tenant submission: a problem (or a cached family member), compile
/// options, fresh observed values, and the initial estimate.
struct Request {
  engine::Problem problem;
  engine::CompileOptions compile;
  /// Observed values to bind before solving, one per problem constraint in
  /// order.  Empty = use the observed values already in problem.constraints.
  /// Every entry must be finite (submit() rejects NaN/inf up front).
  std::vector<double> observations;
  /// Initial full-molecule estimate (dimension 3 * num_atoms, finite).
  linalg::Vector initial;
  /// End-to-end wall-clock budget measured from submit(); <= 0 = unbounded.
  /// Covers queueing, retries and the solve itself: on expiry the future
  /// fails with engine::DeadlineError wherever the request happens to be.
  double deadline_seconds = 0.0;
  /// Transient-failure retries (regularized-retry exhaustion and similar
  /// recoverable solve errors) before the future fails; each retry backs
  /// off exponentially with jitter.  Deadline expiry, cancellation and
  /// shutdown never retry.
  int retry_budget = 0;
  /// First retry's backoff; doubles per retry, jittered in [0.5x, 1.5x).
  double retry_backoff_seconds = 0.01;
  /// Opt-in graceful degradation (engine::RunOptions::degrade_lowrank):
  /// when the remaining budget is too tight for the exact path, answer
  /// with the first-order low-rank root update when its preconditions
  /// hold; Response::report.low_rank marks a degraded answer.  Ignored by
  /// refined requests (every refine iteration is an exact solve).
  bool degrade_lowrank = false;
  /// Outer-loop refinement (DESIGN.md §14).  The default single_pass mode
  /// keeps today's incremental fast path; iterated/annealed requests run
  /// through a refine::Refiner on the leased plan.  max_iterations is
  /// clamped to the tenant's server-side cap at submit(); the refine
  /// deadline/cancel fields are overridden by the request's own end-to-end
  /// budget (set deadline_seconds on the Request, not here), under which a
  /// refined request degrades to its best iterate once one exists
  /// (Response::report.refine.deadline_degraded) instead of failing.
  /// Response::report.refine carries the per-iteration trajectory.
  refine::RefineOptions refine;
};

/// What a tenant gets back.  The posterior mean is copied out of the leased
/// plan (the plan returns to the cache when the solve finishes, so the
/// response cannot borrow from it).
struct Response {
  linalg::Vector x;  ///< posterior mean, dimension 3 * num_atoms
  int cycles = 0;
  bool converged = false;
  double seconds = 0.0;       ///< solve wall time (excludes queueing)
  double queue_seconds = 0.0; ///< submit() to solve start (queue latency)
  int attempts = 1;           ///< solve attempts (1 + retries consumed)
  bool cache_hit = false;     ///< plan came from the cache, not a compile
  core::SolveReport report;   ///< per-batch fault-tolerance diagnostics
};

struct ServerStats {
  long submitted = 0;
  long completed = 0;        ///< futures fulfilled with a Response
  long failed = 0;           ///< futures fulfilled with a solve error
  long rejected = 0;         ///< submit() refused (admission/shutdown/breaker)
  long shutdown_failed = 0;  ///< queued solves failed by shutdown(false)
  long expired = 0;          ///< queued solves shed by deadline expiry
  long retried = 0;          ///< transient-failure retry attempts performed
  long degraded = 0;         ///< responses answered by the low-rank rung
  long refined = 0;          ///< responses served through the refine loop
  long refine_degraded = 0;  ///< refined responses cut to best-so-far by deadline
  long breaker_rejected = 0; ///< submit() refusals due to an open breaker
  long breaker_trips = 0;    ///< closed/half-open -> open transitions
  std::size_t breaker_open = 0;  ///< tenants currently not closed
  std::size_t pending = 0;   ///< queued-but-unstarted right now
  PlanCache::Stats cache;
};

/// Multi-tenant solve service over one ThreadPool and one PlanCache.
class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Drains outstanding work (shutdown(true)).
  ~Server();

  /// Enqueues a solve for `tenant` and returns the future response.
  /// Validates the request synchronously (decompose recipe present,
  /// observation count and finiteness, initial-state dimension and
  /// finiteness, control parameters) and throws AdmissionError /
  /// ShutdownError / CircuitOpenError when the queue bound is hit, the
  /// server is stopping, or the tenant's breaker is open.  The future
  /// carries any error the solve itself raises.
  std::future<Response> submit(const std::string& tenant, Request request);

  /// Blocks until every queued and in-flight solve has completed.  New
  /// submissions remain accepted (this is a checkpoint, not a stop).
  void drain();

  /// Stops accepting submissions, then either completes the queue
  /// (`drain_queued` = true) or fails every queued-but-unstarted solve
  /// with ShutdownError (false; in-flight solves still complete).  Blocks
  /// until all work has settled and the pool has joined.  Idempotent;
  /// concurrent callers block until the first call finishes.
  void shutdown(bool drain_queued = true);

  ServerStats stats() const;

  /// The tenant's breaker state right now (cooldown expiry is reflected:
  /// an open breaker whose cooldown elapsed reads as half-open).  Tenants
  /// never seen, and all tenants when breaking is disabled, read closed.
  BreakerState breaker_state(const std::string& tenant) const;

  int workers() const { return options_.workers; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    std::promise<Response> promise;
    Request request;
    std::string tenant;
    Clock::time_point submitted{};
    Clock::time_point deadline_at{};
    bool has_deadline = false;
    bool probe = false;        ///< half-open probe: its outcome sets the breaker
    std::uint64_t seq = 0;     ///< submission ordinal (deterministic jitter)
  };

  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    Clock::time_point opened_at{};
    bool probe_in_flight = false;
  };

  void pump_(int worker);
  void execute_(Job& job);
  /// Spawns pump tasks while work is queued and workers are free; caller
  /// holds mutex_.  Failures to reach the pool fail the queued jobs with
  /// ShutdownError rather than leaving them stranded.
  void arm_pumps_();
  /// Fails `job` with DeadlineError without occupying a worker; caller
  /// holds mutex_.  Counts `expired` and releases a probe reservation.
  void shed_expired_(Job& job);
  /// Walks every tenant queue and sheds jobs whose deadline passed;
  /// caller holds mutex_.
  void shed_expired_queued_(Clock::time_point now);
  /// Records an execute-side outcome against the tenant's breaker; caller
  /// holds mutex_.  No-op when breaking is disabled.
  void record_outcome_(const Job& job, bool success);
  /// Sleeps ~`seconds` in short slices, aborting early when `token` stops
  /// or the server begins shutting down.  Returns false on early abort.
  bool backoff_sleep_(double seconds, const par::CancelToken* token) const;
  void watchdog_loop_();
  void stop_watchdog_();

  ServerOptions options_;
  PlanCache cache_;
  par::ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::unordered_map<std::string, std::deque<Job>> tenants_;
  std::deque<std::string> round_robin_;  // tenants with queued work, once each
  std::vector<int> free_workers_;
  std::unordered_map<std::string, Breaker> breakers_;
  /// In-flight deadline registry: seq -> the stack-local token execute_()
  /// is solving under, so the watchdog can cancel an over-deadline solve.
  std::unordered_map<std::uint64_t, par::CancelToken*> inflight_;
  std::size_t queued_ = 0;
  int active_pumps_ = 0;
  bool accepting_ = true;
  std::uint64_t next_seq_ = 0;

  long submitted_ = 0;
  long completed_ = 0;
  long failed_ = 0;
  long rejected_ = 0;
  long shutdown_failed_ = 0;
  long expired_ = 0;
  long retried_ = 0;
  long degraded_ = 0;
  long refined_ = 0;
  long refine_degraded_ = 0;
  long breaker_rejected_ = 0;
  long breaker_trips_ = 0;

  /// Set at the top of shutdown(); read by retry backoff so a backing-off
  /// worker gives up promptly instead of stalling the drain.
  std::atomic<bool> stopping_{false};

  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by mutex_
  std::thread watchdog_;

  std::mutex shutdown_mutex_;  // serializes shutdown()
  bool shutdown_done_ = false;
};

}  // namespace phmse::service

namespace phmse {
using service::Server;
}  // namespace phmse
