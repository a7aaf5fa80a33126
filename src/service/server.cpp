#include "service/server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse::service {

static double elapsed_seconds(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.plan_cache_capacity),
      pool_(options.workers) {
  PHMSE_CHECK(options.workers >= 1, "Server needs at least one worker");
  PHMSE_CHECK(options.max_pending >= 1 && options.max_pending_per_tenant >= 1,
              "Server admission bounds must be >= 1");
  PHMSE_CHECK(options.breaker_failure_threshold >= 0,
              "Server breaker threshold must be >= 0 (0 disables)");
  PHMSE_CHECK(options.breaker_cooldown_seconds >= 0.0 &&
                  std::isfinite(options.breaker_cooldown_seconds),
              "Server breaker cooldown must be finite and >= 0");
  PHMSE_CHECK(options.watchdog_interval_seconds > 0.0 &&
                  std::isfinite(options.watchdog_interval_seconds),
              "Server watchdog interval must be finite and > 0");
  PHMSE_CHECK(options.max_refine_iterations >= 1,
              "Server max_refine_iterations must be >= 1");
  for (const auto& [tenant, cap] : options.tenant_refine_iteration_caps) {
    PHMSE_CHECK(cap >= 1, "Server refine iteration cap for tenant '" + tenant +
                              "' must be >= 1");
  }
  free_workers_.reserve(static_cast<std::size_t>(options.workers));
  for (int w = options.workers - 1; w >= 0; --w) free_workers_.push_back(w);
  watchdog_ = std::thread([this] { watchdog_loop_(); });
}

Server::~Server() { shutdown(/*drain_queued=*/true); }

std::future<Response> Server::submit(const std::string& tenant,
                                     Request request) {
  // Validate synchronously: a malformed request is the submitter's bug and
  // should fail at the call site, not inside a worker.
  PHMSE_CHECK(request.problem.decompose != nullptr,
              "submit: problem has no decomposition recipe");
  if (!request.observations.empty() &&
      static_cast<Index>(request.observations.size()) !=
          request.problem.constraints.size()) {
    throw Error("submit: " + std::to_string(request.observations.size()) +
                " observations for a problem with " +
                std::to_string(request.problem.constraints.size()) +
                " constraints");
  }
  // Non-finite inputs can only produce garbage (or a mid-solve abort)
  // downstream: reject them here, where the submitter can see which
  // request was malformed, instead of burning a worker first.
  for (std::size_t i = 0; i < request.observations.size(); ++i) {
    if (!std::isfinite(request.observations[i])) {
      throw Error("submit: observation " + std::to_string(i) +
                  " is not finite");
    }
  }
  if (static_cast<Index>(request.initial.size()) !=
      3 * request.problem.num_atoms) {
    throw Error("submit: initial state has dimension " +
                std::to_string(request.initial.size()) + ", expected 3 * " +
                std::to_string(request.problem.num_atoms));
  }
  for (std::size_t i = 0; i < request.initial.size(); ++i) {
    if (!std::isfinite(request.initial[i])) {
      throw Error("submit: initial state entry " + std::to_string(i) +
                  " is not finite");
    }
  }
  if (std::isnan(request.deadline_seconds)) {
    throw Error("submit: deadline_seconds is NaN (use <= 0 for unbounded)");
  }
  if (request.retry_budget < 0) {
    throw Error("submit: retry_budget must be >= 0");
  }
  if (!(request.retry_backoff_seconds >= 0.0) ||
      !std::isfinite(request.retry_backoff_seconds)) {
    throw Error("submit: retry_backoff_seconds must be finite and >= 0");
  }
  // Refinement controls (DESIGN.md §14): validate here so a malformed loop
  // configuration fails at the call site, then clamp the iteration count to
  // the tenant's server-side cap — the operator bounds how much worker time
  // one request may multiply into.  The refine deadline/cancel fields are
  // server-owned: the request's end-to-end budget is the only clock.
  refine::validate(request.refine);
  if (request.refine.mode != refine::Mode::kSinglePass) {
    const auto cap_it = options_.tenant_refine_iteration_caps.find(tenant);
    const int cap = cap_it != options_.tenant_refine_iteration_caps.end()
                        ? cap_it->second
                        : options_.max_refine_iterations;
    request.refine.max_iterations = std::min(request.refine.max_iterations, cap);
  }
  request.refine.deadline_seconds = 0.0;
  request.refine.cancel = nullptr;

  const Clock::time_point now = Clock::now();
  std::future<Response> future;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      ++rejected_;
      throw ShutdownError("submit: server is shutting down");
    }
    // Circuit breaker (DESIGN.md §13): a tenant with threshold consecutive
    // execute-side failures is rejected outright until the cooldown
    // elapses, then admitted one probe at a time until a probe succeeds.
    bool probe = false;
    if (options_.breaker_failure_threshold > 0) {
      const auto it = breakers_.find(tenant);
      if (it != breakers_.end()) {
        Breaker& b = it->second;
        if (b.state == BreakerState::kOpen) {
          if (elapsed_seconds(b.opened_at, now) >=
              options_.breaker_cooldown_seconds) {
            b.state = BreakerState::kHalfOpen;
          } else {
            ++rejected_;
            ++breaker_rejected_;
            throw CircuitOpenError(
                "submit: tenant '" + tenant +
                "' circuit breaker is open (cooling down after repeated "
                "failures)");
          }
        }
        if (b.state == BreakerState::kHalfOpen) {
          if (b.probe_in_flight) {
            ++rejected_;
            ++breaker_rejected_;
            throw CircuitOpenError("submit: tenant '" + tenant +
                                   "' circuit breaker is half-open with a "
                                   "probe already in flight");
          }
          b.probe_in_flight = true;
          probe = true;
        }
      }
    }
    if (queued_ >= options_.max_pending) {
      if (probe) breakers_[tenant].probe_in_flight = false;
      ++rejected_;
      throw AdmissionError("submit: server queue is full (" +
                           std::to_string(options_.max_pending) +
                           " pending solves)");
    }
    std::deque<Job>& queue = tenants_[tenant];
    if (queue.size() >= options_.max_pending_per_tenant) {
      if (probe) breakers_[tenant].probe_in_flight = false;
      ++rejected_;
      throw AdmissionError("submit: tenant '" + tenant +
                           "' queue is full (" +
                           std::to_string(options_.max_pending_per_tenant) +
                           " pending solves)");
    }
    Job job;
    job.tenant = tenant;
    job.submitted = now;
    job.has_deadline = request.deadline_seconds > 0.0 &&
                       std::isfinite(request.deadline_seconds);
    if (job.has_deadline) {
      job.deadline_at =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(request.deadline_seconds));
    }
    job.probe = probe;
    job.seq = next_seq_++;
    job.request = std::move(request);
    future = job.promise.get_future();
    if (queue.empty()) round_robin_.push_back(tenant);
    queue.push_back(std::move(job));
    ++queued_;
    ++submitted_;
    arm_pumps_();
  }
  return future;
}

void Server::arm_pumps_() {
  while (!round_robin_.empty() && !free_workers_.empty()) {
    const int worker = free_workers_.back();
    try {
      pool_.submit(worker, [this, worker] { pump_(worker); });
    } catch (const Error&) {
      // The pool refused the task (teardown race).  The queued jobs must
      // not be abandoned: fail them all with the distinct shutdown error.
      for (const std::string& tenant : round_robin_) {
        std::deque<Job>& queue = tenants_[tenant];
        for (Job& job : queue) {
          if (job.probe) {
            Breaker& b = breakers_[job.tenant];
            b.probe_in_flight = false;
            b.state = BreakerState::kOpen;
          }
          job.promise.set_exception(std::make_exception_ptr(ShutdownError(
              "solve abandoned: server worker pool is shut down")));
          ++shutdown_failed_;
        }
        queued_ -= queue.size();
        queue.clear();
      }
      round_robin_.clear();
      idle_cv_.notify_all();
      return;
    }
    free_workers_.pop_back();
    ++active_pumps_;
  }
}

void Server::shed_expired_(Job& job) {
  if (job.probe) {
    // The probe never ran, so it proved nothing: the breaker stays open
    // and the next post-cooldown submission becomes the new probe.
    Breaker& b = breakers_[job.tenant];
    b.probe_in_flight = false;
    b.state = BreakerState::kOpen;
  }
  ++expired_;
  job.promise.set_exception(std::make_exception_ptr(engine::DeadlineError(
      "solve deadline expired while queued (the solve never started)")));
}

void Server::shed_expired_queued_(Clock::time_point now) {
  bool any = false;
  for (auto it = round_robin_.begin(); it != round_robin_.end();) {
    std::deque<Job>& queue = tenants_[*it];
    for (auto jit = queue.begin(); jit != queue.end();) {
      if (jit->has_deadline && now >= jit->deadline_at) {
        shed_expired_(*jit);
        jit = queue.erase(jit);
        --queued_;
        any = true;
      } else {
        ++jit;
      }
    }
    if (queue.empty()) {
      it = round_robin_.erase(it);
    } else {
      ++it;
    }
  }
  if (any && queued_ == 0 && active_pumps_ == 0) idle_cv_.notify_all();
}

void Server::pump_(int worker) {
  for (;;) {
    Job job;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (round_robin_.empty()) {
        free_workers_.push_back(worker);
        --active_pumps_;
        if (queued_ == 0 && active_pumps_ == 0) idle_cv_.notify_all();
        return;
      }
      // Round-robin across tenants: take the head job of the next tenant,
      // then rotate the tenant to the back if it still has work.
      const std::string tenant = std::move(round_robin_.front());
      round_robin_.pop_front();
      std::deque<Job>& queue = tenants_[tenant];
      job = std::move(queue.front());
      queue.pop_front();
      --queued_;
      if (!queue.empty()) round_robin_.push_back(tenant);
      // Dispatch-time shedding: a request whose budget is already gone
      // must not occupy this worker (the watchdog also sheds between
      // dispatches; this closes the window since its last tick).
      if (job.has_deadline && Clock::now() >= job.deadline_at) {
        // (this pump still counts as active, so drain waiters wake when it
        // loops back around and retires above)
        shed_expired_(job);
        continue;
      }
    }
    execute_(job);
  }
}

void Server::record_outcome_(const Job& job, bool success) {
  if (options_.breaker_failure_threshold <= 0) return;
  Breaker& b = breakers_[job.tenant];
  if (success) {
    b.consecutive_failures = 0;
    b.state = BreakerState::kClosed;
    b.probe_in_flight = false;
    return;
  }
  if (job.probe) {
    // A failed probe re-opens the breaker and restarts the cooldown.
    b.state = BreakerState::kOpen;
    b.opened_at = Clock::now();
    b.probe_in_flight = false;
    b.consecutive_failures = options_.breaker_failure_threshold;
    ++breaker_trips_;
    return;
  }
  ++b.consecutive_failures;
  if (b.state == BreakerState::kClosed &&
      b.consecutive_failures >= options_.breaker_failure_threshold) {
    b.state = BreakerState::kOpen;
    b.opened_at = Clock::now();
    ++breaker_trips_;
  }
}

bool Server::backoff_sleep_(double seconds,
                            const par::CancelToken* token) const {
  // Sleep in short slices so a backing-off worker notices shutdown and
  // deadline expiry within ~10ms instead of stalling the drain.
  constexpr double kSlice = 0.01;
  double remaining = seconds;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    if (token != nullptr && token->stop_requested()) return false;
    if (remaining <= 0.0) return true;
    const double s = std::min(kSlice, remaining);
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
    remaining -= s;
  }
}

void Server::execute_(Job& job) {
  const Clock::time_point start = Clock::now();
  // The solve runs under a stack-local token carrying the request's
  // absolute deadline; registering it lets the watchdog cancel this solve
  // once over-deadline (the executors also self-observe the deadline at
  // every poll — the watchdog is belt over braces for stalled kernels).
  par::CancelToken token;
  if (job.has_deadline) {
    token.set_deadline(job.deadline_at);
    const std::lock_guard<std::mutex> lock(mutex_);
    inflight_.emplace(job.seq, &token);
  }
  bool low_rank = false;
  bool refined = false;
  bool refine_degraded = false;
  try {
    const Request& req = job.request;
    Response response;
    response.queue_seconds = elapsed_seconds(job.submitted, start);
    // Deterministic jitter: seeded from the submission ordinal, so a
    // replayed workload backs off identically run to run.
    Rng jitter(job.seq * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
    int attempts = 0;
    for (;;) {
      ++attempts;
      try {
        PlanLease lease = cache_.acquire(req.problem, req.compile);

        // Rebind the observed values unconditionally: a cache hit hands
        // back a plan carrying whatever values its previous user bound.
        if (!req.observations.empty()) {
          lease.plan().set_observations(req.observations);
        } else {
          std::vector<double> values;
          values.reserve(
              static_cast<std::size_t>(req.problem.constraints.size()));
          for (const cons::Constraint& c : req.problem.constraints.all()) {
            values.push_back(c.observed);
          }
          lease.plan().set_observations(values);
        }

        // Incremental path (DESIGN.md §11): on a warm leased instance,
        // set_observations above marked only the constraints this request
        // actually changed, so repeat submissions re-execute just the
        // dirty subtrees.  A cold (freshly compiled) instance has no
        // checkpoint and the call degrades to a full solve — either way
        // the response is bitwise identical to a compile-per-request solve
        // (tests/service_stress_test.cpp pins this).  The run options carry
        // the deadline token and the degradation opt-in (DESIGN.md §13);
        // with neither armed this is exactly the uncontrolled call.
        engine::RunOptions run;
        run.mode = engine::RunMode::kIncremental;
        run.cancel = job.has_deadline ? &token : nullptr;
        run.degrade_lowrank = req.degrade_lowrank;
        engine::Result result;
        // Kept alive until the response copies out below: an iterated or
        // annealed result borrows its posterior from the Refiner, not the
        // plan.
        std::optional<refine::Refiner> refiner;
        if (req.refine.mode == refine::Mode::kSinglePass) {
          result = lease.plan().solve(req.initial, run);
        } else {
          // Refined request (DESIGN.md §14): run the outer loop on the
          // leased plan under the job's deadline token.  Every iteration is
          // an exact solve (no low-rank rung), and once one iterate exists
          // an expiring deadline degrades the response to the best so far
          // instead of failing it — report.refine records both the
          // trajectory and the degradation.
          refine::RefineOptions ropts = req.refine;
          ropts.cancel = job.has_deadline ? &token : nullptr;
          refiner.emplace(lease.plan(), ropts);
          result = refiner->refine(req.initial);
          refined = true;
          refine_degraded = result.report.refine.deadline_degraded;
        }
        response.x = result.posterior().x;
        response.cycles = result.cycles;
        response.converged = result.converged;
        response.seconds = result.seconds;
        response.cache_hit = lease.cache_hit();
        response.report = result.report;
        low_rank = result.report.low_rank;
        break;
        // Lease scope ends here: the warm instance is back in the cache
        // before the tenant's future wakes, so an immediate follow-up
        // submission hits instead of compiling a duplicate.
      } catch (const engine::DeadlineError&) {
        throw;  // the budget is spent; retrying cannot help
      } catch (const par::CancelledError&) {
        throw;  // explicit cancellation is a decision, not a fault
      } catch (const ShutdownError&) {
        throw;
      } catch (const Error&) {
        // Transient solve failure (regularized-retry exhaustion, a plan
        // lease contended away, ...): retry inside the request's budget
        // with exponential backoff and jitter.
        if (attempts > req.retry_budget) throw;
        const double base =
            req.retry_backoff_seconds * std::pow(2.0, attempts - 1);
        const double sleep_s = base * jitter.uniform(0.5, 1.5);
        if (!backoff_sleep_(sleep_s, job.has_deadline ? &token : nullptr)) {
          if (job.has_deadline && token.expired()) {
            throw engine::DeadlineError(
                "solve deadline expired during retry backoff");
          }
          throw;  // shutdown or explicit cancel: surface the last failure
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        ++retried_;
      }
    }
    response.attempts = attempts;
    // Count before fulfilling: a tenant that consumes the future and then
    // reads stats() must already see this solve counted.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
      if (low_rank) ++degraded_;
      if (refined) ++refined_;
      if (refine_degraded) ++refine_degraded_;
      record_outcome_(job, /*success=*/true);
      if (job.has_deadline) inflight_.erase(job.seq);
    }
    job.promise.set_value(std::move(response));
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++failed_;
      record_outcome_(job, /*success=*/false);
      if (job.has_deadline) inflight_.erase(job.seq);
    }
    job.promise.set_exception(std::current_exception());
  }
}

void Server::watchdog_loop_() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval =
      std::chrono::duration<double>(options_.watchdog_interval_seconds);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, interval);
    if (watchdog_stop_) return;
    const Clock::time_point now = Clock::now();
    // Shed queued requests whose budget expired before a worker freed up:
    // they fail immediately instead of occupying a worker just to fail.
    shed_expired_queued_(now);
    // Cancel over-deadline in-flight solves.  The poll sites observe the
    // token's own deadline clock anyway; the explicit cancel() is for the
    // pathological case where the clock read races a long kernel.
    for (const auto& [seq, token] : inflight_) {
      if (token->expired()) token->cancel();
    }
  }
}

void Server::stop_watchdog_() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_pumps_ == 0; });
}

void Server::shutdown(bool drain_queued) {
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shutdown_done_) return;
  stopping_.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    accepting_ = false;
    if (!drain_queued) {
      // Fail every queued-but-unstarted solve with the distinct shutdown
      // error; in-flight solves (inside a pump) run to completion.
      for (const std::string& tenant : round_robin_) {
        std::deque<Job>& queue = tenants_[tenant];
        for (Job& job : queue) {
          if (job.probe) {
            Breaker& b = breakers_[job.tenant];
            b.probe_in_flight = false;
            b.state = BreakerState::kOpen;
          }
          job.promise.set_exception(std::make_exception_ptr(ShutdownError(
              "solve abandoned: server shut down before it started")));
          ++shutdown_failed_;
        }
        queued_ -= queue.size();
        queue.clear();
      }
      round_robin_.clear();
    }
    idle_cv_.wait(lock,
                  [this] { return queued_ == 0 && active_pumps_ == 0; });
  }
  pool_.shutdown();
  stop_watchdog_();
  shutdown_done_ = true;
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected = rejected_;
    s.shutdown_failed = shutdown_failed_;
    s.expired = expired_;
    s.retried = retried_;
    s.degraded = degraded_;
    s.refined = refined_;
    s.refine_degraded = refine_degraded_;
    s.breaker_rejected = breaker_rejected_;
    s.breaker_trips = breaker_trips_;
    for (const auto& [tenant, b] : breakers_) {
      if (b.state != BreakerState::kClosed) ++s.breaker_open;
    }
    s.pending = queued_;
  }
  s.cache = cache_.stats();
  return s;
}

BreakerState Server::breaker_state(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.breaker_failure_threshold <= 0) return BreakerState::kClosed;
  const auto it = breakers_.find(tenant);
  if (it == breakers_.end()) return BreakerState::kClosed;
  const Breaker& b = it->second;
  if (b.state == BreakerState::kOpen &&
      elapsed_seconds(b.opened_at, Clock::now()) >=
          options_.breaker_cooldown_seconds) {
    return BreakerState::kHalfOpen;  // cooldown elapsed; next submit probes
  }
  return b.state;
}

}  // namespace phmse::service
