// helix8-session: closed loop, one interactive user.  An anchored 8-bp
// helix is compiled once.  Each session binds fresh observations, runs an
// annealed refine from truth + N(0, 0.3 A), re-solves once at the refined
// structure, then makes single-observation edits, each a set_observations
// plus solve_incremental.  Every kVerifyEvery-th edit is checked bitwise
// against a from-scratch solve.
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "refine/monitor.hpp"
#include "refine/refiner.hpp"

namespace perfbench {

using namespace phmse;

namespace {

constexpr int kEditsPerSession = 24;
constexpr int kVerifyEvery = 6;
// A refined structure further than this from the truth fails the check
// (the anchored helix refines to about 0.13 A).
constexpr double kRmsdBoundA = 0.25;

refine::RefineOptions annealed_options() {
  // The annealed settings of the EXPERIMENTS.md recovery study, capped at
  // 20 outer iterations.
  refine::RefineOptions o;
  o.mode = refine::Mode::kAnnealed;
  o.max_iterations = 20;
  o.initial_temperature = 16.0;
  o.cooling = 0.8;
  o.max_restarts = 8;
  o.restart_sigma = 0.3;
  o.seed = 1;
  return o;
}

}  // namespace

void run_helix8_session(const Options& options, Report& report,
                        Tracer& tracer) {
  Rng rng(options.seed);
  const Molecule mol = make_anchored_helix(8);
  const engine::Problem problem = mol.problem();
  engine::CompileOptions copts;
  copts.solve.max_cycles = 1;
  copts.solve.prior_sigma = 0.5;
  const refine::RefineOptions ropts = annealed_options();

  // Set-up: compile to the first verified answer, nine times.
  std::optional<engine::Plan> plan;
  std::vector<double> setup_s, compile_ms, first_ms;
  for (int i = 0; i < 9; ++i) {
    plan.reset();
    const std::vector<double> z = mol.draw_observations(rng);
    const linalg::Vector start = mol.perturbed_start(rng, 0.3);
    report.attempt();
    const Clock::time_point t0 = Clock::now();
    plan.emplace(Engine::compile(problem, copts));
    const Clock::time_point t1 = Clock::now();
    plan->set_observations(z);
    const engine::Result r = plan->solve(start);
    report.check(all_finite(r.posterior().x), "set-up posterior not finite");
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    compile_ms.push_back(1e3 * seconds_between(t0, t1));
    first_ms.push_back(1e3 * seconds_between(t1, t2));
  }

  std::vector<double> edit_ms, refine_ms, rebind_us, rmsd, iterations,
      restarts, iter_ms, monitor_ms, full_walls;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<perf::Profile> full_prof;
  long reused = 0, executed = 0, edits = 0;
  linalg::Vector x_edit;
  linalg::Matrix c_edit;
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point loop_end = loop_start + to_duration(options.seconds);
  // A from-scratch solve at the refined structure; its breakdown is the
  // per-category record of a full solve.
  const auto full_solve = [&](const linalg::Vector& at, int parent,
                              long session) {
    ScopedSpan s(tracer, "engine.solve", parent, session);
    const Clock::time_point t0 = Clock::now();
    const engine::Result r = plan->solve(at);
    full_walls.push_back(seconds_between(t0, Clock::now()));
    full_prof.push_back(r.breakdown);
    return r;
  };
  for (long session = 0; Clock::now() < loop_end; ++session) {
    tracer.set_enabled(options.trace && session % 2 == 0);
    ScopedSpan session_span(tracer, "helix8.session", -1, session);
    std::vector<double> z = mol.draw_observations(rng);
    const linalg::Vector start = mol.perturbed_start(rng, 0.3);
    plan->set_observations(z);

    report.attempt();
    linalg::Vector refined;
    {
      ScopedSpan s(tracer, "refine.refine", session_span.id(), session);
      const Clock::time_point t0 = Clock::now();
      refine::Refiner refiner(*plan, ropts);
      const engine::Result r = refiner.refine(start);
      const double wall = seconds_between(t0, Clock::now());
      refined = r.posterior().x;
      const core::RefineReport& rr = r.report.refine;
      refine_ms.push_back(1e3 * wall);
      iterations.push_back(rr.iterations);
      restarts.push_back(rr.restarts);
      iter_ms.push_back(1e3 * wall / rr.iterations);
    }
    rmsd.push_back(mol.rmsd(refined));
    report.check(all_finite(refined) && rmsd.back() < kRmsdBoundA,
                 "refined structure not finite or too far from the truth");
    {
      ScopedSpan s(tracer, "refine.measure", session_span.id(), session);
      const Clock::time_point t0 = Clock::now();
      const refine::Residuals res = refine::measure(plan->hierarchy(), refined);
      monitor_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      report.check(std::isfinite(res.chi2), "refined chi2 not finite");
    }
    // Checkpoint every node at the refined structure for the edits.
    full_solve(refined, session_span.id(), session);

    for (int e = 0; e < kEditsPerSession; ++e) {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(z.size()) - 1));
      z[slot] = mol.truth_value[slot] + rng.gaussian(0.0, mol.sigma[slot]);
      report.attempt();
      ScopedSpan s(tracer, "helix8.edit", session_span.id(), session);
      const Clock::time_point t0 = Clock::now();
      plan->set_observations(z);
      const Clock::time_point t1 = Clock::now();
      const engine::Result r = plan->solve_incremental(refined);
      const double wall = seconds_between(t0, Clock::now());
      edit_ms.push_back(1e3 * wall);
      (tracer.enabled() ? traced_ms : untraced_ms).push_back(1e3 * wall);
      rebind_us.push_back(1e6 * seconds_between(t0, t1));
      ++edits;
      reused += r.report.nodes_reused;
      executed += r.report.nodes_reused + r.report.nodes_recomputed;
      const est::NodeState& post = r.posterior();
      report.check(all_finite(post.x), "edited posterior not finite");
      if (e % kVerifyEvery == kVerifyEvery - 1) {
        x_edit = post.x;
        c_edit = post.c;
        const engine::Result full = full_solve(refined, s.id(), session);
        if (!same_bits(full.posterior().x, x_edit) ||
            !same_bits(full.posterior().c, c_edit)) {
          report.fail("incremental solve differs from a from-scratch solve");
        }
      }
    }
  }
  const double loop_s = seconds_between(loop_start, Clock::now());
  tracer.set_enabled(false);

  report.set("setup_s", median(setup_s));
  report.set("op_ms_p50", percentile(edit_ms, 0.5));
  report.set("op2_ms_p50", percentile(refine_ms, 0.5));
  report.set("loop.op_ms_p90", percentile(edit_ms, 0.9));
  report.set("loop.op2_ms_p90", percentile(refine_ms, 0.9));
  report.set("loop.rate_per_s", static_cast<double>(edits) / loop_s);
  report.set("rmsd_A", mean(rmsd));
  if (!options.trace) return;

  report.not_exercised("service.");
  report.not_exercised("gen.");
  report.not_exercised("update.p4.");
  report.not_exercised("parallel.");
  report.set("engine.compile_ms", median(compile_ms));
  report.set("engine.first_solve_ms", median(first_ms));
  report.set("engine.rebind_us", median(rebind_us));
  report.set("engine.nodes_reused_ratio",
             static_cast<double>(reused) / static_cast<double>(executed));
  report_update(full_prof, "update.", report);
  report_unattributed(full_prof, full_walls, report);
  report.set("refine.iterations", mean(iterations));
  report.set("refine.restarts", mean(restarts));
  report.set("refine.iter_ms", median(iter_ms));
  report.set("refine.monitor_ms", median(monitor_ms));
  report.set("trace.overhead_share",
             median(traced_ms) / median(untraced_ms) - 1.0);
  report_core(*plan, report);
  std::vector<ReplayTally> tallies;
  replay_kernels(*plan, mol, tallies);
  std::vector<double> kernel_ms;
  for (const perf::Profile& p : full_prof) {
    kernel_ms.push_back(kernel_category_ms(p));
  }
  report_kernels(tallies, median(kernel_ms), report);
}

}  // namespace perfbench
