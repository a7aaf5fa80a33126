// ribo30s: closed loop, one client.  The synthetic 30S ribosome, compiled
// for 2 and for 4 processors; each step binds a fresh seeded observation
// vector and start, and solves them on the serial executor and on a
// 2-worker ThreadPool (order alternating), checking that the posteriors are
// bitwise equal.  A traced run also solves each step on a 4-worker
// ThreadPool (order rotating over the three) and checks it too.
//
// The P = 2 solve is the end-to-end parallel figure: it leaves half the
// 4 cores free, so another process on the host slows it little, while a
// P = 4 team waits on every preempted worker.  The P = 4 solve is reported
// per layer.
#include <optional>

#include "bench.hpp"

namespace perfbench {

using namespace phmse;

void run_ribo30s(const Options& options, Report& report, Tracer& tracer) {
  Rng rng(options.seed);
  const Molecule mol = make_ribo30s();
  const engine::Problem problem = mol.problem();
  engine::CompileOptions copts;
  copts.solve.max_cycles = 1;
  copts.processors = 2;

  // Set-up: compile to the first verified answer, five times.
  std::optional<engine::Plan> plan;
  std::vector<double> setup_s, compile_ms, first_ms;
  for (int i = 0; i < 5; ++i) {
    plan.reset();
    const std::vector<double> z = mol.draw_observations(rng);
    const linalg::Vector start = mol.perturbed_start(rng, 1.0);
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

  copts.processors = 4;
  engine::Plan plan4 = Engine::compile(problem, copts);
  par::ThreadPool pool2(2), pool4(4);
  // Starts the workers outside the timed loop.
  {
    const linalg::Vector start = mol.perturbed_start(rng, 1.0);
    plan4.set_observations(mol.draw_observations(rng));
    plan->solve(pool2, start);
    plan4.solve(pool4, start);
  }

  enum Pass { kSerial, kP2, kP4 };
  const int passes = options.trace ? 3 : 2;
  constexpr const char* kSpanNames[] = {"engine.solve.serial",
                                        "engine.solve.p2", "engine.solve.p4"};
  std::vector<double> serial_ms, p2_ms, p4_ms, rebind_us, rmsd, serial_wall;
  std::vector<double> traced_ms, untraced_ms, busy_share;
  std::vector<perf::Profile> serial_prof, p4_prof;
  long reused = 0, executed = 0;
  linalg::Vector x_first;
  linalg::Matrix c_first;
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point loop_end = loop_start + to_duration(options.seconds);
  long step = 0;
  for (; Clock::now() < loop_end; ++step) {
    // In a traced run every other triple of steps is traced (so every
    // solve order is); the untraced ones give the overhead baseline.
    const bool traced = options.trace && step / 3 % 2 == 0;
    tracer.set_enabled(traced);
    const std::vector<double> z = mol.draw_observations(rng);
    const linalg::Vector start = mol.perturbed_start(rng, 1.0);
    ScopedSpan step_span(tracer, "ribo30s.step", -1, step);
    {
      ScopedSpan s(tracer, "engine.set_observations", step_span.id(), step);
      const Clock::time_point t0 = Clock::now();
      plan->set_observations(z);
      rebind_us.push_back(1e6 * seconds_between(t0, Clock::now()));
      plan4.set_observations(z);
    }
    for (int pass = 0; pass < passes; ++pass) {
      const auto kind = static_cast<Pass>((pass + step) % passes);
      const bool serial = kind == kSerial;
      report.attempt();
      ScopedSpan s(tracer, kSpanNames[kind], step_span.id(), step);
      const Clock::time_point t0 = Clock::now();
      const engine::Result r = serial        ? plan->solve(start)
                               : kind == kP2 ? plan->solve(pool2, start)
                                             : plan4.solve(pool4, start);
      const double wall = seconds_between(t0, Clock::now());
      const est::NodeState& post = r.posterior();
      report.check(all_finite(post.x), "ribo30s posterior not finite");
      reused += r.report.nodes_reused;
      executed += r.report.nodes_reused + r.report.nodes_recomputed;
      if (serial) {
        serial_ms.push_back(1e3 * wall);
        serial_wall.push_back(wall);
        serial_prof.push_back(r.breakdown);
        rmsd.push_back(mol.rmsd(post.x));
        (traced ? traced_ms : untraced_ms).push_back(1e3 * wall);
      } else if (kind == kP2) {
        p2_ms.push_back(1e3 * wall);
      } else {
        p4_ms.push_back(1e3 * wall);
        p4_prof.push_back(r.breakdown);
        busy_share.push_back(r.breakdown.total() / (4.0 * wall));
      }
      if (pass == 0) {
        x_first = post.x;
        c_first = post.c;
      } else {
        ScopedSpan check(tracer, "check.bitwise", step_span.id(), step);
        if (!same_bits(post.x, x_first) || !same_bits(post.c, c_first)) {
          report.fail("serial, P=2 and P=4 posteriors differ");
        }
      }
    }
  }
  const double loop_s = seconds_between(loop_start, Clock::now());
  tracer.set_enabled(false);

  report.set("setup_s", median(setup_s));
  report.set("op_ms_p50", percentile(serial_ms, 0.5));
  report.set("op2_ms_p50", percentile(p2_ms, 0.5));
  report.set("loop.op_ms_p90", percentile(serial_ms, 0.9));
  report.set("loop.op2_ms_p90", percentile(p2_ms, 0.9));
  report.set("loop.rate_per_s", static_cast<double>(passes * step) / loop_s);
  report.set("rmsd_A", mean(rmsd));
  if (!options.trace) return;

  report.not_exercised("service.");
  report.not_exercised("gen.");
  report.not_exercised("refine.");
  report.set("engine.compile_ms", median(compile_ms));
  report.set("engine.first_solve_ms", median(first_ms));
  report.set("engine.rebind_us", median(rebind_us));
  report.set("engine.nodes_reused_ratio",
             static_cast<double>(reused) / static_cast<double>(executed));
  report_update(serial_prof, "update.", report);
  report_update(p4_prof, "update.p4.", report);
  report_unattributed(serial_prof, serial_wall, report);
  report.set("parallel.p4_ms_p50", percentile(p4_ms, 0.5));
  report.set("parallel.p4_ms_p90", percentile(p4_ms, 0.9));
  report.set("parallel.speedup_p4", median(serial_ms) / median(p4_ms));
  report.set("parallel.speedup_p2", median(serial_ms) / median(p2_ms));
  report.set("parallel.busy_share_p4", median(busy_share));
  report.set("trace.overhead_share",
             median(traced_ms) / median(untraced_ms) - 1.0);
  report_core(*plan, report);
  std::vector<ReplayTally> tallies;
  replay_kernels(*plan, mol, tallies);
  std::vector<double> kernel_ms;
  for (const perf::Profile& p : serial_prof) {
    kernel_ms.push_back(kernel_category_ms(p));
  }
  report_kernels(tallies, median(kernel_ms), report);
}

}  // namespace perfbench
