#include "solve.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "bench_suite/experiment.h"
#include "obs/metrics.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/certifier.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/sizer.h"
#include "timing/sta.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace mg = minergy;

Counters snapshot() { return mg::obs::Registry::instance().counter_snapshot(); }

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Why a result does not count as a certified answer ("" when it does).
std::string verdict(const char* flow, const mg::opt::OptimizationResult& r,
                    const mg::opt::Certificate& cert) {
  if (!r.feasible) return std::string(flow) + ": infeasible";
  if (r.truncated) return std::string(flow) + ": truncated";
  if (!cert.certified) return std::string(flow) + ": " + cert.summary();
  return "";
}

// Up to `n` evenly spaced probes of the given trajectories: the operating
// points the search really visited, where the width search costs what it
// cost during the solve (it varies with how many gates need a bisection).
std::vector<mg::obs::TrajectoryPoint> sample_points(
    const std::vector<const mg::opt::OptimizationResult*>& runs,
    std::size_t n) {
  std::vector<mg::obs::TrajectoryPoint> all;
  for (const mg::opt::OptimizationResult* r : runs) {
    all.insert(all.end(), r->report.trajectory.begin(),
               r->report.trajectory.end());
  }
  const std::size_t m = std::min(n, all.size());
  std::vector<mg::obs::TrajectoryPoint> out;
  for (std::size_t k = 0; k < m; ++k) out.push_back(all[k * all.size() / m]);
  return out;
}

void run_replay(const mg::opt::CircuitEvaluator& eval,
                const mg::opt::OptimizationResult& base,
                const mg::opt::OptimizationResult* joint,
                const mg::opt::CircuitState& s, double skew_b,
                const mg::opt::OptimizerOptions& opts, SpanLog* log,
                std::uint64_t solve_id, Replay* r) {
  // Counters off while replaying: an enabled counter is an atomic add per
  // gate evaluation shared by every pool lane, and the latencies replayed
  // here must be those of the untraced solves they are divided into.
  struct CountersOff {
    CountersOff() { mg::obs::set_enabled(false); }
    ~CountersOff() { mg::obs::set_enabled(true); }
  } counters_off;
  const ScopedSpan root(log, "replay", solve_id, -1);
  const int parent = root.index();
  const mg::netlist::Netlist& nl = eval.netlist();
  const auto& calc = eval.delay_calculator();
  const double limit = skew_b * eval.cycle_time();
  const mg::opt::GateSizer sizer(calc);

  mg::timing::BudgetResult budgets;
  {
    const ScopedSpan span(log, "timing.budget", solve_id, parent);
    r->budget_us = median_us([&](std::size_t) {
      budgets = eval.budgeter().assign(eval.cycle_time(),
                                       {.clock_skew_b = skew_b});
    });
  }
  {
    std::vector<const mg::opt::OptimizationResult*> runs = {&base};
    if (joint != nullptr) runs.push_back(joint);
    const std::vector<mg::obs::TrajectoryPoint> points =
        sample_points(runs, 8);
    const ScopedSpan span(log, "opt.sizer", solve_id, parent);
    double size_sum = 0.0, recover_sum = 0.0;
    int recover_points = 0;
    for (const mg::obs::TrajectoryPoint& p : points) {
      const std::vector<double> vts_c(nl.size(), eval.delay_vts(p.vts));
      size_sum += median_us([&](std::size_t) {
        (void)sizer.size(budgets.t_max, p.vdd, vts_c, opts.sizing_steps);
      });
      if (!p.feasible) continue;
      const std::vector<double> widths =
          sizer.size(budgets.t_max, p.vdd, vts_c, opts.sizing_steps).widths;
      const mg::timing::TimingReport report =
          mg::timing::run_sta(calc, widths, p.vdd, vts_c, limit);
      recover_sum += median_us([&](std::size_t) {
        (void)sizer.recover(widths, p.vdd, vts_c, limit, report,
                            opts.sizing_steps);
      });
      ++recover_points;
    }
    r->size_us = points.empty() ? 0.0 : size_sum / points.size();
    r->recover_us = recover_points == 0 ? 0.0 : recover_sum / recover_points;
  }

  // STA and energy cost the same at every operating point: one pass over
  // the gates. Time them at the solve's answer.
  std::vector<double> vts_corner(s.vts.size());
  for (std::size_t i = 0; i < s.vts.size(); ++i) {
    vts_corner[i] = eval.delay_vts(s.vts[i]);
  }
  const std::span<const double> vts_c(vts_corner);
  {
    const ScopedSpan span(log, "timing.sta", solve_id, parent);
    r->sta_us = median_us([&](std::size_t) {
      (void)mg::timing::run_sta(calc, s.widths, s.vdd, vts_c, limit);
    });
  }
  // The evaluator memoizes by operating point; nudging Vdd by a few ulps per
  // call makes every call a miss, so these time the full evaluator path.
  mg::opt::CircuitState nudged = s;
  auto next_point = [&](std::size_t k) {
    nudged.vdd = s.vdd * (1.0 + 1e-13 * static_cast<double>(k + 1));
  };
  {
    const ScopedSpan span(log, "opt.evaluator.sta", solve_id, parent);
    r->eval_sta_us = median_us([&](std::size_t k) {
      next_point(k);
      (void)eval.sta(nudged, limit);
    });
  }
  {
    const ScopedSpan span(log, "power.energy", solve_id, parent);
    r->energy_us = median_us([&](std::size_t) {
      (void)eval.energy_model().total_energy(s.widths, s.vdd, s.vts);
    });
  }
  {
    const ScopedSpan span(log, "opt.evaluator.energy", solve_id, parent);
    r->eval_energy_us = median_us([&](std::size_t k) {
      next_point(k + 1000000);
      (void)eval.energy(nudged);
    });
  }
  {
    std::vector<std::size_t> widths;
    for (const auto& level : nl.level_groups()) widths.push_back(level.size());
    std::nth_element(widths.begin(),
                     widths.begin() + static_cast<long>(widths.size() / 2),
                     widths.end());
    const std::size_t width = widths.empty() ? 0 : widths[widths.size() / 2];
    const ScopedSpan span(log, "util.pool.parallel_for", solve_id, parent);
    r->pool_us = median_us([&](std::size_t) {
      mg::util::global_pool().parallel_for(width, [](std::size_t) {});
    });
  }
  {
    const ScopedSpan span(log, "opt.evaluator.min_cycle_time", solve_id,
                          parent);
    const double t0 = now_us();
    (void)eval.minimum_cycle_time(opts.skew_b, eval.technology().nominal_vts);
    r->min_cycle_time_us = now_us() - t0;
  }
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    const std::int64_t dv = v - (it == before.end() ? 0 : it->second);
    if (dv != 0) d[name] = dv;
  }
  return d;
}

}  // namespace

bool SolveOutcome::same_answer(const SolveOutcome& o) const {
  return ok == o.ok && tc_scaled == o.tc_scaled &&
         same_bits(cycle_time, o.cycle_time) &&
         same_bits(baseline_energy, o.baseline_energy) &&
         same_bits(headline_energy, o.headline_energy) &&
         same_bits(baseline_delay, o.baseline_delay) &&
         same_bits(headline_delay, o.headline_delay) &&
         baseline_evals == o.baseline_evals &&
         headline_evals == o.headline_evals;
}

SolveOutcome solve(const Workload& w, const Instance& inst,
                   const mg::netlist::Netlist& nl, SpanLog* log,
                   std::uint64_t solve_id, Replay* replay) {
  SolveOutcome out;
  const mg::bench_suite::ExperimentConfig cfg;
  const bool traced = log != nullptr;
  const Counters before = traced ? snapshot() : Counters{};
  try {
    ScopedSpan root(log, "solve", solve_id, -1);
    const int parent = root.index();
    {
      ScopedSpan span(log, "bench_suite.choose_cycle_time", solve_id, parent);
      out.cycle_time =
          mg::bench_suite::choose_cycle_time(nl, cfg, &out.tc_scaled);
      out.t.choose_cycle_time = span.stop();
    }
    if (traced) out.cycle_time_counters = counter_delta(before, snapshot());

    mg::activity::ActivityProfile profile;
    profile.input_density = inst.activity;
    std::unique_ptr<mg::opt::CircuitEvaluator> eval;
    {
      ScopedSpan span(log, "opt.evaluator.ctor", solve_id, parent);
      eval = std::make_unique<mg::opt::CircuitEvaluator>(
          nl, cfg.tech, profile,
          mg::opt::EvalSettings{.clock_frequency = 1.0 / out.cycle_time});
      out.t.evaluator_ctor = span.stop();
    }

    mg::opt::OptimizationResult base;
    {
      ScopedSpan span(log, "opt.baseline.run", solve_id, parent);
      base = mg::opt::BaselineOptimizer(*eval, cfg.opts).run();
      out.t.baseline = span.stop();
    }

    mg::opt::OptimizationResult head;
    double head_skew_b = cfg.opts.skew_b;
    if (w.headline == Headline::kJoint) {
      ScopedSpan span(log, "opt.joint.run", solve_id, parent);
      head = mg::opt::JointOptimizer(*eval, cfg.opts).run();
      out.t.headline = span.stop();
    } else {
      mg::opt::AnnealingOptions aopts;
      aopts.max_moves = w.anneal_moves;
      aopts.seed = inst.anneal_seed;
      head_skew_b = aopts.skew_b;
      ScopedSpan span(log, "opt.anneal.run", solve_id, parent);
      head = mg::opt::AnnealingOptimizer(*eval, aopts)
                 .run(base.feasible ? base.state : mg::opt::CircuitState{});
      out.t.headline = span.stop();
    }

    mg::opt::Certificate base_cert, head_cert;
    {
      ScopedSpan span(log, "opt.certify", solve_id, parent);
      mg::opt::CertifyOptions copts;
      copts.skew_b = cfg.opts.skew_b;
      base_cert = mg::opt::Certifier(*eval, copts).certify(base);
      copts.skew_b = head_skew_b;
      head_cert = mg::opt::Certifier(*eval, copts).certify(head);
      out.t.certify = span.stop();
    }
    out.t.total = root.stop();
    if (traced) out.counters = counter_delta(before, snapshot());

    out.baseline_energy = base.energy.total();
    out.headline_energy = head.energy.total();
    out.baseline_delay = base.critical_delay;
    out.headline_delay = head.critical_delay;
    out.baseline_evals = base.circuit_evaluations;
    out.headline_evals = head.circuit_evaluations;
    out.failure = verdict("baseline", base, base_cert);
    if (out.failure.empty()) out.failure = verdict("headline", head, head_cert);
    out.ok = out.failure.empty();

    if (replay != nullptr && out.ok) {
      run_replay(*eval, base,
                 w.headline == Headline::kJoint ? &head : nullptr, head.state,
                 head_skew_b, cfg.opts, log, solve_id, replay);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.failure = std::string("threw: ") + e.what();
  }
  return out;
}

}  // namespace perfbench
