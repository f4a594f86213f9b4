#include "bench_suite/solve.h"

#include <stdexcept>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"

namespace minergy::bench_suite {

Solved solve(const netlist::Netlist& nl, const SolveSpec& spec) {
  const std::string& kind = spec.kind;
  Solved out;
  ExperimentConfig cfg;
  cfg.clock_frequency = spec.clock_frequency;
  out.cycle_time = choose_cycle_time(nl, cfg, &out.tc_scaled);

  opt::EvalSettings settings;
  settings.clock_frequency = 1.0 / out.cycle_time;
  activity::ActivityProfile profile;
  profile.input_density = spec.activity;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile, settings);

  opt::OptimizerOptions opts;
  opts.num_thresholds = spec.num_thresholds;
  opts.budget = spec.budget;
  opts.checkpoint_path = spec.checkpoint_path;
  opts.resume_path = spec.resume_path;

  double skew_b = opts.skew_b;
  if (kind == "joint") {
    out.result = opt::JointOptimizer(eval, opts).run();
  } else if (kind == "baseline") {
    out.result = opt::BaselineOptimizer(eval, opts).run();
  } else if (kind == "robust") {
    opt::RobustOptions ropts;
    ropts.joint = opts;
    ropts.baseline = opts;
    ropts.start_tier = spec.start_tier;
    out.result = opt::RobustOptimizer(eval, ropts).run();
    skew_b = ropts.joint.skew_b;
  } else if (kind == "anneal") {
    opt::AnnealingOptions aopts;
    aopts.budget = spec.budget;
    aopts.seed = spec.seed;
    if (spec.anneal_moves > 0) aopts.max_moves = spec.anneal_moves;
    aopts.checkpoint_path = spec.checkpoint_path;
    aopts.resume_path = spec.resume_path;
    skew_b = aopts.skew_b;
    // Warm-start from the baseline solution (the annealer's recommended
    // seeding): a cold start at an arbitrary mid-range corner can sit in a
    // non-physical region where the finite-checks reject the first STA. A
    // resumed run restores its mid-anneal state from the snapshot; the warm
    // start then only seeds the already-finished passes.
    const opt::OptimizationResult warm =
        opt::BaselineOptimizer(eval, opts).run();
    out.result = opt::AnnealingOptimizer(eval, aopts)
                     .run(warm.feasible ? warm.state : opt::CircuitState{});
  } else {
    throw std::invalid_argument("unknown optimizer '" + kind +
                                "' (joint | baseline | robust | anneal)");
  }

  opt::CertifyOptions copts;
  copts.skew_b = skew_b;
  out.certificate = opt::Certifier(eval, copts).certify(out.result);
  return out;
}

}  // namespace minergy::bench_suite
