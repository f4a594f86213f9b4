// bench_suite::solve, the one solve path behind minergy_report and the
// service worker: every optimizer kind certifies, and each answer is
// bit-identical to spelling the same call sequence out by hand.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "bench_suite/solve.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/certifier.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"

namespace minergy::bench_suite {
namespace {

constexpr int kAnnealMoves = 2000;
constexpr std::uint64_t kSeed = 7;

// The sequence solve() replaces, on an evaluator built here.
opt::OptimizationResult run_directly(const std::string& kind,
                                     const opt::CircuitEvaluator& eval) {
  if (kind == "baseline") return opt::BaselineOptimizer(eval, {}).run();
  if (kind == "joint") return opt::JointOptimizer(eval, {}).run();
  if (kind == "robust") return opt::RobustOptimizer(eval, {}).run();
  opt::AnnealingOptions aopts;
  aopts.seed = kSeed;
  aopts.max_moves = kAnnealMoves;
  const opt::OptimizationResult warm = opt::BaselineOptimizer(eval, {}).run();
  return opt::AnnealingOptimizer(eval, aopts).run(warm.state);
}

TEST(Solve, EveryKindCertifiesAndMatchesTheDirectCallSequence) {
  const netlist::Netlist nl = make_circuit("c17");
  for (const std::string kind : {"baseline", "joint", "robust", "anneal"}) {
    SCOPED_TRACE(kind);
    SolveSpec spec;
    spec.kind = kind;
    spec.seed = kSeed;
    spec.anneal_moves = kAnnealMoves;
    const Solved solved = solve(nl, spec);
    EXPECT_TRUE(solved.result.feasible);
    EXPECT_TRUE(solved.certificate.certified) << solved.certificate.summary();

    const ExperimentConfig cfg;
    bool scaled = false;
    const double tc = choose_cycle_time(nl, cfg, &scaled);
    EXPECT_EQ(solved.cycle_time, tc);
    EXPECT_EQ(solved.tc_scaled, scaled);
    activity::ActivityProfile profile;
    profile.input_density = spec.activity;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});
    const opt::OptimizationResult direct = run_directly(kind, eval);
    const opt::Certificate cert = opt::Certifier(eval, {}).certify(direct);

    EXPECT_EQ(solved.result.energy.total(), direct.energy.total());
    EXPECT_EQ(solved.result.energy.static_energy, direct.energy.static_energy);
    EXPECT_EQ(solved.result.energy.dynamic_energy,
              direct.energy.dynamic_energy);
    EXPECT_EQ(solved.result.vdd, direct.vdd);
    EXPECT_EQ(solved.result.vts_primary, direct.vts_primary);
    EXPECT_EQ(solved.result.tier, direct.tier);
    EXPECT_EQ(solved.certificate.certified, cert.certified);
    EXPECT_EQ(solved.certificate.recomputed_energy_total,
              cert.recomputed_energy_total);
  }
}

TEST(Solve, UnknownKindThrowsInvalidArgument) {
  SolveSpec spec;
  spec.kind = "simplex";
  EXPECT_THROW(solve(make_circuit("c17"), spec), std::invalid_argument);
}

}  // namespace
}  // namespace minergy::bench_suite
