// The one solve path: choose T_c, run one optimizer, certify the answer.
//
// minergy_report and the service worker (serve/worker.h, which also backs
// minergy_batch) all call solve(), so a (circuit, optimizer, knobs) triple
// yields the same certified (Vdd, Vts, w) whichever front end asked:
//
//   choose_cycle_time -> CircuitEvaluator -> optimizer by kind
//   (anneal: baseline warm start first) -> Certifier::certify
//
// Every optimizer, the anneal's warm start included, runs under the spec's
// watchdog budget, so a deadline or evaluation cap bounds the whole solve
// (each of the anneal's two phases gets the full budget). The certificate
// uses the skew factor of the options that actually ran.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"
#include "opt/certifier.h"
#include "opt/result.h"
#include "util/guard.h"

namespace minergy::bench_suite {

struct SolveSpec {
  std::string kind = "joint";  // joint | baseline | robust | anneal
  double clock_frequency = 300e6;  // requested f_c; T_c is scaled when the
                                   // baseline cannot meet it
  double activity = 0.3;           // primary-input transition density
  util::WatchdogBudget budget{};
  std::uint64_t seed = 1234;  // anneal seed
  int anneal_moves = 0;       // 0 = AnnealingOptions default
  int num_thresholds = 1;     // n_v threshold groups (joint tiers)
  // Crash-safe snapshots for the joint sweep and the anneal; resume_path
  // restores one and continues bit-exactly.
  std::string checkpoint_path;
  std::string resume_path;
  int start_tier = 0;  // robust only: 0 joint, 1 baseline, 2 last resort
};

struct Solved {
  opt::OptimizationResult result;
  opt::Certificate certificate;
  double cycle_time = 0.0;  // the T_c the optimizer ran against
  bool tc_scaled = false;   // T_c was scaled from 1 / spec.clock_frequency
};

// Throws std::invalid_argument for an unknown kind, and whatever the
// optimizer throws (e.g. util::InfeasibleError from robust).
Solved solve(const netlist::Netlist& nl, const SolveSpec& spec);

}  // namespace minergy::bench_suite
