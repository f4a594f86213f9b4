// One solve, exactly as the paper flow runs it: pick the cycle time, run the
// Table-1 baseline, run the headline flow (Procedure 2, or the
// baseline-warm-started anneal), and certify both results with a Certifier
// built from the solve's own evaluator.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "netlist/netlist.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using Counters = std::map<std::string, std::int64_t>;

// Wall time of each phase of one solve, in seconds.
struct PhaseSeconds {
  double choose_cycle_time = 0.0;
  double evaluator_ctor = 0.0;
  double baseline = 0.0;
  double headline = 0.0;
  double certify = 0.0;
  double total = 0.0;
};

// Per-call latencies of the layers, re-measured after a traced solve by
// calling each public function again (median of repeated calls): the width
// search at up to 8 operating points the baseline and joint searches
// probed, everything else at the solve's answer. Times in microseconds.
struct Replay {
  double budget_us = 0.0;          // timing::DelayBudgeter::assign
  double size_us = 0.0;            // opt::GateSizer::size
  double recover_us = 0.0;         // opt::GateSizer::recover (feasible)
  double sta_us = 0.0;             // timing::run_sta
  double eval_sta_us = 0.0;        // CircuitEvaluator::sta, cache miss
  double energy_us = 0.0;          // power::EnergyModel::total_energy
  double eval_energy_us = 0.0;     // CircuitEvaluator::energy, cache miss
  double pool_us = 0.0;            // empty parallel_for, median level width
  double min_cycle_time_us = 0.0;  // CircuitEvaluator::minimum_cycle_time
};

struct SolveOutcome {
  bool ok = false;
  std::string failure;  // why the solve does not count, when !ok
  bool tc_scaled = false;
  double cycle_time = 0.0;
  double baseline_energy = 0.0;  // J per cycle
  double headline_energy = 0.0;
  double baseline_delay = 0.0;   // s
  double headline_delay = 0.0;
  int baseline_evals = 0;
  int headline_evals = 0;
  PhaseSeconds t;
  // Traced solves only: registry counter deltas over the whole solve and
  // over its choose_cycle_time phase.
  Counters counters;
  Counters cycle_time_counters;

  // Bit-exact comparison of everything a repeat must reproduce.
  bool same_answer(const SolveOutcome& other) const;
};

// Runs one solve. With a span log the solve is traced: obs counters must be
// enabled, spans are recorded under `solve_id`, and when `replay` is given
// the layer calls are re-timed afterwards (outside the solve's own time).
SolveOutcome solve(const Workload& w, const Instance& inst,
                   const minergy::netlist::Netlist& nl, SpanLog* log,
                   std::uint64_t solve_id, Replay* replay);

}  // namespace perfbench
