// Workload definitions: every input a benchmark run solves is derived here
// from the workload name, the workload seed and the scale, and nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/generator.h"
#include "netlist/netlist.h"

namespace perfbench {

// The flow a solve runs after the Table-1 baseline.
enum class Headline { kJoint, kAnneal };

// One (circuit, activity) solve instance.
struct Instance {
  std::string label;    // unique within the workload, e.g. "s298*@0.1375"
  std::string circuit;  // paper circuit name, or the generated network's name
  bool generated = false;  // true: built from `spec`, false: paper suite
  minergy::netlist::GeneratorSpec spec;  // generator input when `generated`
  double activity = 0.0;                 // primary-input transition density
  std::uint64_t anneal_seed = 0;         // AnnealingOptions::seed (kAnneal)
};

struct Workload {
  std::string name;
  Headline headline = Headline::kJoint;
  int anneal_moves = 0;  // AnnealingOptions::max_moves (kAnneal)
  std::vector<Instance> instances;
};

// Throws std::invalid_argument for an unknown name. `tiny` selects the
// smoke-test size (same code paths, a fraction of the work).
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

// Builds an instance's netlist (the set-up path: paper circuit or generator).
minergy::netlist::Netlist build_netlist(const Instance& inst);

}  // namespace perfbench
