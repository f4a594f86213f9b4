#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "bench_suite/iscas.h"
#include "opt/annealing_optimizer.h"

namespace perfbench {
namespace {

namespace nl = minergy::netlist;

// SplitMix64: a fixed, platform-independent stream, so one seed gives the
// same inputs with every standard library.
class SeedStream {
 public:
  SeedStream(std::uint64_t seed, std::uint64_t salt) : s_(seed ^ salt) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

// Latin-hypercube draw: one value from each of n equal strata of [lo, hi),
// in random order. Seeds change which instance gets which value and where in
// its stratum it falls, but every seed covers the range evenly, so aggregate
// figures (energy geomeans, pass times) move little between seeds.
std::vector<double> stratified(SeedStream& rng, int n, double lo, double hi) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    v[static_cast<std::size_t>(k)] =
        lo + (hi - lo) * (k + rng.uniform()) / n;
  }
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
  return v;
}

// The same on a log scale, for quantities whose effect is multiplicative
// (energy is about proportional to activity): every stratum then moves the
// geometric mean by the same amount.
std::vector<double> log_stratified(SeedStream& rng, int n, double lo,
                                   double hi) {
  std::vector<double> v = stratified(rng, n, std::log(lo), std::log(hi));
  for (double& x : v) x = std::exp(x);
  return v;
}

std::string label_of(const std::string& circuit, double activity) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "@%.4f", activity);
  return circuit + buf;
}

Instance paper_instance(const std::string& circuit, double activity) {
  Instance inst;
  inst.circuit = circuit;
  inst.activity = activity;
  inst.label = label_of(circuit, activity);
  return inst;
}

// The 8 paper circuits x {low, high} input activity. Seed 0 is the paper's
// {0.1, 0.5} (the Table-2 rows); other seeds draw one activity per circuit
// from each (geometric) half of [0.05, 0.6].
Workload paper_suite(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "paper_suite";
  w.headline = Headline::kJoint;
  std::vector<std::string> circuits;
  for (const auto& spec : minergy::bench_suite::paper_circuits()) {
    circuits.push_back(spec.name);
  }
  if (tiny) circuits.resize(2);  // s27, s208*
  const int n = static_cast<int>(circuits.size());
  SeedStream rng(seed, 0x7061706572ULL);
  const double mid = std::sqrt(0.05 * 0.6);
  const std::vector<double> lows = log_stratified(rng, n, 0.05, mid);
  const std::vector<double> highs = log_stratified(rng, n, mid, 0.6);
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    w.instances.push_back(
        paper_instance(circuits[c], seed == 0 ? 0.1 : lows[c]));
    w.instances.push_back(
        paper_instance(circuits[c], seed == 0 ? 0.5 : highs[c]));
  }
  return w;
}

// Baseline-warm-started anneals at the default move budget, as
// `minergy_report --optimizer=anneal` runs them, each (circuit, activity)
// with two anneal seeds: two s27 solves for each s298* solve, so the
// per-solve median falls inside the s27 group and the 90th percentile
// inside the s298* group rather than on the gap between them. The seed
// draws the anneal seeds (seed 0: the program's default seed for the first
// three). Activities are fixed, so energies move only with the anneal, and
// the geomean over six anneals averages out much of that.
Workload anneal_small(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "anneal_small";
  w.headline = Headline::kAnneal;
  const minergy::opt::AnnealingOptions defaults;
  w.anneal_moves = tiny ? 1000 : defaults.max_moves;
  const std::pair<const char*, double> solves[] = {
      {"s27", 0.1}, {"s27", 0.5}, {"s298*", 0.3},
      {"s27", 0.1}, {"s27", 0.5}, {"s298*", 0.3}};
  SeedStream rng(seed, 0x616E6E65616CULL);
  for (std::size_t i = 0; i < std::size(solves); ++i) {
    const auto& [circuit, activity] = solves[i];
    Instance inst = paper_instance(circuit, activity);
    inst.anneal_seed = seed == 0 && i < 3 ? defaults.seed : rng.next();
    inst.label.append("#").append(std::to_string(inst.anneal_seed));
    w.instances.push_back(std::move(inst));
  }
  return w;
}

// Three generated networks of 1.5k, 2.75k and 4k gates at depth 20, 30 and
// 40, one activity each (near 0.1, 0.3 and 0.5), solved like paper_suite.
// The networks are fixed: every one of them misses 300 MHz, so its cycle
// time is scaled to 1.1x its own minimum, and at that constraint the
// optimal energy of same-size networks differs up to 9x between generator
// seeds; networks drawn per seed would swamp the energy metrics. The seed
// draws each activity within +-5% and the solve order.
Workload large_random(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "large_random";
  w.headline = Headline::kJoint;
  struct Point {
    int gates, depth;
    double activity;
  };
  const Point full[] = {{1500, 20, 0.1}, {2750, 30, 0.3}, {4000, 40, 0.5}};
  const Point small[] = {{200, 8, 0.1}, {300, 10, 0.3}, {400, 12, 0.5}};
  SeedStream rng(seed, 0x72616E646F6DULL);
  const std::vector<double> jitter = stratified(rng, 3, -0.05, 0.05);
  for (std::size_t k = 0; k < 3; ++k) {
    const Point& p = tiny ? small[k] : full[k];
    Instance inst;
    inst.generated = true;
    nl::GeneratorSpec& g = inst.spec;
    g.num_gates = p.gates;
    g.depth = p.depth;
    g.num_inputs = 32;
    g.num_outputs = 32;
    g.num_dffs = p.gates / 16;
    g.seed = 0x6C617267ULL + k;
    g.name = "rand" + std::to_string(p.gates);
    inst.circuit = g.name;
    inst.activity = p.activity * std::exp(jitter[k]);
    inst.label = label_of(g.name, inst.activity);
    w.instances.push_back(std::move(inst));
  }
  for (std::size_t i = w.instances.size(); i > 1; --i) {
    std::swap(w.instances[i - 1], w.instances[rng.next() % i]);
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  if (name == "paper_suite") return paper_suite(seed, tiny);
  if (name == "anneal_small") return anneal_small(seed, tiny);
  if (name == "large_random") return large_random(seed, tiny);
  throw std::invalid_argument("unknown workload: " + name);
}

nl::Netlist build_netlist(const Instance& inst) {
  return inst.generated ? nl::generate_random_logic(inst.spec)
                        : minergy::bench_suite::make_circuit(inst.circuit);
}

}  // namespace perfbench
