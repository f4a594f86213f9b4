// minergy_perfbench: runs one benchmark workload in one process at the
// program's defaults (no --threads, no --eval-cache: the global pool has
// hardware_concurrency lanes and the evaluation cache is on) and prints one
// JSON record as the last line of standard output.
//
//   minergy_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--scale full|tiny] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends the first half of the time untraced and the rest traced (obs
// counters on, spans recorded, layer calls replayed), and reports the
// per-layer metrics. Exit status: 0 when every solve was certified and every
// repeat bit-identical, 1 otherwise, 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "interconnect/wire_model.h"
#include "obs/metrics.h"
#include "opt/eval_cache.h"
#include "opt/evaluator.h"
#include "solve.h"
#include "spans.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

namespace mg = minergy;
using perfbench::Counters;
using perfbench::Instance;
using perfbench::Replay;
using perfbench::ScopedSpan;
using perfbench::SolveOutcome;
using perfbench::SpanLog;
using perfbench::Workload;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: minergy_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else if (key == "--scale") {
        if (val != "full" && val != "tiny") usage("--scale takes full|tiny");
        o.tiny = val == "tiny";
      } else if (key == "--spans") {
        o.spans_path = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  return o;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::int64_t get(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// Set-up layer latencies of one instance (traced run), microseconds.
struct SetupLayers {
  double netlist_build_us = 0.0;
  double activity_us = 0.0;
  double wire_model_us = 0.0;
  double evaluator_ctor_us = 0.0;
};

// Host CPU time stolen from this machine (by other tenants of a virtual
// machine's host), from /proc/stat: steal and total ticks over all CPUs.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

HostTicks host_ticks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (double x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double steal_frac(const HostTicks& a, const HostTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

// A solve is timed only when the host stole at most this share of the
// machine's CPU time while it ran. Every lane of the pool meets at a barrier
// once per topological level, so a stolen lane stalls the whole solve:
// measured on a 4-vCPU virtual machine, paper_suite solves ran at 1.00x
// (quartiles 0.96-1.05) of their undisturbed time at 0-2% steal, 1.2x at
// 4-6%, 2x at 12-14% and 4x at 18-20%.
constexpr double kStealLimit = 0.02;

struct InstanceRun {
  const Instance* inst = nullptr;
  std::unique_ptr<mg::netlist::Netlist> nl;
  std::vector<perfbench::PhaseSeconds> untraced;  // phase times per solve
  std::vector<double> untraced_steal;  // host steal share during each solve
  std::vector<perfbench::PhaseSeconds> traced;
  int untraced_failed = 0;
  bool have_ref = false;
  SolveOutcome ref;  // first solve: every repeat must match it bit for bit
  bool have_traced = false;
  SolveOutcome traced_ref;  // first traced solve: counters must repeat
  bool have_replay = false;
  Replay replay;
  SetupLayers setup;

  bool has_clean_solve() const {
    return std::any_of(untraced_steal.begin(), untraced_steal.end(),
                       [](double s) { return s <= kStealLimit; });
  }

  // The untraced solves timing is read from: the undisturbed ones, or when
  // the run found none, the least disturbed one(s).
  std::vector<perfbench::PhaseSeconds> timed() const {
    double limit = kStealLimit;
    if (!has_clean_solve() && !untraced_steal.empty()) {
      limit = *std::min_element(untraced_steal.begin(), untraced_steal.end());
    }
    std::vector<perfbench::PhaseSeconds> out;
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      if (untraced_steal[i] <= limit) out.push_back(untraced[i]);
    }
    return out;
  }
};

class Bench {
 public:
  explicit Bench(const Options& o)
      : opts_(o), w_(perfbench::make_workload(o.workload, o.seed, o.tiny)) {
    runs_.resize(w_.instances.size());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      runs_[i].inst = &w_.instances[i];
    }
  }

  // Builds every instance's inputs: the netlist, and an evaluator at the
  // paper's clock (activity propagation, wire model, delay/energy models).
  // Returns the seconds it took. `keep` keeps the netlists for the run.
  double setup_once(bool keep) {
    const mg::bench_suite::ExperimentConfig cfg;
    const double t0 = perfbench::now_us();
    for (InstanceRun& r : runs_) {
      auto nl = std::make_unique<mg::netlist::Netlist>(
          perfbench::build_netlist(*r.inst));
      mg::activity::ActivityProfile profile;
      profile.input_density = r.inst->activity;
      const mg::opt::CircuitEvaluator eval(
          *nl, cfg.tech, profile,
          mg::opt::EvalSettings{.clock_frequency = cfg.clock_frequency});
      if (keep) r.nl = std::move(nl);
    }
    return (perfbench::now_us() - t0) * 1e-6;
  }

  // The set-up's public calls one by one, each timed on its own.
  void traced_setup(SpanLog* log) {
    const mg::bench_suite::ExperimentConfig cfg;
    const ScopedSpan root(log, "setup", 0, -1);
    for (InstanceRun& r : runs_) {
      mg::activity::ActivityProfile profile;
      profile.input_density = r.inst->activity;
      SetupLayers& s = r.setup;
      {
        const ScopedSpan span(log, "netlist.build", 0, root.index());
        s.netlist_build_us = perfbench::median_us(
            [&](std::size_t) { (void)perfbench::build_netlist(*r.inst); });
      }
      {
        const ScopedSpan span(log, "activity.estimate", 0, root.index());
        s.activity_us = perfbench::median_us([&](std::size_t) {
          (void)mg::activity::estimate_activity(*r.nl, profile);
        });
      }
      {
        const ScopedSpan span(log, "interconnect.wire_model", 0,
                              root.index());
        s.wire_model_us = perfbench::median_us([&](std::size_t) {
          const mg::interconnect::WireModel wires(cfg.tech, *r.nl);
        });
      }
      {
        const ScopedSpan span(log, "opt.evaluator.ctor", 0, root.index());
        s.evaluator_ctor_us = perfbench::median_us([&](std::size_t) {
          const mg::opt::CircuitEvaluator eval(
              *r.nl, cfg.tech, profile,
              mg::opt::EvalSettings{.clock_frequency = cfg.clock_frequency});
        });
      }
    }
  }

  // Solves every instance in order, pass after pass, until another pass
  // would end more than half a pass past `budget_s` (but at least
  // `min_passes` passes). Untraced passes go on while some instance has no
  // undisturbed solve yet, up to twice `budget_s`. Returns the number of
  // passes.
  int passes(double budget_s, int min_passes, SpanLog* log,
             bool replay_first_pass) {
    const double t0 = perfbench::now_us();
    for (int pass = 1;; ++pass) {
      double pass_s = 0.0;
      for (InstanceRun& r : runs_) {
        const bool replay = replay_first_pass && pass == 1;
        Replay rep;
        const HostTicks before = host_ticks();
        const SolveOutcome o = perfbench::solve(
            w_, *r.inst, *r.nl, log, ++solve_id_, replay ? &rep : nullptr);
        if (log == nullptr) {
          r.untraced_steal.push_back(steal_frac(before, host_ticks()));
          setup_s_.push_back(setup_once(false));
        }
        if (replay && o.ok) {
          r.replay = rep;
          r.have_replay = true;
        }
        record(r, o, log != nullptr);
        pass_s += o.t.total;
      }
      const double end = (perfbench::now_us() - t0) * 1e-6 + 0.5 * pass_s;
      const bool clean =
          log != nullptr ||
          std::all_of(runs_.begin(), runs_.end(),
                      [](const InstanceRun& r) { return r.has_clean_solve(); });
      if (pass >= min_passes && end >= budget_s &&
          (clean || end >= 2.0 * budget_s)) {
        return pass;
      }
    }
  }

  // Set-up is timed five times before measuring and once more after every
  // untraced solve, so its median samples the host across the whole run
  // rather than one moment of it.
  void run() {
    mg::util::global_pool();  // the lazily built pool is not set-up work
    for (int rep = 0; rep < 5; ++rep) setup_s_.push_back(setup_once(true));
    const double t0 = perfbench::now_us();
    if (!opts_.trace) {
      untraced_passes_ = passes(opts_.seconds, 2, nullptr, false);
      measured_s_ = (perfbench::now_us() - t0) * 1e-6;
      return;
    }
    traced_setup(&log_);
    const double t1 = perfbench::now_us();
    untraced_passes_ = passes(0.5 * opts_.seconds, 1, nullptr, false);
    measured_s_ = (perfbench::now_us() - t1) * 1e-6;
    mg::obs::set_enabled(true);
    passes(opts_.seconds - (perfbench::now_us() - t0) * 1e-6,
           opts_.tiny ? 2 : 1, &log_, true);
    mg::obs::set_enabled(false);
  }

  bool correct() const {
    return failed_ == 0 && !nondeterministic_ && !counters_differ_;
  }

  std::string record_json() const;

  bool write_spans(const std::string& path) const {
    return log_.write_chrome_trace(path);
  }

 private:
  void record(InstanceRun& r, const SolveOutcome& o, bool traced) {
    ++attempted_;
    if (!o.ok) {
      ++failed_;
      note(r.inst->label + ": " + o.failure);
    }
    (traced ? r.traced : r.untraced).push_back(o.t);
    if (!traced && !o.ok) ++r.untraced_failed;
    if (!r.have_ref) {
      r.ref = o;
      r.have_ref = true;
    } else if (!r.ref.same_answer(o)) {
      nondeterministic_ = true;
      note(r.inst->label + ": repeat differs from the first solve");
    }
    if (!traced) return;
    if (!r.have_traced) {
      r.traced_ref = o;
      r.have_traced = true;
    } else {
      ++counter_repeats_;
      if (o.counters != r.traced_ref.counters ||
          o.cycle_time_counters != r.traced_ref.cycle_time_counters) {
        counters_differ_ = true;
        note(r.inst->label + ": work counters differ between passes");
      }
    }
  }

  void note(std::string msg) {
    if (notes_.size() < 20) notes_.push_back(std::move(msg));
  }

  void end_to_end(mg::util::JsonWriter& w) const;
  void per_layer(mg::util::JsonWriter& w) const;
  void stamp(mg::util::JsonWriter& w) const;
  void instances(mg::util::JsonWriter& w) const;

  Options opts_;
  Workload w_;
  std::vector<InstanceRun> runs_;
  SpanLog log_;
  std::uint64_t solve_id_ = 0;
  std::vector<double> setup_s_;  // seconds per set-up
  double measured_s_ = 0.0;
  int untraced_passes_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  int counter_repeats_ = 0;
  bool nondeterministic_ = false;
  bool counters_differ_ = false;
  std::vector<std::string> notes_;
};

void metric(mg::util::JsonWriter& w, const std::string& name, double value,
            const char* unit) {
  w.key(name).begin_object().kv("value", value).kv("unit", unit).end_object();
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

// Median over one instance's solves of one phase time.
double median_of(const std::vector<perfbench::PhaseSeconds>& v,
                 double perfbench::PhaseSeconds::*field) {
  std::vector<double> x;
  for (const perfbench::PhaseSeconds& p : v) x.push_back(p.*field);
  return median(x);
}

// Quantile q of the solve time of one pass over the workload: each
// instance carries the same weight however many timed solves it has, and
// the weighted empirical distribution is interpolated between sample
// midpoints, so the figure moves smoothly when one instance gets faster.
double pass_quantile(const std::vector<std::vector<double>>& per_instance,
                     double q) {
  std::vector<std::pair<double, double>> vw;  // value, weight
  for (const std::vector<double>& xs : per_instance) {
    const double weight = 1.0 / static_cast<double>(xs.size());
    for (double x : xs) vw.emplace_back(x, weight);
  }
  if (vw.empty()) return 0.0;
  std::sort(vw.begin(), vw.end());
  double total = 0.0;
  for (const auto& p : vw) total += p.second;
  double cum = 0.0, prev_pos = 0.0, prev_val = vw.front().first;
  for (std::size_t k = 0; k < vw.size(); ++k) {
    const double pos = (cum + 0.5 * vw[k].second) / total;
    if (q <= pos) {
      if (k == 0) return vw[k].first;
      return prev_val +
             (vw[k].first - prev_val) * (q - prev_pos) / (pos - prev_pos);
    }
    cum += vw[k].second;
    prev_pos = pos;
    prev_val = vw[k].first;
  }
  return vw.back().first;
}

void Bench::end_to_end(mg::util::JsonWriter& w) const {
  std::vector<std::vector<double>> timed_ms;
  std::vector<double> head_fj, base_fj, steal;
  int solves = 0, failed = 0, timed = 0, disturbed = 0;
  double pass_ms = 0.0;
  for (const InstanceRun& r : runs_) {
    std::vector<double> ms;
    for (const perfbench::PhaseSeconds& p : r.timed()) {
      ms.push_back(p.total * 1e3);
    }
    timed += static_cast<int>(ms.size());
    disturbed += r.has_clean_solve() ? 0 : 1;
    pass_ms += median(ms);
    timed_ms.push_back(std::move(ms));
    solves += static_cast<int>(r.untraced.size());
    failed += r.untraced_failed;
    steal.insert(steal.end(), r.untraced_steal.begin(), r.untraced_steal.end());
    if (r.have_ref && r.ref.ok) {
      head_fj.push_back(r.ref.headline_energy * 1e15);
      base_fj.push_back(r.ref.baseline_energy * 1e15);
    }
  }
  const double certified =
      solves > 0 ? static_cast<double>(solves - failed) / solves : 0.0;
  const double p90 = pass_quantile(timed_ms, 0.9);
  std::int64_t beyond = 0;
  for (const std::vector<double>& ms : timed_ms) {
    beyond += std::count_if(ms.begin(), ms.end(),
                            [&](double x) { return x > p90; });
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  w.key("metrics").begin_object();
  metric(w, "setup_s", median(setup_s_), "s");
  metric(w, "solve_ms_p50", pass_quantile(timed_ms, 0.5), "ms");
  metric(w, "solve_ms_p90", p90, "ms");
  // A pass solves every instance once: instances per second of a pass at
  // each instance's median timed solve.
  const double n = static_cast<double>(runs_.size());
  metric(w, "solves_per_s", pass_ms > 0.0 ? certified * n * 1e3 / pass_ms : 0.0,
         "1/s");
  metric(w, "energy_geomean_fj", geomean(head_fj), "fJ");
  metric(w, "baseline_energy_geomean_fj", geomean(base_fj), "fJ");
  metric(w, "certified_frac", certified, "frac");
  metric(w, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  w.end_object();
  w.key("samples").begin_object()
      .kv("solves", solves)
      .kv("timed_solves", timed)
      .kv("instances_without_undisturbed_solve", disturbed)
      .kv("beyond_p90", beyond)
      .kv("median_steal_frac", median(steal))
      .kv("passes", untraced_passes_)
      .kv("measured_s", measured_s_)
      .kv("setup_reps", setup_s_.size())
      .kv("solve_fail_frac", 1.0 - certified)
      .end_object();
}

// Per-layer figures. Counts come from the first traced pass (one solve per
// instance) and are exact per-solve means. Latencies are replay medians,
// weighted across instances by each instance's call count. Shares divide
// by the untraced solve time: the choose_cycle_time and evaluator
// construction phases are timed directly; the other layers are outside-in
// estimates, replay latency x calls made outside choose_cycle_time.
void Bench::per_layer(mg::util::JsonWriter& w) const {
  const double n = static_cast<double>(runs_.size());
  Counters tot;
  double solve_s = 0.0, traced_s = 0.0, cct_s = 0.0, ctor_s = 0.0;
  // Weighted latency sums: sum(latency_i * calls_i) and sum(calls_i).
  struct Acc {
    double lat_calls = 0.0, calls = 0.0;
    void add(double lat, double c) { lat_calls += lat * c; calls += c; }
    double mean() const { return calls > 0.0 ? lat_calls / calls : 0.0; }
  } budget, size, recover, sta, eval_sta, overhead, energy, eval_energy,
      energy_overhead, pool, mct;
  SetupLayers setup_mean;
  for (const InstanceRun& r : runs_) {
    const Counters& c = r.traced_ref.counters;
    const Counters& cct = r.traced_ref.cycle_time_counters;
    for (const auto& [k, v] : c) tot[k] += v;
    const std::vector<perfbench::PhaseSeconds> timed = r.timed();
    solve_s += median_of(timed, &perfbench::PhaseSeconds::total);
    traced_s += median_of(r.traced, &perfbench::PhaseSeconds::total);
    cct_s += median_of(timed, &perfbench::PhaseSeconds::choose_cycle_time);
    ctor_s += median_of(timed, &perfbench::PhaseSeconds::evaluator_ctor);
    setup_mean.netlist_build_us += r.setup.netlist_build_us / n;
    setup_mean.activity_us += r.setup.activity_us / n;
    setup_mean.wire_model_us += r.setup.wire_model_us / n;
    setup_mean.evaluator_ctor_us += r.setup.evaluator_ctor_us / n;
    if (!r.have_replay) continue;
    const Replay& p = r.replay;
    // Calls made after choose_cycle_time.
    const auto calls = [&](const char* name) {
      return static_cast<double>(get(c, name) - get(cct, name));
    };
    const double logic = static_cast<double>(r.nl->num_combinational());
    budget.add(p.budget_us,
               calls("opt.baseline.runs") + calls("opt.joint.runs"));
    size.add(p.size_us, calls("opt.sizer.size_calls"));
    recover.add(p.recover_us, calls("opt.sizer.recover_calls"));
    sta.add(p.sta_us, calls("timing.sta.runs"));
    eval_sta.add(p.eval_sta_us, calls("opt.eval.sta_calls"));
    overhead.add(std::max(0.0, p.eval_sta_us - p.sta_us),
                 calls("opt.eval.sta_calls"));
    energy.add(p.energy_us, calls("power.energy.gate_evals") / logic);
    eval_energy.add(p.eval_energy_us, calls("opt.eval.energy_calls"));
    energy_overhead.add(std::max(0.0, p.eval_energy_us - p.energy_us),
                        calls("opt.eval.energy_calls"));
    pool.add(p.pool_us, 1.0);
    mct.add(p.min_cycle_time_us, 1.0);
  }
  // Phase means over every traced solve: the spans directly under "solve".
  std::map<std::string, double> phase_s;
  double traced_solves = 0.0;
  for (const perfbench::SpanRecord& s : log_.spans()) {
    if (s.name == "solve") traced_solves += 1.0;
    if (s.parent < 0 ||
        log_.spans()[static_cast<std::size_t>(s.parent)].name != "solve") {
      continue;
    }
    phase_s[s.name] += (s.end_us - s.start_us) * 1e-6;
  }
  const double per_ms = traced_solves > 0.0 ? 1e3 / traced_solves : 0.0;
  const auto phase_ms = [&](const char* name) {
    const auto it = phase_s.find(name);
    return it == phase_s.end() ? 0.0 : it->second * per_ms;
  };
  const auto per_solve = [&](const char* name) {
    return static_cast<double>(get(tot, name)) / n;
  };
  const double hits = static_cast<double>(get(tot, "opt.eval.cache.hits"));
  const double misses =
      static_cast<double>(get(tot, "opt.eval.cache.misses"));
  const double jobs = static_cast<double>(get(tot, "util.pool.jobs"));

  w.key("metrics").begin_object();
  metric(w, "bench_suite.choose_cycle_time_ms",
         phase_ms("bench_suite.choose_cycle_time"), "ms");
  metric(w, "opt.evaluator.min_cycle_time_ms", mct.mean() * 1e-3, "ms");
  metric(w, "timing.budget_us", budget.mean(), "us");
  metric(w, "opt.baseline.run_ms", phase_ms("opt.baseline.run"), "ms");
  metric(w, "opt.joint.run_ms", phase_ms("opt.joint.run"), "ms");
  metric(w, "opt.anneal.run_ms", phase_ms("opt.anneal.run"), "ms");
  metric(w, "opt.certify_ms", phase_ms("opt.certify"), "ms");
  metric(w, "opt.sizer.size_us", size.mean(), "us");
  metric(w, "opt.sizer.recover_us", recover.mean(), "us");
  for (const char* name :
       {"opt.sizer.width_searches", "timing.delay.gate_evals",
        "opt.sizer.size_calls", "opt.sizer.recover_calls"}) {
    metric(w, name, per_solve(name), "count");
  }
  metric(w, "timing.sta_us", sta.mean(), "us");
  metric(w, "opt.evaluator.sta_us", eval_sta.mean(), "us");
  metric(w, "timing.sta.runs", per_solve("timing.sta.runs"), "count");
  metric(w, "util.pool.parallel_for_us", pool.mean(), "us");
  metric(w, "util.pool.jobs", per_solve("util.pool.jobs"), "count");
  metric(w, "util.pool.tasks_per_job",
         jobs > 0.0 ? static_cast<double>(get(tot, "util.pool.tasks")) / jobs
                    : 0.0,
         "ratio");
  metric(w, "opt.eval.cache.hit_ratio",
         hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  metric(w, "opt.eval.cache.lookups", (hits + misses) / n, "count");
  metric(w, "opt.evaluator.overhead_us", overhead.mean(), "us");
  metric(w, "power.energy_us", energy.mean(), "us");
  metric(w, "opt.evaluator.energy_us", eval_energy.mean(), "us");
  metric(w, "power.energy.gate_evals", per_solve("power.energy.gate_evals"),
         "count");
  metric(w, "activity.estimate_us", setup_mean.activity_us, "us");
  metric(w, "interconnect.wire_model_us", setup_mean.wire_model_us, "us");
  metric(w, "opt.evaluator.ctor_us", setup_mean.evaluator_ctor_us, "us");
  metric(w, "netlist.build_us", setup_mean.netlist_build_us, "us");
  for (const char* name :
       {"opt.joint.probes", "opt.baseline.probes", "opt.anneal.moves",
        "opt.eval.sta_calls", "opt.eval.energy_calls"}) {
    metric(w, name, per_solve(name), "count");
  }
  const auto us_share = [&](const Acc& a) {
    return solve_s > 0.0 ? a.lat_calls * 1e-6 / solve_s : 0.0;
  };
  const std::pair<const char*, double> shares[] = {
      {"share.bench_suite.choose_cycle_time",
       solve_s > 0.0 ? cct_s / solve_s : 0.0},
      {"share.opt.evaluator.ctor", solve_s > 0.0 ? ctor_s / solve_s : 0.0},
      {"share.timing.budget", us_share(budget)},
      {"share.opt.sizer.size", us_share(size)},
      {"share.opt.sizer.recover", us_share(recover)},
      {"share.timing.sta", us_share(sta)},
      {"share.opt.evaluator.sta_overhead", us_share(overhead)},
      {"share.power.energy", us_share(energy)},
      {"share.opt.evaluator.energy_overhead", us_share(energy_overhead)},
  };
  double attributed = 0.0;
  for (const auto& [name, value] : shares) {
    metric(w, name, value, "frac");
    attributed += value;
  }
  metric(w, "share.unattributed", 1.0 - attributed, "frac");
  metric(w, "trace_overhead_frac",
         solve_s > 0.0 ? traced_s / solve_s - 1.0 : 0.0, "frac");
  w.end_object();
  w.key("traced").begin_object()
      .kv("solves", static_cast<std::int64_t>(traced_solves))
      .kv("counter_repeats_compared", counter_repeats_)
      .key("counters_first_pass")
      .begin_object();
  for (const auto& [k, v] : tot) w.kv(k, v);
  w.end_object().end_object();
}

void Bench::stamp(mg::util::JsonWriter& w) const {
  w.key("stamp").begin_object()
      .kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .kv("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .kv("global_threads", mg::util::global_threads())
      .kv("eval_cache_enabled", mg::opt::eval_cache_enabled())
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("cxx_flags", PERFBENCH_CXX_FLAGS)
      .kv("compiler", PERFBENCH_COMPILER)
      .end_object();
}

void Bench::instances(mg::util::JsonWriter& w) const {
  w.key("instances").begin_array();
  for (const InstanceRun& r : runs_) {
    const Instance& i = *r.inst;
    w.begin_object()
        .kv("label", i.label)
        .kv("circuit", i.circuit)
        .kv("gates", r.nl->num_combinational())
        .kv("activity", i.activity);
    if (w_.headline == perfbench::Headline::kAnneal) {
      w.kv("anneal_seed", static_cast<std::int64_t>(i.anneal_seed))
          .kv("anneal_moves", w_.anneal_moves);
    }
    if (i.generated) {
      w.key("generator").begin_object()
          .kv("name", i.spec.name)
          .kv("num_gates", i.spec.num_gates)
          .kv("depth", i.spec.depth)
          .kv("num_inputs", i.spec.num_inputs)
          .kv("num_outputs", i.spec.num_outputs)
          .kv("num_dffs", i.spec.num_dffs)
          .kv("seed", std::to_string(i.spec.seed))
          .end_object();
    }
    if (r.have_ref) {
      w.kv("ok", r.ref.ok)
          .kv("cycle_time_s", r.ref.cycle_time)
          .kv("tc_scaled", r.ref.tc_scaled)
          .kv("baseline_fj", r.ref.baseline_energy * 1e15)
          .kv("headline_fj", r.ref.headline_energy * 1e15)
          .kv("baseline_evals", r.ref.baseline_evals)
          .kv("headline_evals", r.ref.headline_evals);
    }
    w.kv("timed_median_ms",
         median_of(r.timed(), &perfbench::PhaseSeconds::total) * 1e3);
    w.key("untraced_ms").begin_array();  // one per pass, in pass order
    for (const perfbench::PhaseSeconds& p : r.untraced) w.value(p.total * 1e3);
    w.end_array();
    w.key("untraced_steal").begin_array();
    for (double s : r.untraced_steal) w.value(s);
    w.end_array();
    if (!r.traced.empty()) {
      w.kv("traced_median_ms",
           median_of(r.traced, &perfbench::PhaseSeconds::total) * 1e3);
    }
    w.end_object();
  }
  w.end_array();
}

std::string Bench::record_json() const {
  mg::util::JsonWriter w;
  w.begin_object()
      .kv("schema", "minergy.perfbench.v1")
      .kv("workload", w_.name)
      .kv("seed", std::to_string(opts_.seed))
      .kv("seconds", opts_.seconds)
      .kv("trace", opts_.trace ? 1 : 0)
      .kv("scale", opts_.tiny ? "tiny" : "full")
      .kv("correct", correct())
      .kv("attempted", attempted_)
      .kv("failed", failed_)
      .kv("nondeterministic", nondeterministic_)
      .kv("counters_differ", counters_differ_);
  w.key("notes").begin_array();
  for (const std::string& s : notes_) w.value(s);
  w.end_array();
  stamp(w);
  instances(w);
  if (opts_.trace) {
    per_layer(w);
  } else {
    end_to_end(w);
  }
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  try {
    Bench bench(opts);
    bench.run();
    if (opts.trace && !opts.spans_path.empty() &&
        !bench.write_spans(opts.spans_path)) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opts.spans_path.c_str());
    }
    std::printf("%s\n", bench.record_json().c_str());
    return bench.correct() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
