// minergy_batch: certified batch runs of the optimizer portfolio.
//
// A thin front end over the optimization service (src/serve/). Every
// (circuit, optimizer) pair becomes one serve::Job in a scratch spool beside
// the report (<report>.spool), and an in-process serve::Supervisor runs the
// jobs one at a time, each in its own `minergy_batch --worker` subprocess:
// a crash, hang or NaN-storm in one netlist cannot take the batch down. The
// supervisor supplies the SIGKILL timeout, the perturbed-seed retries under
// exponential backoff and the quarantine; every result is certified
// independently by the shared solve path (bench_suite::solve). The
// machine-readable report (schema minergy.batch_report.v1) is rendered from
// the spool's records in submission order; it lists every attempt, embeds
// each completed job's minergy.job_result.v1 envelope (certificate
// included), and names the quarantined circuits. The spool is removed once
// the report is written.
//
//   $ minergy_batch --circuits=s27,s298*,s344* --report=batch.json
//   $ minergy_batch --circuits=s27 --optimizers=robust,anneal --timeout=60
//   $ minergy_batch --verify-report=batch.json --expect-quarantined=s420*
//
// Flags (batch mode):
//   --circuits=A,B,...    suite to run (default s27,s298*,s344*)
//   --optimizers=K,...    portfolio per circuit: robust | joint | baseline |
//                         anneal (default robust)
//   --fc=HZ --activity=D  experiment knobs (defaults 300e6, 0.3)
//   --seed=S              base seed; retries perturb it (default 1)
//   --retries=N           extra attempts after the first (default 2)
//   --timeout=SECONDS     per-attempt wall clock (default 300)
//   --backoff=SECONDS     base backoff; retry k waits backoff * 2^(k-1)
//                         (default 0.5)
//   --threads=N           evaluation threads per worker (default 0 =
//                         hardware concurrency)
//   --report=FILE         batch report JSON (default minergy_batch.json)
//   --inject-hang=NAME    test hook: the worker for NAME sleeps forever,
//                         exercising timeout -> retry -> quarantine
//
// Verification mode (for CI): --verify-report=FILE validates the schema and
// that every non-quarantined circuit is feasible AND certified;
// --expect-quarantined=NAME additionally requires NAME on the quarantine
// list; --min-circuits=N requires at least N circuit entries;
// --allow-interrupted accepts a report flushed by an interrupted batch.
//
// SIGTERM/SIGINT interrupt the batch gracefully: the supervisor kills and
// reaps the in-flight worker, the report is still flushed (valid schema,
// top-level "interrupted": true, every unfinished job marked status
// "interrupted"), and the process exits with the distinct code 3.
//
// Exit codes: 0 success (quarantines alone do not fail the batch),
// 1 a completed result is infeasible/uncertified or verification failed,
// 2 bad arguments / unreadable input, 3 interrupted by SIGTERM/SIGINT.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/envelope.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/strings.h"

using namespace minergy;

namespace {

constexpr const char* kReportSchema = "minergy.batch_report.v1";

constexpr const char* kUsage =
    "usage: minergy_batch [--circuits=A,B,...] [--optimizers=K,...]\n"
    "                     [--seed=S] [--retries=N] [--timeout=S]\n"
    "                     [--backoff=S] [--fc=HZ] [--activity=D]\n"
    "                     [--report=FILE] [--inject-hang=NAME]\n"
    "                     [--threads=N]\n"
    "       minergy_batch --verify-report=FILE [--min-circuits=N]\n"
    "                     [--expect-quarantined=NAME] [--allow-interrupted]\n"
    "  exit codes: 0 ok, 1 validation failure, 2 usage error,\n"
    "              3 interrupted (SIGTERM/SIGINT; partial report flushed)\n";

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out = util::split(csv, ',');
  std::erase(out, std::string());
  return out;
}

// One submitted job as the supervisor left it.
struct CircuitRun {
  serve::Job job;      // circuit, optimizer and the attempts journal
  std::string status;  // "ok" | "quarantined" | "interrupted"
  util::JsonValue result;  // the job_result.v1 envelope when status == "ok"
};

// Reads job `id` back from whichever spool state holds it. done/, or a
// failed/ record carrying a complete envelope (an infeasible or uncertified
// answer), is a result; any other terminal record is a quarantine; a job
// still pending or running was cut short by a drain.
CircuitRun read_run(const serve::SpoolQueue& queue, const std::string& id) {
  for (const char* state :
       {"done", "failed", "quarantined", "pending", "running"}) {
    const std::string path = queue.job_path(state, id);
    if (!std::filesystem::exists(path)) continue;
    const std::string text = io::read_artifact(path, serve::kJobSchema);
    const util::JsonValue record = util::JsonValue::parse(text, path);
    CircuitRun run;
    run.job = serve::Job::from_json(text, path);
    const std::string s = state;
    if (s == "pending" || s == "running") {
      run.status = "interrupted";
    } else if (record.has("result") &&
               record.at("result").get_bool("ok", false) &&
               s != "quarantined") {
      run.status = "ok";
      run.result = record.at("result");
    } else {
      run.status = "quarantined";
    }
    return run;
  }
  throw std::runtime_error("job " + id + " vanished from " + queue.root());
}

void emit_report(const std::string& path,
                 const std::vector<CircuitRun>& runs, double total_wall,
                 bool interrupted) {
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kReportSchema);
  w.kv("total_wall_seconds", total_wall);
  w.kv("interrupted", interrupted);
  w.key("circuits").begin_array();
  for (const CircuitRun& run : runs) {
    w.begin_object();
    w.kv("circuit", run.job.circuit);
    w.kv("optimizer", run.job.optimizer);
    w.kv("status", run.status);
    w.key("attempts").begin_array();
    for (const serve::JobAttempt& a : run.job.attempts) {
      w.begin_object();
      w.kv("seed", static_cast<double>(a.seed));
      w.kv("outcome", a.outcome);
      w.kv("exit_code", a.exit_code);
      w.kv("wall_seconds", a.wall_seconds);
      w.kv("backoff_seconds", a.backoff_seconds);
      w.end_object();
    }
    w.end_array();
    if (run.status == "ok") {
      w.key("result");
      util::emit(w, run.result);
    }
    w.end_object();
  }
  w.end_array();
  w.key("quarantined").begin_array();
  for (const CircuitRun& run : runs) {
    if (run.status == "quarantined") w.value(run.job.circuit);
  }
  w.end_array();
  w.end_object();
  io::write_artifact(path, kReportSchema, w.str() + "\n");
}

int run_batch(const util::Cli& cli) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::string> circuits =
      split_list(cli.get("circuits", std::string("s27,s298*,s344*")));
  const std::vector<std::string> optimizers =
      split_list(cli.get("optimizers", std::string("robust")));
  if (circuits.empty() || optimizers.empty()) {
    std::fprintf(stderr, "error: empty --circuits or --optimizers\n");
    return 2;
  }
  const std::string report_path =
      cli.get("report", std::string("minergy_batch.json"));
  const std::string hang = cli.get("inject-hang", std::string());
  // A fresh spool per batch: leftovers of an earlier (killed) batch must not
  // leak into this report.
  const std::string spool = report_path + ".spool";
  std::filesystem::remove_all(spool);
  serve::SpoolOptions sopts;
  sopts.max_pending = circuits.size() * optimizers.size();
  serve::SpoolQueue queue(spool, sopts);
  serve::Job knobs;
  knobs.seed = static_cast<std::uint64_t>(cli.get("seed", 1.0));
  knobs.clock_frequency = cli.get("fc", 300e6);
  knobs.activity = cli.get("activity", 0.3);
  std::vector<std::string> ids;
  for (const std::string& circuit : circuits) {
    for (const std::string& optimizer : optimizers) {
      serve::Job job = knobs;
      job.circuit = circuit;
      job.optimizer = optimizer;
      if (circuit == hang) job.inject = "hang";
      ids.push_back(queue.submit(std::move(job)));
    }
  }

  serve::SupervisorOptions opts;  // workers re-exec this binary
  opts.workers = 1;
  opts.once = true;
  opts.worker_threads = cli.get("threads", 0);
  opts.timeout_seconds = cli.get("timeout", 300.0);
  opts.max_retries = cli.get("retries", 2);
  opts.backoff_seconds = cli.get("backoff", 0.5);
  // An interrupt stops the batch now: the in-flight worker is killed, not
  // given a grace period.
  opts.drain_grace_seconds = 0.0;
  // Every (circuit, optimizer) gets its full retry budget; the crash-loop
  // breaker would short-circuit a hung circuit's remaining optimizers.
  opts.breaker.threshold = std::numeric_limits<int>::max();
  serve::Supervisor(queue, opts).run();

  std::vector<CircuitRun> runs;
  bool interrupted = false;
  bool any_bad_result = false;
  std::size_t quarantined = 0;
  for (const std::string& id : ids) {
    CircuitRun run = read_run(queue, id);
    const char* circuit = run.job.circuit.c_str();
    const char* optimizer = run.job.optimizer.c_str();
    if (run.status == "interrupted") {
      interrupted = true;
      std::fprintf(stderr, "batch: interrupted before %s/%s finished\n",
                   circuit, optimizer);
    } else if (run.status == "quarantined") {
      ++quarantined;
      std::fprintf(stderr, "batch: QUARANTINED %s/%s after %zu attempts\n",
                   circuit, optimizer, run.job.attempts.size());
    } else {
      const bool feasible = run.result.get_bool("feasible", false);
      const bool certified = run.result.get_bool("certified", false);
      if (!feasible || !certified) any_bad_result = true;
      std::printf("%-8s %-9s %-6s E %.4g J/cycle  tier %-11s %s\n", circuit,
                  optimizer, feasible ? "ok" : "INFEAS",
                  run.result.get_number("energy_total", 0.0),
                  run.result.get_string("tier", "?").c_str(),
                  certified ? "certified" : "UNCERTIFIED");
    }
    runs.push_back(std::move(run));
  }

  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  emit_report(report_path, runs, total_wall, interrupted);
  std::filesystem::remove_all(spool);
  std::printf("batch: %zu run(s), %zu quarantined%s, report %s\n",
              runs.size(), quarantined, interrupted ? ", INTERRUPTED" : "",
              report_path.c_str());
  // Quarantine is a contained failure (reported, not fatal); a completed
  // but infeasible/uncertified result is a wrong answer and fails the batch.
  if (any_bad_result) return 1;
  return interrupted ? 3 : 0;
}

// ------------------------------------------------------------ verification

int verify_report(const util::Cli& cli) {
  const std::string path = cli.get("verify-report", std::string());
  std::string text;
  try {
    text = io::read_artifact(path, kReportSchema);
  } catch (const io::IntegrityError& e) {
    // The file exists but its envelope fails: that is a verdict about the
    // report's content (exit 1), not a caller mistake (exit 2).
    std::fprintf(stderr, "verify: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    const util::JsonValue root = util::JsonValue::parse(text, path);
    if (root.get_string("schema", "") != kReportSchema) {
      std::fprintf(stderr, "verify: bad schema '%s'\n",
                   root.get_string("schema", "").c_str());
      return 1;
    }
    const auto& circuits = root.at("circuits").items();
    const int min_circuits = cli.get("min-circuits", 1);
    if (circuits.size() < static_cast<std::size_t>(min_circuits)) {
      std::fprintf(stderr, "verify: only %zu circuit entries (need %d)\n",
                   circuits.size(), min_circuits);
      return 1;
    }
    if (root.get_bool("interrupted", false) &&
        !cli.has("allow-interrupted")) {
      std::fprintf(stderr,
                   "verify: report is from an interrupted batch "
                   "(pass --allow-interrupted to accept)\n");
      return 1;
    }
    for (const util::JsonValue& c : circuits) {
      const std::string status = c.get_string("status", "");
      if (status == "quarantined" || status == "interrupted") continue;
      if (status != "ok" || !c.has("result")) {
        std::fprintf(stderr, "verify: %s has status '%s' and no result\n",
                     c.get_string("circuit", "?").c_str(), status.c_str());
        return 1;
      }
      const util::JsonValue& res = c.at("result");
      if (!res.get_bool("feasible", false) ||
          !res.get_bool("certified", false)) {
        std::fprintf(stderr, "verify: %s is infeasible or uncertified: %s\n",
                     c.get_string("circuit", "?").c_str(),
                     res.at("certificate").get_string("detail", "").c_str());
        return 1;
      }
    }
    const std::string expect = cli.get("expect-quarantined", std::string());
    if (!expect.empty()) {
      bool found = false;
      for (const util::JsonValue& q : root.at("quarantined").items()) {
        if (q.as_string() == expect) found = true;
      }
      if (!found) {
        std::fprintf(stderr, "verify: expected '%s' on the quarantine list\n",
                     expect.c_str());
        return 1;
      }
    }
    std::printf("verify: %s OK (%zu circuit entries)\n", path.c_str(),
                circuits.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify: malformed report: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (cli.has("worker")) return serve::run_worker_mode(cli);
  if (cli.has("verify-report")) return verify_report(cli);
  obs::Session session(cli, "minergy_batch");
  obs::set_enabled(true);
  return run_batch(cli);
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
