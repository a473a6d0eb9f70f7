#include "runner/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "fault/fault_injector.h"
#include "instrument/swarm_probe.h"
#include "instrument/trace.h"
#include "peer/peer.h"
#include "sim/rng.h"

#ifndef SWARMLAB_GIT_DESCRIBE
#define SWARMLAB_GIT_DESCRIBE "unknown"
#endif

namespace swarmlab::runner {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const char* observation_scope_name(swarm::ObservationPlan::Scope scope) {
  switch (scope) {
    case swarm::ObservationPlan::Scope::kLocal: return "local";
    case swarm::ObservationPlan::Scope::kSampled: return "sampled";
    case swarm::ObservationPlan::Scope::kAll: return "all";
  }
  return "local";
}

RunResult failure_result(const BatchJob& job, int attempt,
                         std::string error) {
  RunResult r;
  r.id = job.id;
  r.name = job.name;
  r.seed = job.seed;
  r.backend = job.config.network_backend;
  r.status = JobStatus::kFailed;
  r.attempts = attempt;
  r.error = std::move(error);
  return r;
}

/// Runs one job with exception containment and the deterministic retry
/// policy: every attempt re-runs the job on its ORIGINAL seed (a
/// deterministic failure fails identically — the honest answer — while
/// environmental or attempt-limited hostile failures get a clean rerun).
RunResult execute_job(const JobFnCtx& fn, const BatchJob& job,
                      const BatchOptions& opts) {
  RunResult r;
  const int max_attempts = 1 + std::max(0, opts.retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    JobContext ctx;
    ctx.attempt = attempt;
    ctx.monitor = opts.monitor;
    if (opts.job_timeout > 0.0) ctx.monitor.wall_budget = opts.job_timeout;
    try {
      r = fn(job, ctx);
      r.attempts = std::max(r.attempts, attempt);
    } catch (const std::exception& e) {
      r = failure_result(job, attempt, e.what());
    } catch (...) {
      r = failure_result(job, attempt, "unknown exception");
    }
    if (r.ok()) break;
  }
  return r;
}

/// JSONL checkpoint: a header line, then one complete result entry per
/// finished job, appended and flushed as each job completes so a killed
/// process loses at most the jobs still in flight. A torn final line
/// (the kill landed mid-write) parses as garbage and is skipped on
/// resume; a header that does not match this sweep (different master
/// seed or schema) invalidates the whole file and it is started fresh.
class Checkpoint {
 public:
  void open(const std::string& path, std::uint64_t master_seed) {
    bool header_ok = false;
    {
      std::ifstream in(path);
      std::string line;
      bool first = true;
      while (in && std::getline(in, line)) {
        if (line.empty()) continue;
        json::Value v;
        if (!json::parse(line, &v)) continue;  // torn tail line
        if (first) {
          first = false;
          const json::Value* schema = v.find("schema");
          const json::Value* seed = v.find("master_seed");
          header_ok = schema != nullptr && schema->is_string() &&
                      schema->as_string() == kCheckpointSchema &&
                      seed != nullptr && seed->is_number() &&
                      seed->as_uint64() == master_seed;
          if (!header_ok) {
            std::fprintf(stderr,
                         "batch: checkpoint %s belongs to a different "
                         "sweep (header mismatch); starting fresh\n",
                         path.c_str());
            break;
          }
          continue;
        }
        RunResult r;
        // Only completed entries are reusable; failed/wedged attempts
        // are re-run on resume. Later duplicates win (a resumed run
        // appends behind the entries of the interrupted one).
        if (result_from_entry(v, &r) && r.ok()) {
          entries_[r.id] = std::move(r);
        }
      }
    }
    out_.open(path, header_ok ? (std::ios::out | std::ios::app)
                              : (std::ios::out | std::ios::trunc));
    if (!out_) {
      throw std::runtime_error("batch: cannot open checkpoint " + path +
                               " for writing");
    }
    if (!header_ok) {
      json::Value header = json::Value::object();
      header["schema"] = kCheckpointSchema;
      header["master_seed"] = master_seed;
      out_ << dump(header) << '\n';
      out_.flush();
    }
  }

  [[nodiscard]] bool active() const { return out_.is_open(); }

  /// The cached result for `job`, or nullptr. Identity is the full
  /// (id, name, seed, backend) tuple so a stale checkpoint from an
  /// edited sweep never leaks a wrong trajectory into the report.
  [[nodiscard]] const RunResult* find(const BatchJob& job) const {
    const auto it = entries_.find(job.id);
    if (it == entries_.end()) return nullptr;
    const RunResult& r = it->second;
    if (r.name != job.name || r.seed != job.seed ||
        r.backend != job.config.network_backend) {
      return nullptr;
    }
    return &r;
  }

  void append(const RunResult& r) {
    if (!out_.is_open()) return;
    const std::string line = dump(result_entry(r, /*include_text=*/true));
    const std::lock_guard<std::mutex> lock(mu_);
    out_ << line << '\n';
    out_.flush();
  }

 private:
  std::map<int, RunResult> entries_;
  std::ofstream out_;
  std::mutex mu_;
};

JobStatus status_from_trip(sim::MonitorTrip trip) {
  switch (trip) {
    case sim::MonitorTrip::kWallBudget:
    case sim::MonitorTrip::kCancelled:
      return JobStatus::kTimeout;
    default:
      return JobStatus::kWedged;
  }
}

/// Self-rescheduling hostile event: step == 0 freezes simulated time
/// (livelock → kWedged), a tiny step crawls it forward so only the wall
/// budget can end the run (→ kTimeout).
struct HostileLoop {
  sim::Simulation* sim;
  double step;
  void operator()() const { sim->schedule_in(step, *this); }
};

void arm_hostility(sim::Simulation& sim, const HostileSpec& spec) {
  switch (spec.mode) {
    case HostileSpec::Mode::kNone:
      break;
    case HostileSpec::Mode::kThrow:
      sim.schedule_at(spec.at, [] {
        throw std::runtime_error("hostile job: induced crash");
      });
      break;
    case HostileSpec::Mode::kWedge:
      sim.schedule_at(spec.at, HostileLoop{&sim, 0.0});
      break;
    case HostileSpec::Mode::kSpin:
      sim.schedule_at(spec.at, HostileLoop{&sim, 1e-6});
      break;
  }
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kWedged: return "wedged";
    case JobStatus::kTimeout: return "timeout";
  }
  return "unknown";
}

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs,
                                        const JobFnCtx& fn,
                                        const ResultFn& on_result) {
  const auto start = Clock::now();
  const std::size_t n = jobs.size();
  std::vector<RunResult> results(n);
  std::vector<char> done(n, 0);
  resumed_jobs_ = 0;

  Checkpoint ckpt;
  if (!opts_.checkpoint_path.empty()) {
    ckpt.open(opts_.checkpoint_path, opts_.master_seed);
    for (std::size_t i = 0; i < n; ++i) {
      if (const RunResult* cached = ckpt.find(jobs[i])) {
        results[i] = *cached;
        done[i] = 1;
        ++resumed_jobs_;
      }
    }
  }

  const int workers =
      static_cast<int>(std::min<std::size_t>(
          n, static_cast<std::size_t>(opts_.jobs > 1 ? opts_.jobs : 1)));
  if (workers <= 1) {
    // Inline path: identical semantics (results stream in submission
    // order), no thread machinery.
    for (std::size_t i = 0; i < n; ++i) {
      if (!done[i]) {
        results[i] = execute_job(fn, jobs[i], opts_);
        ckpt.append(results[i]);
      }
      if (on_result) on_result(results[i]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;

    const auto work = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (done[i]) continue;  // satisfied from the checkpoint
        RunResult r = execute_job(fn, jobs[i], opts_);
        ckpt.append(r);  // completion order; its own mutex + flush
        {
          const std::lock_guard<std::mutex> lock(mu);
          results[i] = std::move(r);
          done[i] = 1;
        }
        done_cv.notify_one();
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(work);

    // The calling thread merges: it emits each result as soon as every
    // earlier one has been emitted, so downstream consumers see
    // submission order regardless of completion order.
    {
      std::unique_lock<std::mutex> lock(mu);
      for (std::size_t emit = 0; emit < n; ++emit) {
        done_cv.wait(lock, [&] { return done[emit] != 0; });
        if (on_result) {
          lock.unlock();
          on_result(results[emit]);
          lock.lock();
        }
      }
    }
    for (auto& t : pool) t.join();
  }

  wall_seconds_ = seconds_since(start);
  return results;
}

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs,
                                        const JobFn& fn,
                                        const ResultFn& on_result) {
  return run(
      jobs,
      [&fn](const BatchJob& job, const JobContext&) { return fn(job); },
      on_result);
}

std::string failure_summary(const std::vector<RunResult>& results) {
  std::string lines;
  int failed = 0;
  for (const RunResult& r : results) {
    if (r.ok()) continue;
    ++failed;
    char buf[96];
    std::snprintf(buf, sizeof buf, "  job %d (%s): %s after %d attempt%s: ",
                  r.id, r.name.c_str(), to_string(r.status), r.attempts,
                  r.attempts == 1 ? "" : "s");
    lines += buf;
    lines += r.error.empty() ? "(no detail)" : r.error;
    lines += '\n';
  }
  if (failed == 0) return "";
  char head[96];
  std::snprintf(head, sizeof head, "%d of %zu job%s did not complete:\n",
                failed, results.size(), results.size() == 1 ? "" : "s");
  return head + lines;
}

RunResult run_scenario_job(const BatchJob& job, const JobContext& ctx,
                           double extra_after, const AnalyzeFn& analyze) {
  RunResult res;
  res.id = job.id;
  res.name = job.name;
  res.seed = job.seed;
  res.backend = job.config.network_backend;
  res.attempts = ctx.attempt;

  const auto t0 = Clock::now();
  const swarm::ObservationPlan& plan = job.config.observation;
  instrument::LocalPeerLog log(job.config.num_pieces);
  // Swarm-scope telemetry per the job's ObservationPlan. The probe is
  // strictly passive (no events, no RNG), so any scope leaves the
  // trajectory byte-identical — see the digest-under-observation test.
  instrument::MetricsRegistry registry;
  std::unique_ptr<instrument::SwarmProbe> probe;
  if (plan.swarm_scope()) {
    instrument::SwarmProbe::Options popts;
    popts.sampling_period = plan.sampling_period;
    popts.detail_peer_cap = plan.detail_peer_cap;
    // Reports embed every series; keep them bounded (drop accounting
    // surfaces anything the ring sheds).
    popts.series_capacity = 256;
    probe = std::make_unique<instrument::SwarmProbe>(
        registry, job.config.num_pieces, popts);
  }
  // The local trace rides the same hook as the LocalPeerLog; with no
  // trace requested the single-observer fast path is untouched.
  std::unique_ptr<instrument::TraceWriter> trace;
  instrument::ObserverList local_observers;
  peer::SwarmObserver* local_hook = &log;
  if (plan.trace_format != swarm::ObservationPlan::TraceFormat::kNone) {
    trace = std::make_unique<instrument::TraceWriter>(plan.trace_max_events);
    local_observers.add(&log);
    local_observers.add(trace.get());
    local_hook = &local_observers;
  }
  swarm::ScenarioRunner runner(job.config, job.seed, local_hook, probe.get());
  if (probe != nullptr) swarm::bind_probe(*probe, runner);
  // Liveness guard: observational until it trips, so attaching it keeps
  // healthy trajectories (and the golden digests) byte-identical.
  sim::ProgressMonitor monitor(ctx.monitor);
  runner.simulation().attach_monitor(&monitor);
  // The injector only exists for non-trivial plans: an all-zero FaultPlan
  // adds no events and no RNG draws, keeping the run byte-identical to a
  // fault-free build.
  std::unique_ptr<fault::FaultInjector> injector;
  if (job.config.faults.any()) {
    injector = std::make_unique<fault::FaultInjector>(runner, job.seed);
  }
  if (job.hostile.active(ctx.attempt)) {
    arm_hostility(runner.simulation(), job.hostile);
  }
  const auto t1 = Clock::now();

  res.end_time = runner.run_until_local_complete(extra_after);
  log.finalize(res.end_time);
  const auto t2 = Clock::now();

  if (monitor.tripped()) {
    res.status = status_from_trip(monitor.trip());
    res.error = monitor.diagnostic();
  }
  res.local_completion =
      log.local_is_seed() ? runner.local_peer().completion_time() : -1.0;
  res.completed = res.local_completion >= 0.0;
  res.events_executed = runner.simulation().events_executed();
  res.events_scheduled = runner.simulation().events_scheduled();
  res.events_cancelled = runner.simulation().events_cancelled();
  res.peak_pending = runner.simulation().peak_pending_events();
  res.events_fastpath = runner.simulation().events_fastpath();
  res.queue_compactions = runner.simulation().queue_compactions();
  res.train_segments = runner.swarm().network().train_segments();
  if (res.metrics.is_null()) res.metrics = json::Value::object();
  if (injector != nullptr) {
    // Embedded before `analyze` so bench analyzers can fold the fault
    // counters into their own text rows.
    const fault::FaultStats& fs = injector->stats();
    json::Value faults = json::Value::object();
    faults["seed_deaths"] = fs.seed_deaths;
    faults["peer_crashes"] = fs.peer_crashes;
    faults["messages_dropped"] = fs.messages_dropped;
    faults["messages_delayed"] = fs.messages_delayed;
    faults["flows_killed"] = fs.flows_killed;
    faults["tracker_outages"] = fs.outages;
    faults["announce_failures"] =
        runner.swarm().tracker().stats().failed;
    faults["local_ghosts_evicted"] = runner.local_peer().ghosts_evicted();
    faults["local_timed_out_requests"] =
        runner.local_peer().timed_out_requests();
    res.metrics["faults"] = std::move(faults);
  }
  // v7 telemetry: scope, registry snapshot, trace accounting. Derived
  // from observer callbacks only, so it is deterministic and part of the
  // report core.
  res.telemetry = json::Value::object();
  res.telemetry["scope"] = observation_scope_name(plan.scope);
  if (plan.scope == swarm::ObservationPlan::Scope::kSampled) {
    res.telemetry["sample_k"] = plan.sample_k;
  }
  if (probe != nullptr) {
    probe->finalize(res.end_time);
    res.telemetry["sampling_period"] = plan.sampling_period;
    res.telemetry["tracked_peers"] =
        static_cast<std::uint64_t>(probe->tracked_peers());
    res.telemetry["metrics"] = metrics_json(registry);
  }
  if (trace != nullptr) {
    const bool csv =
        plan.trace_format == swarm::ObservationPlan::TraceFormat::kCsv;
    json::Value tr = json::Value::object();
    tr["format"] = csv ? "csv" : "jsonl";
    tr["events"] = static_cast<std::uint64_t>(trace->events().size());
    tr["dropped"] = static_cast<std::uint64_t>(trace->dropped());
    if (!plan.trace_path.empty()) {
      tr["path"] = plan.trace_path;
      std::ofstream out(plan.trace_path);
      if (out) {
        csv ? trace->write_csv(out) : trace->write_jsonl(out);
      } else {
        tr["write_error"] = true;
      }
    }
    res.telemetry["trace"] = std::move(tr);
  }
  if (analyze) analyze(runner, log, res);
  runner.simulation().attach_monitor(nullptr);

  res.setup_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.sim_seconds = std::chrono::duration<double>(t2 - t1).count();
  res.analyze_seconds = seconds_since(t2);
  return res;
}

RunResult run_scenario_job(const BatchJob& job, double extra_after,
                           const AnalyzeFn& analyze) {
  return run_scenario_job(job, JobContext{}, extra_after, analyze);
}

std::vector<BatchJob> table1_jobs(std::uint64_t master,
                                  const swarm::ScaleLimits& limits) {
  std::vector<BatchJob> jobs;
  jobs.reserve(26);
  for (int id = 1; id <= 26; ++id) {
    BatchJob job;
    job.id = id;
    job.config = swarm::scenario_from_table1(id, limits);
    job.name = job.config.name;
    job.seed = sim::fork_seed(master, static_cast<std::uint64_t>(id));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

json::Value metrics_json(const instrument::MetricsRegistry& registry) {
  using Kind = instrument::MetricsRegistry::Kind;
  json::Value counters = json::Value::object();
  json::Value gauges = json::Value::object();
  json::Value histograms = json::Value::object();
  json::Value series = json::Value::object();
  const auto& all = registry.metrics();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto id = static_cast<instrument::MetricId>(i);
    const auto& m = all[i];
    switch (m.kind) {
      case Kind::kCounter:
        counters[m.name] = m.value;
        break;
      case Kind::kGauge:
        gauges[m.name] = m.value;
        break;
      case Kind::kHistogram: {
        json::Value h = json::Value::object();
        json::Value bounds = json::Value::array();
        for (const double b : m.bounds) bounds.push_back(b);
        json::Value counts = json::Value::array();
        for (const std::uint64_t c : m.counts) counts.push_back(c);
        h["bounds"] = std::move(bounds);
        h["counts"] = std::move(counts);
        h["count"] = m.total;
        h["sum"] = m.value;
        histograms[m.name] = std::move(h);
        break;
      }
      case Kind::kSeries: {
        json::Value s = json::Value::object();
        s["dropped"] = registry.dropped(id);
        json::Value samples = json::Value::array();
        for (const stats::Sample& smp : registry.samples(id)) {
          json::Value pair = json::Value::array();
          pair.push_back(smp.time);
          pair.push_back(smp.value);
          samples.push_back(std::move(pair));
        }
        s["samples"] = std::move(samples);
        series[m.name] = std::move(s);
        break;
      }
    }
  }
  json::Value out = json::Value::object();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  out["series"] = std::move(series);
  return out;
}

json::Value result_entry(const RunResult& r, bool include_text) {
  json::Value entry = json::Value::object();
  entry["id"] = r.id;
  entry["name"] = r.name;
  entry["seed"] = r.seed;
  entry["backend"] = r.backend;
  // Execution status (harness-level), distinct from the simulated
  // `completed` outcome below; `error` carries the exception message or
  // the ProgressMonitor diagnostic.
  entry["status"] = to_string(r.status);
  entry["attempts"] = r.attempts;
  if (!r.error.empty()) entry["error"] = r.error;
  entry["end_time"] = r.end_time;
  entry["local_completion"] = r.local_completion;
  // Both flags are emitted so fault-sweep consumers can filter either
  // way without re-deriving the convention (deterministic fields).
  entry["completed"] = r.completed;
  entry["stalled"] = !r.completed;
  entry["events"] = r.events_executed;
  // Event-queue counters: deterministic (pure functions of the
  // simulated trajectory), hence outside the "wall" object and kept by
  // deterministic_view().
  json::Value perf = json::Value::object();
  perf["scheduled"] = r.events_scheduled;
  perf["cancelled"] = r.events_cancelled;
  perf["peak_pending"] = r.peak_pending;
  perf["fastpath"] = r.events_fastpath;
  perf["compactions"] = r.queue_compactions;
  perf["train_segments"] = r.train_segments;
  entry["perf"] = std::move(perf);
  entry["metrics"] = r.metrics;
  // v7: the observability snapshot; always an object with at least the
  // observation scope (deterministic, kept by deterministic_view()).
  if (r.telemetry.is_object()) {
    entry["telemetry"] = r.telemetry;
  } else {
    json::Value telemetry = json::Value::object();
    telemetry["scope"] = "local";
    entry["telemetry"] = std::move(telemetry);
  }
  json::Value wall = json::Value::object();
  wall["setup"] = r.setup_seconds;
  wall["sim"] = r.sim_seconds;
  wall["analyze"] = r.analyze_seconds;
  // Wall clock elapsed when the simulation stopped (setup + sim; i.e.
  // excluding analysis/formatting) — how long a stalled run burned.
  wall["at_stop"] = r.setup_seconds + r.sim_seconds;
  entry["wall"] = std::move(wall);
  if (include_text) entry["text"] = r.text;
  return entry;
}

namespace {

bool parse_status(const json::Value* v, JobStatus* out) {
  if (v == nullptr || !v->is_string()) return false;
  for (const JobStatus s :
       {JobStatus::kCompleted, JobStatus::kFailed, JobStatus::kWedged,
        JobStatus::kTimeout}) {
    if (v->as_string() == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

}  // namespace

bool result_from_entry(const json::Value& entry, RunResult* out) {
  if (!entry.is_object()) return false;
  const json::Value* id = entry.find("id");
  const json::Value* name = entry.find("name");
  const json::Value* seed = entry.find("seed");
  const json::Value* backend = entry.find("backend");
  const json::Value* end_time = entry.find("end_time");
  const json::Value* local_completion = entry.find("local_completion");
  const json::Value* completed = entry.find("completed");
  const json::Value* events = entry.find("events");
  const json::Value* attempts = entry.find("attempts");
  const json::Value* perf = entry.find("perf");
  const json::Value* wall = entry.find("wall");
  const json::Value* text = entry.find("text");
  if (id == nullptr || !id->is_number() || name == nullptr ||
      !name->is_string() || seed == nullptr || !seed->is_number() ||
      backend == nullptr || !backend->is_string() || end_time == nullptr ||
      !end_time->is_number() || local_completion == nullptr ||
      !local_completion->is_number() || completed == nullptr ||
      !completed->is_bool() || events == nullptr || !events->is_number() ||
      attempts == nullptr || !attempts->is_number() || perf == nullptr ||
      !perf->is_object() || wall == nullptr || !wall->is_object() ||
      text == nullptr || !text->is_string()) {
    return false;
  }
  RunResult r;
  if (!parse_status(entry.find("status"), &r.status)) return false;
  r.id = static_cast<int>(id->as_int64());
  r.name = name->as_string();
  r.seed = seed->as_uint64();
  r.backend = backend->as_string();
  r.attempts = static_cast<int>(attempts->as_int64());
  if (const json::Value* e = entry.find("error")) {
    if (!e->is_string()) return false;
    r.error = e->as_string();
  }
  r.end_time = end_time->as_double();
  r.local_completion = local_completion->as_double();
  r.completed = completed->as_bool();
  r.events_executed = events->as_uint64();
  const json::Value* scheduled = perf->find("scheduled");
  const json::Value* cancelled = perf->find("cancelled");
  const json::Value* peak = perf->find("peak_pending");
  const json::Value* fastpath = perf->find("fastpath");
  const json::Value* compactions = perf->find("compactions");
  const json::Value* trains = perf->find("train_segments");
  if (scheduled == nullptr || cancelled == nullptr || peak == nullptr ||
      fastpath == nullptr || compactions == nullptr || trains == nullptr) {
    return false;
  }
  r.events_scheduled = scheduled->as_uint64();
  r.events_cancelled = cancelled->as_uint64();
  r.peak_pending = peak->as_uint64();
  r.events_fastpath = fastpath->as_uint64();
  r.queue_compactions = compactions->as_uint64();
  r.train_segments = trains->as_uint64();
  if (const json::Value* metrics = entry.find("metrics")) {
    r.metrics = *metrics;
  }
  // Checkpoint v3: `telemetry` is mandatory, so resumed sweeps replay
  // the v7 report byte-identically.
  const json::Value* telemetry = entry.find("telemetry");
  if (telemetry == nullptr || !telemetry->is_object()) return false;
  r.telemetry = *telemetry;
  const json::Value* setup = wall->find("setup");
  const json::Value* sim = wall->find("sim");
  const json::Value* analyze = wall->find("analyze");
  if (setup == nullptr || sim == nullptr || analyze == nullptr) return false;
  r.setup_seconds = setup->as_double();
  r.sim_seconds = sim->as_double();
  r.analyze_seconds = analyze->as_double();
  r.text = text->as_string();
  *out = std::move(r);
  return true;
}

json::Value make_report(const std::string& tool, const BatchOptions& opts,
                        const std::vector<RunResult>& results,
                        double wall_seconds) {
  json::Value report = json::Value::object();
  report["schema"] = kReportSchema;
  report["tool"] = tool;
  report["git"] = SWARMLAB_GIT_DESCRIBE;
  report["master_seed"] = opts.master_seed;
  report["scenarios"] = static_cast<unsigned long long>(results.size());
  // Count of results whose status != completed (deterministic except
  // when wall-clock timeouts are in play).
  int failed = 0;
  for (const RunResult& r : results) {
    if (!r.ok()) ++failed;
  }
  report["failed"] = failed;

  json::Value host = json::Value::object();
#if defined(__unix__) || defined(__APPLE__)
  utsname uts{};
  if (uname(&uts) == 0) {
    host["sysname"] = uts.sysname;
    host["release"] = uts.release;
    host["machine"] = uts.machine;
  }
#endif
  host["hardware_threads"] = std::thread::hardware_concurrency();
  report["host"] = std::move(host);
  report["jobs"] = opts.jobs;
  report["wall_seconds"] = wall_seconds;

  json::Value arr = json::Value::array();
  for (const auto& r : results) {
    arr.push_back(result_entry(r, /*include_text=*/false));
  }
  report["results"] = std::move(arr);
  return report;
}

json::Value deterministic_view(const json::Value& report) {
  json::Value core = report;
  core.erase("host");
  core.erase("jobs");
  core.erase("wall_seconds");
  if (const json::Value* results = core.find("results")) {
    json::Value stripped = json::Value::array();
    for (const auto& entry : results->items()) {
      json::Value e = entry;
      e.erase("wall");
      stripped.push_back(std::move(e));
    }
    core["results"] = std::move(stripped);
  }
  return core;
}

bool write_report(const std::string& path, const json::Value& report,
                  std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << dump(report, 2) << '\n';
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace swarmlab::runner
