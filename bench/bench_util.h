// Shared helpers for the experiment benches (one binary per paper
// table/figure; see DESIGN.md §3).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "swarmlab/swarmlab.h"

namespace swarmlab::bench {

/// Strict decimal uint64 parse: the whole token must be digits (no sign,
/// no trailing junk) and fit in 64 bits.
inline bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

/// Usage message shared by every bench binary.
[[noreturn]] inline void usage(const char* argv0) {
  std::string backends;
  for (const auto& name : net::network_backends()) {
    if (!backends.empty()) backends += ", ";
    backends += name;
  }
  std::fprintf(stderr,
               "usage: %s [SEED] [--seed N] [--jobs N] [--json PATH] "
               "[--backend NAME]\n"
               "          [--timeout SECS] [--retries N] [--resume PATH] "
               "[--hostile SPEC]\n"
               "          [--observe SCOPE] [--trace[=FORMAT]]\n"
               "  SEED / --seed N  master RNG seed (decimal; default "
               "20061025)\n"
               "  --jobs N         worker threads (26-torrent sweep benches "
               "only, default 1);\n"
               "                   results are identical for any N\n"
               "  --json PATH      write the machine-readable batch report "
               "(sweep benches only)\n"
               "  --backend NAME   network backend (%s; default %s)\n"
               "  --timeout SECS   per-job wall-clock budget; a job over "
               "budget is recorded\n"
               "                   with status \"timeout\" and the sweep "
               "continues\n"
               "  --retries N      extra attempts for failed jobs (same "
               "seed each attempt)\n"
               "  --resume PATH    JSONL checkpoint: completed jobs stream "
               "to PATH and a rerun\n"
               "                   with the same PATH skips them "
               "(byte-identical output)\n"
               "  --hostile SPEC   test-only fault hook: ID:MODE[:ATTEMPTS]"
               "[,...] with MODE in\n"
               "                   throw|wedge|spin, e.g. "
               "'7:wedge,13:throw:1'\n"
               "  --observe SCOPE  observation scope: local (default), "
               "sampled-K (local peer\n"
               "                   + first K spawned, e.g. sampled-8) or "
               "all; swarm scopes\n"
               "                   attach a passive probe and add telemetry "
               "to --json reports\n"
               "  --trace[=FORMAT] write the local peer's event trace per "
               "job to\n"
               "                   <tool>.jobN.trace.<ext>; FORMAT is jsonl "
               "(default) or csv\n",
               argv0, backends.c_str(), net::kDefaultNetworkBackend);
  std::exit(2);
}

/// Seed used by every bench unless overridden with argv[1]; printed so a
/// run can be reproduced exactly. Non-numeric input is rejected with the
/// shared usage message instead of silently parsing to 0.
inline std::uint64_t bench_seed(int argc, char** argv,
                                std::uint64_t fallback = 20061025) {
  // Default commemorates the paper's IMC 2006 presentation date.
  if (argc <= 1) return fallback;
  std::uint64_t seed = 0;
  if (!parse_u64(argv[1], &seed)) {
    std::fprintf(stderr, "%s: invalid seed '%s'\n", argv[0], argv[1]);
    usage(argv[0]);
  }
  return seed;
}

/// Strict decimal double parse for flag values (whole token, finite,
/// non-negative).
inline bool parse_f64(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == nullptr || *end != '\0' || !(v >= 0.0) ||
      v > 1e12) {
    return false;
  }
  *out = v;
  return true;
}

/// Options shared by the sweep benches: master seed (positional for
/// backwards compatibility or --seed), worker count, JSON report path,
/// plus the resilience knobs threaded into BatchOptions.
struct BenchOptions {
  std::uint64_t seed = 20061025;
  int jobs = 1;
  std::string json_path;
  std::string backend = net::kDefaultNetworkBackend;
  /// True when --backend was passed on the command line. Benches whose
  /// jobs carry a frozen per-tier backend (bench_perf_sweep) only
  /// override it on an explicit flag.
  bool backend_explicit = false;
  double timeout = 0.0;      ///< per-job wall budget (0 disables)
  int retries = 0;           ///< extra attempts for failed jobs
  std::string resume_path;   ///< JSONL checkpoint path ("" disables)
  std::string hostile;       ///< raw --hostile spec (test-only)
  /// --observe: how widely each job is instrumented (strictly passive;
  /// identical trajectories for every scope).
  swarm::ObservationPlan::Scope observe_scope =
      swarm::ObservationPlan::Scope::kLocal;
  std::uint32_t observe_k = 8;  ///< K for --observe sampled-K
  /// --trace[=FORMAT]: per-job local-peer event trace export.
  swarm::ObservationPlan::TraceFormat trace_format =
      swarm::ObservationPlan::TraceFormat::kNone;
};

/// Builds the per-job ObservationPlan for a sweep bench: the --observe
/// scope plus, when --trace was given, a deterministic per-job trace
/// path `<tool>.job<id>.trace.<csv|jsonl>` in the working directory.
inline swarm::ObservationPlan observation_plan(const char* tool,
                                               const BenchOptions& opts,
                                               int job_id) {
  swarm::ObservationPlan plan;
  plan.scope = opts.observe_scope;
  plan.sample_k = opts.observe_k;
  plan.trace_format = opts.trace_format;
  if (plan.trace_format != swarm::ObservationPlan::TraceFormat::kNone) {
    const char* ext =
        plan.trace_format == swarm::ObservationPlan::TraceFormat::kCsv
            ? "csv"
            : "jsonl";
    plan.trace_path = std::string(tool) + ".job" + std::to_string(job_id) +
                      ".trace." + ext;
  }
  return plan;
}

/// Parses a --hostile spec ("ID:MODE[:ATTEMPTS]" comma-separated, MODE in
/// throw|wedge|spin) onto the matching jobs. Returns false (with a
/// message on stderr) on a malformed spec or an ID with no matching job.
inline bool apply_hostile_spec(const std::string& spec,
                               std::vector<runner::BatchJob>& jobs) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;

    const std::size_t c1 = item.find(':');
    if (c1 == std::string::npos) {
      std::fprintf(stderr, "hostile spec '%s': expected ID:MODE\n",
                   item.c_str());
      return false;
    }
    std::size_t c2 = item.find(':', c1 + 1);
    const std::string id_tok = item.substr(0, c1);
    const std::string mode_tok =
        item.substr(c1 + 1, (c2 == std::string::npos ? item.size() : c2) -
                                (c1 + 1));
    std::uint64_t id = 0;
    if (!parse_u64(id_tok.c_str(), &id)) {
      std::fprintf(stderr, "hostile spec '%s': bad job id\n", item.c_str());
      return false;
    }
    runner::HostileSpec hostile;
    if (mode_tok == "throw") {
      hostile.mode = runner::HostileSpec::Mode::kThrow;
    } else if (mode_tok == "wedge") {
      hostile.mode = runner::HostileSpec::Mode::kWedge;
    } else if (mode_tok == "spin") {
      hostile.mode = runner::HostileSpec::Mode::kSpin;
    } else {
      std::fprintf(stderr,
                   "hostile spec '%s': mode must be throw|wedge|spin\n",
                   item.c_str());
      return false;
    }
    if (c2 != std::string::npos) {
      std::uint64_t attempts = 0;
      if (!parse_u64(item.substr(c2 + 1).c_str(), &attempts) ||
          attempts == 0) {
        std::fprintf(stderr, "hostile spec '%s': bad attempt limit\n",
                     item.c_str());
        return false;
      }
      hostile.attempts = static_cast<int>(attempts);
    }
    bool matched = false;
    for (auto& job : jobs) {
      if (job.id == static_cast<int>(id)) {
        job.hostile = hostile;
        matched = true;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "hostile spec '%s': no job with id %llu\n",
                   item.c_str(), static_cast<unsigned long long>(id));
      return false;
    }
  }
  return true;
}

inline BenchOptions parse_bench_options(int argc, char** argv,
                                        std::uint64_t fallback = 20061025) {
  BenchOptions opts;
  opts.seed = fallback;
  bool observe_seen = false;
  bool trace_seen = false;
  const auto next = [&](int* i) -> const char* {
    if (*i + 1 >= argc) usage(argv[0]);
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t v = 0;
    if (arg == "--seed") {
      if (!parse_u64(next(&i), &opts.seed)) usage(argv[0]);
    } else if (arg == "--jobs") {
      if (!parse_u64(next(&i), &v) || v == 0 || v > 512) usage(argv[0]);
      opts.jobs = static_cast<int>(v);
    } else if (arg == "--json") {
      opts.json_path = next(&i);
    } else if (arg == "--backend") {
      opts.backend = next(&i);
      opts.backend_explicit = true;
      const auto known = net::network_backends();
      if (std::find(known.begin(), known.end(), opts.backend) ==
          known.end()) {
        std::fprintf(stderr, "%s: unknown backend '%s'\n", argv[0],
                     opts.backend.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--timeout") {
      if (!parse_f64(next(&i), &opts.timeout)) usage(argv[0]);
    } else if (arg == "--retries") {
      if (!parse_u64(next(&i), &v) || v > 100) usage(argv[0]);
      opts.retries = static_cast<int>(v);
    } else if (arg == "--resume") {
      opts.resume_path = next(&i);
    } else if (arg == "--hostile") {
      opts.hostile = next(&i);
    } else if (arg == "--observe") {
      if (observe_seen) usage(argv[0]);
      observe_seen = true;
      const std::string scope = next(&i);
      if (scope == "local") {
        opts.observe_scope = swarm::ObservationPlan::Scope::kLocal;
      } else if (scope == "all") {
        opts.observe_scope = swarm::ObservationPlan::Scope::kAll;
      } else if (scope.rfind("sampled-", 0) == 0) {
        if (!parse_u64(scope.c_str() + 8, &v) || v == 0 || v > 100000) {
          std::fprintf(stderr, "%s: bad --observe scope '%s'\n", argv[0],
                       scope.c_str());
          usage(argv[0]);
        }
        opts.observe_scope = swarm::ObservationPlan::Scope::kSampled;
        opts.observe_k = static_cast<std::uint32_t>(v);
      } else {
        std::fprintf(stderr,
                     "%s: --observe scope must be local, sampled-K or all "
                     "(got '%s')\n",
                     argv[0], scope.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      if (trace_seen) usage(argv[0]);
      trace_seen = true;
      if (arg == "--trace") {
        opts.trace_format = swarm::ObservationPlan::TraceFormat::kJsonl;
      } else {
        const std::string fmt = arg.substr(8);
        if (fmt == "csv") {
          opts.trace_format = swarm::ObservationPlan::TraceFormat::kCsv;
        } else if (fmt == "jsonl") {
          opts.trace_format = swarm::ObservationPlan::TraceFormat::kJsonl;
        } else {
          std::fprintf(stderr,
                       "%s: --trace format must be csv or jsonl (got "
                       "'%s')\n",
                       argv[0], fmt.c_str());
          usage(argv[0]);
        }
      }
    } else if (i == 1 && parse_u64(argv[1], &v)) {
      opts.seed = v;  // historical positional seed
    } else {
      std::fprintf(stderr, "%s: invalid argument '%s'\n", argv[0],
                   arg.c_str());
      usage(argv[0]);
    }
  }
  return opts;
}

/// printf-appends to a std::string (for building RunResult::text rows
/// that are byte-identical to what printf would have emitted).
inline void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
inline void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

/// Scale used by the 26-torrent sweep benches (Figs. 1, 9, 11; Table I).
/// Delegates to the catalog's preset so benches and catalog entries can
/// never drift apart.
inline swarm::ScaleLimits sweep_limits() {
  return swarm::sweep_scale_limits();
}

/// Scale used by the single-torrent deep-dive benches (Figs. 2-8, 10);
/// the catalog's deep-dive preset.
inline swarm::ScaleLimits deep_dive_limits() {
  return swarm::deep_dive_scale_limits();
}

inline void print_scale(const swarm::ScenarioConfig& cfg,
                        std::uint64_t seed) {
  std::printf("scale: torrent=%d seeds=%u leechers=%u pieces=%u "
              "piece_size=%uKiB arrival=%.3f/s warm=%d seed=%llu\n",
              cfg.torrent_id, cfg.initial_seeds, cfg.initial_leechers,
              cfg.num_pieces, cfg.piece_size / 1024, cfg.arrival_rate,
              cfg.leechers_warm ? 1 : 0,
              static_cast<unsigned long long>(seed));
}

/// A SwarmProbe series as a stats::TimeSeries (for downsample() and
/// value_at()), clipped to t <= t_max when t_max >= 0. Exits if the
/// series is unknown or its ring dropped samples: a figure drawn from a
/// truncated series would silently lose its start.
inline stats::TimeSeries probe_series(
    const instrument::MetricsRegistry& registry, const char* name,
    double t_max = -1.0) {
  const instrument::MetricId id = registry.find(name);
  if (id == instrument::kNoMetric || registry.dropped(id) != 0) {
    std::fprintf(stderr, "probe series %s: %s\n", name,
                 id == instrument::kNoMetric
                     ? "not registered"
                     : "ring dropped samples; raise series_capacity");
    std::exit(1);
  }
  stats::TimeSeries out;
  for (const stats::Sample& s : registry.samples(id)) {
    if (t_max < 0.0 || s.time <= t_max) out.add(s.time, s.value);
  }
  return out;
}

/// Runs one scenario with an instrumented local peer until the local peer
/// completes (plus `extra_after` seconds of seed state), finalizing the
/// log at the stop time.
struct ScenarioRun {
  std::unique_ptr<instrument::LocalPeerLog> log;
  std::unique_ptr<swarm::ScenarioRunner> runner;
  double end_time = 0.0;
};

inline ScenarioRun run_scenario(swarm::ScenarioConfig cfg,
                                std::uint64_t seed,
                                double extra_after = 2500.0) {
  ScenarioRun run;
  run.log = std::make_unique<instrument::LocalPeerLog>(cfg.num_pieces);
  run.runner = std::make_unique<swarm::ScenarioRunner>(std::move(cfg), seed,
                                                       run.log.get());
  run.end_time = run.runner->run_until_local_complete(extra_after);
  run.log->finalize(run.end_time);
  return run;
}

/// The Table-I job list with the benches' historical per-torrent seed
/// derivation (`seed + id`), so default single-threaded output matches
/// the pre-batch binaries byte for byte.
inline std::vector<runner::BatchJob> table1_bench_jobs(
    std::uint64_t seed, const swarm::ScaleLimits& limits) {
  std::vector<runner::BatchJob> jobs;
  jobs.reserve(26);
  for (int id = 1; id <= 26; ++id) {
    runner::BatchJob job;
    job.id = id;
    job.config = swarm::scenario_from_table1(id, limits);
    job.name = job.config.name;
    job.seed = seed + static_cast<std::uint64_t>(id);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// What a sweep produced: the per-job results plus the process exit code
/// the bench should return (0 = all jobs completed, 1 = at least one
/// failed/wedged/timed out — the report still contains every result).
struct SweepOutcome {
  std::vector<runner::RunResult> results;
  int exit_code = 0;
};

/// Runs a sweep through the BatchRunner: rows stream to stdout in
/// submission order (so output is identical for any --jobs value) and
/// the aggregate JSON report is written when --json was given. The
/// selected --backend is applied to every job's config, so any sweep
/// bench runs on any registered network backend unchanged; the
/// --observe/--trace observation plan is applied the same way (passive
/// — rows and digests are identical for every scope). The
/// resilience knobs (--timeout/--retries/--resume/--hostile) are
/// threaded into BatchOptions; failures are contained per job, summarized
/// on stderr, and reflected in `exit_code` rather than thrown.
inline SweepOutcome run_sweep(const char* tool, const BenchOptions& opts,
                              std::vector<runner::BatchJob> jobs,
                              const runner::JobFnCtx& fn) {
  for (auto& job : jobs) {
    job.config.network_backend = opts.backend;
    job.config.observation = observation_plan(tool, opts, job.id);
  }
  if (!opts.hostile.empty() && !apply_hostile_spec(opts.hostile, jobs)) {
    usage(tool);
  }
  runner::BatchOptions bopts;
  bopts.jobs = opts.jobs;
  bopts.master_seed = opts.seed;
  bopts.job_timeout = opts.timeout;
  bopts.retries = opts.retries;
  bopts.checkpoint_path = opts.resume_path;
  runner::BatchRunner batch(bopts);
  SweepOutcome out;
  out.results = batch.run(jobs, fn, [](const runner::RunResult& r) {
    std::fputs(r.text.c_str(), stdout);
    std::fflush(stdout);
  });
  if (batch.resumed_jobs() > 0) {
    std::fprintf(stderr, "%s: resumed %zu of %zu jobs from %s\n", tool,
                 batch.resumed_jobs(), jobs.size(),
                 opts.resume_path.c_str());
  }
  if (!opts.json_path.empty()) {
    const auto report =
        runner::make_report(tool, bopts, out.results, batch.wall_seconds());
    std::string error;
    if (!runner::write_report(opts.json_path, report, &error)) {
      std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
      std::exit(1);
    }
  }
  const std::string summary = runner::failure_summary(out.results);
  if (!summary.empty()) {
    std::fputs(summary.c_str(), stderr);
    out.exit_code = 1;
  }
  return out;
}

/// Convenience overload for context-free job functions (benches that
/// ignore the per-attempt JobContext).
inline SweepOutcome run_sweep(const char* tool, const BenchOptions& opts,
                              std::vector<runner::BatchJob> jobs,
                              const runner::JobFn& fn) {
  return run_sweep(
      tool, opts, std::move(jobs),
      [&fn](const runner::BatchJob& job, const runner::JobContext&) {
        return fn(job);
      });
}

/// Renders a 0..1 value as a small ASCII bar (for figure-like output).
inline std::string bar(double fraction, int width = 24) {
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  const int fill = static_cast<int>(fraction * width + 0.5);
  std::string out(static_cast<std::size_t>(fill), '#');
  out.append(static_cast<std::size_t>(width - fill), '.');
  return out;
}

/// Prints a downsampled time series as aligned rows.
inline void print_series(const char* name, const stats::TimeSeries& series,
                         std::size_t rows = 24) {
  std::printf("%s (%zu samples, downsampled to %zu rows)\n", name,
              series.size(), rows);
  for (const auto& s : series.downsample(rows)) {
    std::printf("  t=%8.0f  %10.2f\n", s.time, s.value);
  }
}

}  // namespace swarmlab::bench
