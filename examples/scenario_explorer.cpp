// Example: scenario explorer — a small command-line front end over the
// whole library. Configure a torrent from flags, run it with a fully
// instrumented local peer, print a measurement report, and optionally
// dump the raw event trace and the availability time series as CSV for
// offline analysis (the simulated equivalent of the paper's trace files).
// With --sweep it instead runs the full 26-torrent Table-I catalog
// through the parallel BatchRunner (any protocol overrides still apply),
// one line per torrent.
//
// Usage:
//   scenario_explorer [options]
//     --torrent N        Table-I torrent id 1-26 (default: custom)
//     --sweep            run all 26 Table-I torrents via the batch runner
//     --jobs N           worker threads for --sweep (default 1)
//     --json FILE        write the machine-readable batch report
//     --leechers N       initial leechers (custom scenario, default 60)
//     --seeds N          initial seeds (default 1)
//     --pieces N         content pieces of 256 KiB (default 64)
//     --warm             leechers start with partial content
//     --free-riders F    fraction in [0,1] (default 0)
//     --picker NAME      rarest|random|sequential|oracle (default rarest)
//     --seed-choke NAME  new|old (default new)
//     --rng N            RNG seed (default 1)
//     --trace FILE       write the local peer's event trace as CSV
//     --series FILE      write availability/peer-set time series as CSV
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "swarmlab/swarmlab.h"

namespace {

using namespace swarmlab;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--torrent N | --sweep | --leechers N --seeds N"
               " --pieces N [--warm]] [--jobs N] [--json FILE]"
               " [--free-riders F] [--picker NAME] [--seed-choke NAME]"
               " [--rng N] [--trace FILE] [--series FILE]\n",
               argv0);
  std::exit(2);
}

core::PickerKind parse_picker(const std::string& name, const char* argv0) {
  if (name == "rarest") return core::PickerKind::kRarestFirst;
  if (name == "random") return core::PickerKind::kRandom;
  if (name == "sequential") return core::PickerKind::kSequential;
  if (name == "oracle") return core::PickerKind::kGlobalRarest;
  usage(argv0);
}

void apply_protocol(swarm::ScenarioConfig& cfg, double free_riders,
                    core::PickerKind picker,
                    core::SeedChokerKind seed_choke) {
  cfg.free_rider_fraction = free_riders;
  for (core::ProtocolParams* p : {&cfg.remote_params, &cfg.local_params}) {
    p->picker = picker;
    p->seed_choker = seed_choke;
  }
}

void write_report_or_die(const std::string& path,
                         const runner::json::Value& report) {
  std::string error;
  if (!runner::write_report(path, report, &error)) {
    std::fprintf(stderr, "scenario_explorer: %s\n", error.c_str());
    std::exit(1);
  }
  std::printf("wrote batch report to %s\n", path.c_str());
}

/// The 26-torrent catalog through the BatchRunner: per-job seeds forked
/// from --rng, rows streamed in submission order (identical for any
/// --jobs value).
int run_sweep(std::uint64_t rng_seed, int jobs, const std::string& json_path,
              double free_riders, core::PickerKind picker,
              core::SeedChokerKind seed_choke) {
  // Same scale as the sweep benches so a full sweep stays interactive.
  swarm::ScaleLimits limits;
  limits.max_peers = 120;
  limits.max_pieces = 96;
  limits.min_pieces = 16;
  limits.duration = 30000.0;
  auto batch_jobs = runner::table1_jobs(rng_seed, limits);
  for (auto& job : batch_jobs) {
    apply_protocol(job.config, free_riders, picker, seed_choke);
  }

  std::printf("sweep: 26 Table-I torrents, %d worker(s), master rng=%llu\n",
              jobs, static_cast<unsigned long long>(rng_seed));
  std::printf("%3s %-18s | %9s %8s | %-20s\n", "ID", "name", "complete",
              "entropy", "a/b median bar");
  std::printf("------------------------------------------------------------"
              "-------\n");

  runner::BatchOptions bopts;
  bopts.jobs = jobs;
  bopts.master_seed = rng_seed;
  runner::BatchRunner batch(bopts);
  const auto results = batch.run(
      batch_jobs,
      [](const runner::BatchJob& job) {
        return runner::run_scenario_job(
            job, 1000.0,
            [&job](const swarm::ScenarioRunner&,
                   const instrument::LocalPeerLog& log,
                   runner::RunResult& res) {
              const auto entropy = instrument::analyze_entropy(log);
              res.metrics["median_local"] = entropy.median_local;
              res.metrics["median_remote"] = entropy.median_remote;
              char row[160];
              std::snprintf(row, sizeof row,
                            "%3d %-18s | %8.0fs %8.2f | %-20s\n", job.id,
                            job.name.c_str(), res.local_completion,
                            entropy.median_local,
                            std::string(static_cast<std::size_t>(
                                            std::min(20.0,
                                                     entropy.median_local *
                                                         20.0)),
                                        '#')
                                .c_str());
              res.text = row;
            });
      },
      [](const runner::RunResult& r) { std::fputs(r.text.c_str(), stdout); });
  std::printf("sweep done: %zu scenarios in %.1fs wall\n", results.size(),
              batch.wall_seconds());

  if (!json_path.empty()) {
    write_report_or_die(json_path,
                        runner::make_report("scenario_explorer", bopts,
                                            results, batch.wall_seconds()));
  }
  const std::string summary = runner::failure_summary(results);
  if (!summary.empty()) {
    std::fputs(summary.c_str(), stderr);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int torrent = 0;
  bool sweep = false;
  int jobs = 1;
  std::uint32_t leechers = 60, seeds = 1, pieces = 64;
  bool warm = false;
  double free_riders = 0.0;
  std::uint64_t rng_seed = 1;
  core::PickerKind picker = core::PickerKind::kRarestFirst;
  core::SeedChokerKind seed_choke = core::SeedChokerKind::kNewSeed;
  std::string trace_file, series_file, json_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--torrent") {
      torrent = std::atoi(next());
      if (torrent < 1 || torrent > 26) usage(argv[0]);
    } else if (arg == "--sweep") sweep = true;
    else if (arg == "--jobs") {
      jobs = std::atoi(next());
      if (jobs < 1 || jobs > 512) usage(argv[0]);
    } else if (arg == "--json") json_file = next();
    else if (arg == "--leechers")
      leechers = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--seeds")
      seeds = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--pieces")
      pieces = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--warm") warm = true;
    else if (arg == "--free-riders") free_riders = std::atof(next());
    else if (arg == "--picker") picker = parse_picker(next(), argv[0]);
    else if (arg == "--seed-choke") {
      const std::string v = next();
      seed_choke = v == "old" ? core::SeedChokerKind::kOldSeed
                              : core::SeedChokerKind::kNewSeed;
    } else if (arg == "--rng") {
      rng_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--trace") trace_file = next();
    else if (arg == "--series") series_file = next();
    else usage(argv[0]);
  }

  if (sweep) {
    return run_sweep(rng_seed, jobs, json_file, free_riders, picker,
                     seed_choke);
  }

  swarm::ScenarioConfig cfg;
  if (torrent != 0) {
    cfg = swarm::scenario_from_table1(torrent);
  } else {
    cfg.name = "custom";
    cfg.num_pieces = pieces;
    cfg.initial_seeds = seeds;
    cfg.initial_leechers = leechers;
    cfg.leechers_warm = warm;
  }
  apply_protocol(cfg, free_riders, picker, seed_choke);

  std::printf("scenario %s: %u seeds, %u leechers, %u pieces, "
              "free riders %.0f%%, rng=%llu\n",
              cfg.name.c_str(), cfg.initial_seeds, cfg.initial_leechers,
              cfg.num_pieces, 100 * cfg.free_rider_fraction,
              static_cast<unsigned long long>(rng_seed));

  // The probe (focus = the local peer) keeps the local peer's log and
  // its availability time series; the trace rides the local hook.
  instrument::TraceWriter trace(/*max_events=*/2'000'000);
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, cfg.num_pieces);

  const std::string scenario_name = cfg.name;
  swarm::ScenarioRunner runner(std::move(cfg), rng_seed, &trace, &probe);
  swarm::bind_probe(probe, runner);
  probe.force_sample(0.0);
  const double end = runner.run_until_local_complete(2000.0);
  probe.finalize(end);
  const instrument::LocalPeerLog& log =
      *probe.peer_log(runner.local_peer_id());

  // --- report -----------------------------------------------------------
  const peer::Peer& local = runner.local_peer();
  std::printf("\nlocal peer: %u/%u pieces at t=%.0fs; up %.1f MiB, "
              "down %.1f MiB, %llu verification failures\n",
              local.have().count(), local.have().size(),
              local.completion_time(),
              local.total_uploaded() / 1048576.0,
              local.total_downloaded() / 1048576.0,
              static_cast<unsigned long long>(local.corrupted_pieces()));

  const auto entropy = instrument::analyze_entropy(log);
  std::printf("entropy: a/b median %.2f (p20 %.2f), c/d median %.2f over "
              "%zu remote leechers\n",
              entropy.median_local, entropy.p20_local,
              entropy.median_remote, entropy.local_interest_ratios.size());
  const auto inter = instrument::analyze_piece_interarrival(log, 20);
  if (!inter.all.empty()) {
    std::printf("piece interarrival: median %.1fs (first 20: %.1fs, "
                "last 20: %.1fs)\n",
                inter.all.quantile(0.5), inter.first_k.quantile(0.5),
                inter.last_k.quantile(0.5));
  }
  std::printf("messages: ");
  for (const auto& [name, count] : log.message_counters().received) {
    std::printf("%s:%llu ", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\ntrace: %zu events (%zu dropped past cap)\n",
              trace.events().size(), trace.dropped());

  // --- optional machine-readable report (single-run batch) ---------------
  if (!json_file.empty()) {
    runner::RunResult res;
    res.id = torrent;
    res.name = scenario_name;
    res.seed = rng_seed;
    res.end_time = end;
    res.local_completion =
        log.local_is_seed() ? local.completion_time() : -1.0;
    res.events_executed = runner.simulation().events_executed();
    res.metrics["median_local"] = entropy.median_local;
    res.metrics["median_remote"] = entropy.median_remote;
    res.metrics["uploaded_bytes"] = local.total_uploaded();
    res.metrics["downloaded_bytes"] = local.total_downloaded();
    runner::BatchOptions bopts;
    bopts.jobs = 1;
    bopts.master_seed = rng_seed;
    write_report_or_die(json_file,
                        runner::make_report("scenario_explorer", bopts,
                                            {res}, 0.0));
  }

  // --- optional CSV dumps --------------------------------------------------
  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    trace.write_csv(out);
    std::printf("wrote event trace to %s\n", trace_file.c_str());
  }
  if (!series_file.empty()) {
    std::ofstream out(series_file);
    const char* const columns[] = {"copies_min", "copies_mean", "copies_max",
                                   "rarest_set", "peer_set"};
    // The five focus series are recorded together, row for row.
    std::vector<std::vector<stats::Sample>> series;
    for (const char* name : columns) {
      series.push_back(registry.samples(registry.find(name)));
    }
    out << "time,min_copies,mean_copies,max_copies,rarest_set,peer_set\n";
    for (std::size_t i = 0; i < series[0].size(); ++i) {
      out << series[0][i].time;
      for (const auto& column : series) out << ',' << column[i].value;
      out << '\n';
    }
    std::printf("wrote time series to %s\n", series_file.c_str());
  }
  return 0;
}
