// Fig. 2 reproduction: evolution of the number of copies of pieces in the
// local peer set over time, torrent 8 (transient state), local peer in
// leecher state. Paper shape: the min curve hugs the floor (rare pieces
// exist for most of the run), the mean rises steadily, the max sits near
// the peer set size.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace swarmlab;
  const std::uint64_t seed = bench::bench_seed(argc, argv);
  auto cfg = swarm::scenario_from_table1(8, bench::deep_dive_limits());

  std::printf("=== Fig. 2: replication of pieces in the peer set, "
              "torrent 8 (transient), leecher state ===\n");
  bench::print_scale(cfg, seed);
  std::printf("initial seed upload: %.0f kB/s (bounds rare-piece "
              "replication, paper §IV-A.2.a)\n\n",
              cfg.initial_seed_upload / 1024.0);

  // The copies series come from the swarm-scope probe (focus = the local
  // peer): samples land at observer-callback times on a 20 s grid, so
  // nothing is injected into the event queue.
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, cfg.num_pieces);
  swarm::ScenarioRunner runner(std::move(cfg), seed, nullptr, &probe);
  swarm::bind_probe(probe, runner);
  probe.force_sample(0.0);
  const double end = runner.run_until_local_complete(0.0);
  probe.finalize(end);
  const double seed_time =
      probe.peer_log(runner.local_peer_id())->seed_time();
  const double ls_end = seed_time >= 0 ? seed_time : end;

  const auto min_ls = bench::probe_series(registry, "copies_min", ls_end);
  const auto mean_ls = bench::probe_series(registry, "copies_mean", ls_end);
  const auto max_ls = bench::probe_series(registry, "copies_max", ls_end);

  std::printf("%10s %8s %8s %8s\n", "t (s)", "min", "mean", "max");
  const auto rows = mean_ls.downsample(28);
  for (const auto& s : rows) {
    std::printf("%10.0f %8.1f %8.2f %8.1f\n", s.time,
                min_ls.value_at(s.time), s.value, max_ls.value_at(s.time));
  }
  std::printf("\nlocal peer leecher phase: 0 .. %.0f s\n", ls_end);
  // The transient signature: the min curve sits at the floor (rare
  // pieces exist) for almost the whole phase, releasing only at the end.
  std::size_t floor_samples = 0;
  for (const auto& s : min_ls.samples()) {
    if (s.value <= 1.0) ++floor_samples;
  }
  const double floor_frac =
      min_ls.samples().empty()
          ? 0.0
          : static_cast<double>(floor_samples) /
                static_cast<double>(min_ls.samples().size());
  std::printf("paper check — min copies pinned at the floor for %.0f%% of "
              "the leecher phase (rare pieces exist throughout the "
              "transient state); mean rises steadily to %.1f; max tracks "
              "the peer set size\n",
              100.0 * floor_frac,
              mean_ls.samples().empty() ? -1.0
                                        : mean_ls.samples().back().value);
  return 0;
}
