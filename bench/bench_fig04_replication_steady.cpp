// Fig. 4 reproduction: evolution of the number of copies of pieces in the
// local peer set, torrent 7 (steady state). Paper shape: the least
// replicated piece always has at least one copy (no rare pieces — the
// torrent never re-enters transient state), and the mean stays bounded
// between min and max, tracking the peer set size.
#include <algorithm>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace swarmlab;
  const std::uint64_t seed = bench::bench_seed(argc, argv);
  auto cfg = swarm::scenario_from_table1(7, bench::deep_dive_limits());

  std::printf("=== Fig. 4: replication of pieces in the peer set, "
              "torrent 7 (steady state) ===\n");
  bench::print_scale(cfg, seed);

  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, cfg.num_pieces);
  swarm::ScenarioRunner runner(std::move(cfg), seed, nullptr, &probe);
  swarm::bind_probe(probe, runner);
  probe.force_sample(0.0);
  const double end = runner.run_until_local_complete(3000.0);
  probe.finalize(end);
  const double seed_time =
      probe.peer_log(runner.local_peer_id())->seed_time();

  std::printf("\n%10s %8s %8s %8s\n", "t (s)", "min", "mean", "max");
  const auto min_s = bench::probe_series(registry, "copies_min");
  const auto max_s = bench::probe_series(registry, "copies_max");
  for (const auto& s :
       bench::probe_series(registry, "copies_mean").downsample(30)) {
    std::printf("%10.0f %8.1f %8.2f %8.1f\n", s.time,
                min_s.value_at(s.time), s.value, max_s.value_at(s.time));
  }

  // Steady-state check: min copies during the local peer's leecher phase.
  double min_while_leecher = 1e18;
  const double ls_end = seed_time >= 0 ? seed_time : end;
  for (const auto& s : min_s.samples()) {
    if (s.time > 30.0 && s.time <= ls_end) {  // skip pre-bitfield startup
      min_while_leecher = std::min(min_while_leecher, s.value);
    }
  }
  std::printf("\nlocal became seed at t=%.0f (drop in copies afterwards "
              "mirrors the paper: a new seed closes connections to "
              "seeds)\n", seed_time);
  std::printf("paper check — least replicated piece never drops to zero "
              "in steady state: min over leecher phase = %.0f (>= 1)\n",
              min_while_leecher);
  return 0;
}
