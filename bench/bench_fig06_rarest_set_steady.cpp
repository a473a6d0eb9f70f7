// Fig. 6 reproduction: number of rarest pieces, torrent 7 (steady state).
// Paper shape: a sawtooth — peer-set churn creates new rarest sets, and
// the rarest first algorithm rapidly duplicates them (consistent sharp
// drops after each rise). A steady state never relapses into a transient
// state.
#include <algorithm>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace swarmlab;
  const std::uint64_t seed = bench::bench_seed(argc, argv);
  auto cfg = swarm::scenario_from_table1(7, bench::deep_dive_limits());

  std::printf("=== Fig. 6: number of rarest pieces, torrent 7 "
              "(steady state) ===\n");
  bench::print_scale(cfg, seed);

  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, cfg.num_pieces,
                               {.sampling_period = 10.0});
  swarm::ScenarioRunner runner(std::move(cfg), seed, nullptr, &probe);
  swarm::bind_probe(probe, runner);
  probe.force_sample(0.0);
  const double end = runner.run_until_local_complete(3000.0);
  probe.finalize(end);
  const double seed_time =
      probe.peer_log(runner.local_peer_id())->seed_time();
  const auto rarest = bench::probe_series(registry, "rarest_set");
  const auto min_copies = bench::probe_series(registry, "copies_min");

  std::printf("\n%10s %10s\n", "t (s)", "#rarest");
  for (const auto& s : rarest.downsample(30)) {
    std::printf("%10.0f %10.0f\n", s.time, s.value);
  }

  // Sawtooth quantification: count rises (churn events) and how quickly
  // each rise decays (rarest-first duplication speed).
  const auto& samples = rarest.samples();
  int rises = 0, fast_decays = 0;
  for (std::size_t i = 1; i + 3 < samples.size(); ++i) {
    if (samples[i].value > samples[i - 1].value) {
      ++rises;
      // decayed back to (or below) the pre-rise level within 3 samples?
      for (std::size_t j = i + 1; j < std::min(i + 4, samples.size()); ++j) {
        if (samples[j].value <= samples[i - 1].value) {
          ++fast_decays;
          break;
        }
      }
    }
  }
  // Floor check over the local peer's leecher phase, skipping the first
  // 30 s (peer set still assembling, bitfields in flight).
  const double ls_end = seed_time >= 0 ? seed_time : end;
  double min_floor = 1e18;
  for (const auto& s : min_copies.samples()) {
    if (s.time > 30.0 && s.time <= ls_end) {
      min_floor = std::min(min_floor, s.value);
    }
  }
  std::printf("\nsawtooth: %d rises in the rarest-set size; %d of them "
              "collapsed again within 30 s (rarest first duplicates new "
              "rarest pieces fast)\n", rises, fast_decays);
  std::printf("paper check — no relapse into transient state: min copies "
              "over the leecher phase = %.0f (>= 1)\n", min_floor);
  return 0;
}
