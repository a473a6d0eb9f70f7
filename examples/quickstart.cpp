// Quickstart: simulate an instrumented BitTorrent peer joining a torrent,
// then print the headline measurements of Legout et al. (IMC 2006) —
// entropy ratios, reciprocation, and the choke algorithm's behavior.
//
// Usage: quickstart [torrent_id=7] [seed=1]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "swarmlab/swarmlab.h"

namespace {

void usage(std::FILE* out, const char* argv0, int torrents) {
  std::fprintf(out, "usage: %s [torrent_id=7 (1-%d, Table I)] [seed=1]\n",
               argv0, torrents);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swarmlab;

  const int torrents = static_cast<int>(swarm::table1_torrents().size());
  int torrent_id = 7;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "-h" || arg == "--help") {
      usage(stdout, argv[0], torrents);
      return 0;
    }
    char* end = nullptr;
    const long id = std::strtol(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || id < 1 || id > torrents) {
      usage(stderr, argv[0], torrents);
      return 2;
    }
    torrent_id = static_cast<int>(id);
  }
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 1;

  // 1. Pick a scenario from the paper's Table I (scaled; see DESIGN.md §5).
  swarm::ScaleLimits limits;
  limits.max_peers = 160;
  limits.max_pieces = 160;
  swarm::ScenarioConfig cfg = swarm::scenario_from_table1(torrent_id, limits);

  std::printf("swarmlab quickstart — %s\n", cfg.name.c_str());
  std::printf("scale: %u seeds, %u leechers, %u pieces x %u KiB, seed=%llu\n",
              cfg.initial_seeds, cfg.initial_leechers, cfg.num_pieces,
              cfg.piece_size / 1024,
              static_cast<unsigned long long>(seed));

  // 2. Attach the instrumented-client log to the local peer and run until
  //    the local peer has completed and seeded for a while.
  instrument::LocalPeerLog log(cfg.num_pieces);
  swarm::ScenarioRunner runner(std::move(cfg), seed, &log);
  const double end = runner.run_until_local_complete(/*extra=*/2000.0);
  log.finalize(end);

  const peer::Peer& local = runner.local_peer();
  std::printf("\nlocal peer: %u/%u pieces, completed at t=%.0fs, "
              "up=%.1f MiB down=%.1f MiB, end_game at t=%.0fs\n",
              local.have().count(), local.have().size(),
              local.completion_time(),
              local.total_uploaded() / (1024.0 * 1024.0),
              local.total_downloaded() / (1024.0 * 1024.0),
              log.end_game_time());

  // 3. Entropy (Fig. 1): ideal piece diversity makes both medians ~1.
  const auto entropy = instrument::analyze_entropy(log);
  std::printf("\nentropy (Fig. 1):\n");
  std::printf("  local interested in remotes : p20=%.2f median=%.2f p80=%.2f"
              " (n=%zu)\n",
              entropy.p20_local, entropy.median_local, entropy.p80_local,
              entropy.local_interest_ratios.size());
  std::printf("  remotes interested in local : p20=%.2f median=%.2f p80=%.2f"
              " (n=%zu)\n",
              entropy.p20_remote, entropy.median_remote, entropy.p80_remote,
              entropy.remote_interest_ratios.size());

  // 4. Reciprocation (Fig. 9): the top-5 upload set should dominate both
  //    directions.
  const auto fair = instrument::analyze_leecher_fairness(log);
  std::printf("\nleecher-state contribution by top sets of 5 (Fig. 9):\n");
  for (std::size_t s = 0; s < fair.upload_fraction.size(); ++s) {
    std::printf("  set %zu: upload %.2f  download %.2f\n", s,
                fair.upload_fraction[s], fair.download_fraction[s]);
  }

  // 5. Choke-algorithm behavior (Fig. 10): in seed state the number of
  //    unchokes tracks the interested time; in leecher state it does not.
  const auto ls = instrument::analyze_unchoke_correlation_leecher(log);
  const auto ss = instrument::analyze_unchoke_correlation_seed(log);
  std::printf("\nunchokes vs interested time (Fig. 10): "
              "leecher spearman=%.2f, seed spearman=%.2f\n",
              ls.spearman, ss.spearman);

  std::printf("\ntracker view: %zu seeds / %zu leechers, %llu announces\n",
              runner.swarm().tracker().num_seeds(),
              runner.swarm().tracker().num_leechers(),
              static_cast<unsigned long long>(
                  runner.swarm().tracker().stats().announces));
  return 0;
}
