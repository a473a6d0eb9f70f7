// Ablation A1 (DESIGN.md): piece-selection strategies compared on the
// same torrent — local rarest first (the paper's subject), uniform
// random, sequential, and the global-rarest oracle (network-coding-like
// ideal knowledge; §IV-A.4 discussion).
//
// Expected shape: rarest first achieves entropy close to the oracle's;
// random is noticeably worse; sequential collapses diversity. The
// transient-state duration (torrent 8 variant) is insensitive to the
// picker — it is bounded by the initial seed's upload capacity.
#include <algorithm>

#include "bench_util.h"
#include "swarm/entropy.h"

namespace {

struct Row {
  const char* name;
  swarmlab::core::PickerKind kind;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace swarmlab;
  const std::uint64_t seed = bench::bench_seed(argc, argv);
  const Row rows[] = {
      {"rarest-first", core::PickerKind::kRarestFirst},
      {"random", core::PickerKind::kRandom},
      {"sequential", core::PickerKind::kSequential},
      {"global-oracle", core::PickerKind::kGlobalRarest},
  };

  std::printf("=== Ablation A1: piece-selection strategy ===\n");
  std::printf("seed=%llu — every peer in the swarm runs the listed "
              "picker\n\n", static_cast<unsigned long long>(seed));

  // Part 1: steady-state entropy (torrent-7-like swarm).
  std::printf("steady state (torrent 7 scaled): entropy and download "
              "time\n");
  std::printf("%-14s %8s %8s %8s %10s %10s %10s\n", "picker", "a/b p20",
              "a/b med", "c/d med", "dl time", "min copies",
              "global ent");
  for (const Row& row : rows) {
    swarm::ScaleLimits limits = bench::sweep_limits();
    auto cfg = swarm::scenario_from_table1(7, limits);
    cfg.remote_params.picker = row.kind;
    cfg.local_params.picker = row.kind;
    instrument::MetricsRegistry registry;
    instrument::SwarmProbe probe(registry, cfg.num_pieces);
    swarm::ScenarioRunner runner(std::move(cfg), seed, nullptr, &probe);
    swarm::bind_probe(probe, runner);
    probe.force_sample(0.0);
    // Time-averaged swarm-wide entropy, read every 120 s between
    // simulation steps (t = 0 included) up to the stop time.
    double global_sum = swarm::pairwise_interest_entropy(runner.swarm());
    std::size_t global_n = 1;
    const double end =
        runner.run_until_local_complete(1000.0, 120.0, [&](double) {
          global_sum += swarm::pairwise_interest_entropy(runner.swarm());
          ++global_n;
        });
    probe.finalize(end);
    const instrument::LocalPeerLog& log =
        *probe.peer_log(runner.local_peer_id());
    const auto entropy = instrument::analyze_entropy(log);
    const double global_mean = global_sum / static_cast<double>(global_n);
    const double ls_end = log.seed_time() >= 0 ? log.seed_time() : end;
    const auto copies = bench::probe_series(registry, "copies_min");
    double min_copies = 1e18;
    for (const auto& s : copies.samples()) {
      if (s.time > 30.0 && s.time <= ls_end) {
        min_copies = std::min(min_copies, s.value);
      }
    }
    const double dl = runner.local_peer().completion_time();
    std::printf("%-14s %8.2f %8.2f %8.2f %9.0fs %10.0f %10.2f\n",
                row.name, entropy.p20_local, entropy.median_local,
                entropy.median_remote, dl, min_copies, global_mean);
  }

  // Part 2: transient-state duration (torrent-8-like swarm). The time for
  // the rarest set to drain is seed-upload-bound for every picker that
  // avoids duplicate fetches from the seed.
  std::printf("\ntransient state (torrent 8 scaled): time for the initial "
              "seed to place one full copy\n");
  std::printf("%-14s %14s %12s\n", "picker", "transient end", "dl time");
  for (const Row& row : rows) {
    swarm::ScaleLimits limits = bench::sweep_limits();
    limits.max_peers = 100;
    auto cfg = swarm::scenario_from_table1(8, limits);
    cfg.remote_params.picker = row.kind;
    cfg.local_params.picker = row.kind;
    const double expected_floor =
        static_cast<double>(cfg.num_pieces) * cfg.piece_size /
        cfg.initial_seed_upload;
    swarm::ScenarioRunner runner(std::move(cfg), seed);
    // Transient ends when the global min copies (excluding the initial
    // seed's own copy) reaches 1, i.e. global availability min >= 2;
    // checked every 20 s between simulation steps.
    double transient_end = -1.0;
    runner.run_until_local_complete(0.0, 20.0, [&](double t) {
      if (transient_end < 0 &&
          runner.swarm().global_availability().min_copies() >= 2) {
        transient_end = t;
      }
    });
    std::printf("%-14s %13.0fs %11.0fs   (seed-capacity floor %.0fs)\n",
                row.name, transient_end,
                runner.local_peer().completion_time(), expected_floor);
  }
  std::printf("\npaper check — rarest first ~ oracle on entropy; the "
              "transient duration is bounded below by content/seed-upload "
              "for all pickers (the piece strategy cannot shorten it, "
              "§IV-A.2.a), but poor pickers lengthen it via duplicate "
              "fetches from the seed.\n");
  return 0;
}
