// Example: regenerate the paper's figures as SVG images.
//
// Runs the deep-dive scenarios (torrents 7, 8 and 10, scaled) with the
// full instrumentation and writes one SVG per reproduced figure:
//
//   fig02_replication_transient.svg   fig03_rarest_transient.svg
//   fig04_replication_steady.svg      fig05_peer_set.svg
//   fig06_rarest_steady.svg           fig07_piece_interarrival.svg
//   fig08_block_interarrival.svg      fig10_unchoke_correlation.svg
//
// Usage: render_figures [output_dir=figures] [rng=20061025]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "swarmlab/swarmlab.h"
#include "viz/svg_plot.h"

namespace {

using namespace swarmlab;

/// One of the probe's focus-peer series as a chart line.
viz::Series probe_line(const instrument::MetricsRegistry& registry,
                       const char* name, std::string label) {
  const instrument::MetricId id = registry.find(name);
  if (registry.dropped(id) != 0) {
    std::fprintf(stderr, "series %s dropped samples\n", name);
    std::exit(1);
  }
  stats::TimeSeries ts;
  for (const stats::Sample& s : registry.samples(id)) ts.add(s.time, s.value);
  return viz::from_time_series(ts, std::move(label));
}

void write_svg(const std::filesystem::path& dir, const std::string& name,
               const std::string& svg) {
  const auto path = dir / name;
  std::ofstream out(path);
  out << svg;
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(), svg.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "figures";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20061025;
  std::filesystem::create_directories(dir);

  swarm::ScaleLimits limits;
  limits.max_peers = 200;
  limits.max_pieces = 200;

  // --- torrent 8 (transient): Figs. 2 and 3 -----------------------------
  {
    auto cfg = swarm::scenario_from_table1(8, limits);
    instrument::MetricsRegistry registry;
    instrument::SwarmProbe probe(registry, cfg.num_pieces);
    swarm::ScenarioRunner runner(std::move(cfg), seed, nullptr, &probe);
    swarm::bind_probe(probe, runner);
    probe.force_sample(0.0);
    probe.finalize(runner.run_until_local_complete(0.0));

    write_svg(dir, "fig02_replication_transient.svg",
              viz::render_line_chart(
                  {probe_line(registry, "copies_max", "max"),
                   probe_line(registry, "copies_mean", "mean"),
                   probe_line(registry, "copies_min", "min")},
                  {.title = "Fig. 2 — piece copies in the peer set "
                            "(torrent 8, transient)",
                   .x_label = "time (s)",
                   .y_label = "number of copies"}));
    write_svg(dir, "fig03_rarest_transient.svg",
              viz::render_line_chart(
                  {probe_line(registry, "rarest_set", "rarest set size")},
                  {.title = "Fig. 3 — number of rarest pieces "
                            "(torrent 8, transient)",
                   .x_label = "time (s)",
                   .y_label = "# rarest pieces"}));
  }

  // --- torrent 7 (steady): Figs. 4, 5, 6 and 10 --------------------------
  {
    auto cfg = swarm::scenario_from_table1(7, limits);
    instrument::MetricsRegistry registry;
    instrument::SwarmProbe probe(registry, cfg.num_pieces,
                                 {.sampling_period = 15.0});
    swarm::ScenarioRunner runner(std::move(cfg), seed, nullptr, &probe);
    swarm::bind_probe(probe, runner);
    probe.force_sample(0.0);
    probe.finalize(runner.run_until_local_complete(6000.0));

    write_svg(dir, "fig04_replication_steady.svg",
              viz::render_line_chart(
                  {probe_line(registry, "copies_max", "max"),
                   probe_line(registry, "copies_mean", "mean"),
                   probe_line(registry, "copies_min", "min")},
                  {.title = "Fig. 4 — piece copies in the peer set "
                            "(torrent 7, steady state)",
                   .x_label = "time (s)",
                   .y_label = "number of copies"}));
    write_svg(dir, "fig05_peer_set.svg",
              viz::render_line_chart(
                  {probe_line(registry, "peer_set", "peer set size")},
                  {.title = "Fig. 5 — size of the local peer set "
                            "(torrent 7)",
                   .x_label = "time (s)",
                   .y_label = "peers"}));
    write_svg(dir, "fig06_rarest_steady.svg",
              viz::render_line_chart(
                  {probe_line(registry, "rarest_set", "rarest set size")},
                  {.title = "Fig. 6 — number of rarest pieces "
                            "(torrent 7, steady state)",
                   .x_label = "time (s)",
                   .y_label = "# rarest pieces"}));

    const auto ls = probe.unchoke_correlation(runner.local_peer_id(), false);
    const auto ss = probe.unchoke_correlation(runner.local_peer_id(), true);
    viz::Series ls_pts{"leecher state", {}};
    for (std::size_t i = 0; i < ls.unchokes.size(); ++i) {
      ls_pts.points.emplace_back(ls.interested_time[i], ls.unchokes[i]);
    }
    viz::Series ss_pts{"seed state", {}};
    for (std::size_t i = 0; i < ss.unchokes.size(); ++i) {
      ss_pts.points.emplace_back(ss.interested_time[i], ss.unchokes[i]);
    }
    write_svg(dir, "fig10_unchoke_correlation.svg",
              viz::render_scatter(
                  {ls_pts, ss_pts},
                  {.title = "Fig. 10 — unchokes vs interested time "
                            "(torrent 7)",
                   .x_label = "interested time (s)",
                   .y_label = "# unchokes"}));
  }

  // --- torrent 10: Figs. 7 and 8 -------------------------------------------
  {
    auto cfg = swarm::scenario_from_table1(10, limits);
    const std::size_t k =
        std::max<std::size_t>(10, cfg.num_pieces * 100 / 1393);
    instrument::LocalPeerLog log(cfg.num_pieces);
    swarm::ScenarioRunner runner(std::move(cfg), seed, &log);
    const double end = runner.run_until_local_complete(500.0);
    log.finalize(end);

    const auto pieces = instrument::analyze_piece_interarrival(log, k);
    write_svg(dir, "fig07_piece_interarrival.svg",
              viz::render_line_chart(
                  {viz::from_cdf(pieces.all, "all pieces"),
                   viz::from_cdf(pieces.first_k, "first"),
                   viz::from_cdf(pieces.last_k, "last")},
                  {.title = "Fig. 7 — CDF of piece interarrival time "
                            "(torrent 10)",
                   .x_label = "interarrival time (s, log)",
                   .y_label = "CDF",
                   .log_x = true}));
    const auto blocks = instrument::analyze_block_interarrival(log, 100);
    write_svg(dir, "fig08_block_interarrival.svg",
              viz::render_line_chart(
                  {viz::from_cdf(blocks.all, "all blocks"),
                   viz::from_cdf(blocks.first_k, "100 first"),
                   viz::from_cdf(blocks.last_k, "100 last")},
                  {.title = "Fig. 8 — CDF of block interarrival time "
                            "(torrent 10)",
                   .x_label = "interarrival time (s, log)",
                   .y_label = "CDF",
                   .log_x = true}));
  }

  std::printf("done — figures in %s/\n", dir.string().c_str());
  return 0;
}
