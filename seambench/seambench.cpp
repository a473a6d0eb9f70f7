// Seam-traced simulator benchmark.
//
//   seambench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload as whole rounds of the same operation for about S
// seconds; one round (one operation) is one complete scenario run on the
// seed derived from N: set-up, simulation to the workload's stop, and the
// output checks. Every round of a run replays the same inputs, so the
// deterministic counters of all rounds must agree.
//
// --trace 0 measures the end-to-end metrics: at least two untraced rounds,
// with batches of set-up-only samples between them for set-up time.
// --trace 1 alternates untraced and traced rounds (at least one pair); the
// traced round routes the network through TimedNetwork and every peer's
// callbacks through SeamObserver (seams.h) and reports per-layer metrics.
//
// Human-readable round lines go to stderr; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "seams.h"
#include "sim/rng.h"
#include "swarm/scenario.h"
#include "swarm/scenario_catalog.h"

namespace sl = swarmlab;
using seambench::Layer;
using seambench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A /proc/self/status field in MB (VmRSS, VmHWM); -1 when unreadable.
double status_mb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0 &&
        line.size() > field.size() && line[field.size()] == ':') {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  /// Simulated seconds one round runs for.
  double horizon;
};

// Why these three: steady-fluid is the paper's steady state on the fluid
// backend, where cancel-and-reschedule churn and HAVE handling do the
// work; bulk-packet is carried by segment trains and fast channels with
// almost no cancellation; flash-crowd-observed is the transient flash
// crowd under churn with the swarm-scope probe attached, where ids outrun
// the population and per-id tables grow. The horizons keep a round to a
// few host seconds, so a run holds enough rounds for its medians to shed
// short stalls; the steady state is steady from t = 0 (warm start), so a
// shorter horizon samples the same per-event work.
constexpr Workload kWorkloads[] = {
    {"steady-fluid", 400.0},
    {"bulk-packet", 200.0},
    {"flash-crowd-observed", 1200.0},
};

sl::swarm::ScenarioConfig make_config(const Workload& w) {
  const std::string_view name = w.name;
  if (name == "steady-fluid") {
    return sl::swarm::ScenarioBuilder::from_catalog("perf_large")
        .backend("fluid")
        .duration(w.horizon)
        .build();
  }
  if (name == "bulk-packet") {
    return sl::swarm::ScenarioBuilder::from_catalog("pkt_large")
        .backend("packet")
        .duration(w.horizon)
        .build();
  }
  sl::swarm::ObservationPlan plan;
  plan.scope = sl::swarm::ObservationPlan::Scope::kAll;
  plan.detail_peer_cap = 64;
  return sl::swarm::ScenarioBuilder::from_catalog("mega-flash")
      .scale(0.5)
      .duration(w.horizon)
      .backend("fluid")
      .observation(plan)
      .build();
}

// --- one round -----------------------------------------------------------------

/// One scenario, set up and ready to run: the runner plus whatever
/// observes it. Constructing it is the timed set-up.
struct Setup {
  sl::swarm::ScenarioConfig cfg;
  std::unique_ptr<sl::instrument::MetricsRegistry> registry;
  std::unique_ptr<sl::instrument::SwarmProbe> probe;
  std::unique_ptr<seambench::SeamObserver> seam;
  std::unique_ptr<sl::swarm::ScenarioRunner> runner;

  Setup(const Workload& w, std::uint64_t seed, Tracer* tracer)
      : cfg(make_config(w)) {
    // The config's observation plan is the one place that decides whether
    // the workload is observed.
    if (cfg.observation.swarm_scope()) {
      registry = std::make_unique<sl::instrument::MetricsRegistry>();
      sl::instrument::SwarmProbe::Options opts;
      opts.sampling_period = cfg.observation.sampling_period;
      opts.detail_peer_cap = cfg.observation.detail_peer_cap;
      opts.series_capacity = 256;
      probe = std::make_unique<sl::instrument::SwarmProbe>(
          *registry, cfg.num_pieces, opts);
    }
    sl::peer::SwarmObserver* observer = probe.get();
    if (tracer != nullptr) {
      // Observe every peer so messages are counted on all three workloads;
      // the probe (when there is one) sits behind the counting decorator.
      cfg.observation.scope = sl::swarm::ObservationPlan::Scope::kAll;
      cfg.network_backend = "seambench-" + cfg.network_backend;
      seam = std::make_unique<seambench::SeamObserver>(*tracer, probe.get());
      observer = seam.get();
    }
    seambench::set_current_tracer(tracer);
    runner = std::make_unique<sl::swarm::ScenarioRunner>(cfg, seed, nullptr,
                                                         observer);
    seambench::set_current_tracer(nullptr);
    if (probe != nullptr) {
      sl::swarm::Swarm* sw = &runner->swarm();
      probe->bind([sw](sl::peer::PeerId id) -> const sl::peer::Peer* {
        return sw->find_peer(id);
      });
      probe->bind_availability(&sw->global_availability());
      probe->set_focus(runner->local_peer_id());
    }
  }
};

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double setup_rss_mb = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // deterministic outputs
  std::uint64_t events = 0, scheduled = 0, cancelled = 0, fastpath = 0;
  std::uint64_t compactions = 0, peak_pending = 0, train_segments = 0;
  double end_time = 0.0;
  double local_completion = -1.0;
  std::uint64_t local_downloaded = 0;
  std::uint64_t peers_spawned = 0, announces = 0;
  /// Sums of every peer's total_downloaded() / total_uploaded().
  std::uint64_t swarm_downloaded = 0, swarm_uploaded = 0;
  /// Largest share of an access link's capacity (up or down) that any live
  /// peer used over its time in the swarm: how close the capacity check
  /// came to firing.
  double busiest_link = 0.0;
  std::vector<std::string> failures;
};

void require(Round& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

/// Pieces a bitfield holds and their bytes, counted bit by bit rather than
/// read from the bitfield's cached count.
struct Held {
  std::uint64_t pieces = 0;
  std::uint64_t bytes = 0;
};

Held held_by(const sl::core::Bitfield& b, const sl::wire::ContentGeometry& g) {
  Held h;
  for (sl::wire::PieceIndex p = 0; p < b.size(); ++p) {
    if (!b.has(p)) continue;
    ++h.pieces;
    h.bytes += g.piece_bytes(p);
  }
  return h;
}

/// The output checks, from independent recounts or from properties every
/// correct run has. Appends one line per violation to `r.failures`, and
/// fills the swarm-wide byte sums the per-peer walk totals on the way.
void check_outputs(const Setup& s, const Tracer* tracer, Round& r) {
  const sl::swarm::ScenarioRunner& runner = *s.runner;
  const sl::swarm::Swarm& swarm = runner.swarm();
  const sl::wire::ContentGeometry geo = s.cfg.geometry();
  const std::uint32_t n = s.cfg.num_pieces;
  const auto& seeds = runner.initial_seed_ids();

  std::uint64_t pieces_gained = 0;  // by peers that are not initial seeds
  for (const sl::peer::PeerId id : swarm.peer_ids()) {
    const sl::peer::Peer* p = swarm.find_peer(id);
    if (p == nullptr) continue;
    const std::string who = "peer " + std::to_string(id);
    const Held held = held_by(p->have(), geo);
    if (p->is_seed() || p->completion_time() >= 0.0) {
      require(r, held.pieces == n,
              who + " reported as a seed holds " +
                  std::to_string(held.pieces) + " of " + std::to_string(n) +
                  " pieces");
    }
    const bool initial_seed =
        std::find(seeds.begin(), seeds.end(), id) != seeds.end();
    if (!initial_seed) pieces_gained += held.pieces;

    // Capacity: a peer moves no more bytes than its access link carries
    // while it is in the swarm.
    const double life = r.end_time - p->start_time();
    const double up_max = p->config().upload_capacity * life;
    const double down_max = p->config().download_capacity * life;
    const auto up = static_cast<double>(p->total_uploaded());
    const auto down = static_cast<double>(p->total_downloaded());
    require(r, up <= up_max,
            who + " uploaded " + std::to_string(p->total_uploaded()) +
                " bytes, over its uplink's " + std::to_string(up_max));
    require(r, down <= down_max,
            who + " downloaded " + std::to_string(p->total_downloaded()) +
                " bytes, over its downlink's " + std::to_string(down_max));
    if (up_max > 0.0) r.busiest_link = std::max(r.busiest_link, up / up_max);
    if (down_max > 0.0) {
      r.busiest_link = std::max(r.busiest_link, down / down_max);
    }

    // A peer that joined empty (the local peer, every arrival, and every
    // initial leecher of a cold start) received each byte it holds.
    const bool cold = !initial_seed &&
                      (id == runner.local_peer_id() ||
                       !s.cfg.leechers_warm || p->start_time() > 0.0);
    require(r, !cold || held.bytes <= p->total_downloaded(),
            who + " holds " + std::to_string(held.bytes) +
                " bytes of pieces but received only " +
                std::to_string(p->total_downloaded()));

    r.swarm_downloaded += p->total_downloaded();
    r.swarm_uploaded += p->total_uploaded();
  }
  require(r, swarm.torrent_alive(), "torrent not alive at the stop");

  if (tracer != nullptr) {
    const std::uint64_t pieces =
        tracer->received[sl::wire::Message(sl::wire::PieceMsg{}).index()];
    require(r, tracer->flows_completed == pieces,
            "flows completed " + std::to_string(tracer->flows_completed) +
                " != PIECE messages received " + std::to_string(pieces));
    require(r, tracer->balanced(), "span stack unbalanced at the stop");
  }

  if (s.probe != nullptr) {
    const auto& reg = *s.registry;
    const auto counter = [&reg](const char* name) {
      return static_cast<std::uint64_t>(reg.value(reg.find(name)));
    };
    // The observed workload starts every leecher cold, so each piece a
    // non-seed holds was completed during the run.
    require(r, counter("pieces_completed") == pieces_gained,
            "probe pieces_completed " +
                std::to_string(counter("pieces_completed")) +
                " != pieces held by non-seeds " +
                std::to_string(pieces_gained));
    require(r, counter("bytes_downloaded") == r.swarm_downloaded,
            "probe bytes_downloaded != sum of peers' total_downloaded");
    if (tracer != nullptr) {
      require(r, counter("blocks_received") == tracer->flows_completed,
              "probe blocks_received " +
                  std::to_string(counter("blocks_received")) +
                  " != flows completed " +
                  std::to_string(tracer->flows_completed));
      require(r, counter("messages_received") == tracer->messages_received,
              "probe messages_received " +
                  std::to_string(counter("messages_received")) +
                  " != messages seen at the observer seam " +
                  std::to_string(tracer->messages_received));
    }
  }
}

/// Runs one round. `tracer` non-null makes it the traced round.
Round run_round(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  Round r;
  r.traced = tracer != nullptr;
  const double rss0 = status_mb("VmRSS");
  const auto t0 = Clock::now();
  Setup s(w, seed, tracer);
  r.setup_s = seconds_since(t0);
  r.setup_rss_mb = status_mb("VmRSS") - rss0;

  sl::swarm::ScenarioRunner& runner = *s.runner;
  const double cpu0 = cpu_seconds();
  const auto t1 = Clock::now();
  runner.run();
  r.end_time = runner.simulation().now();
  r.wall_s = seconds_since(t1);
  r.cpu_s = cpu_seconds() - cpu0;

  const sl::sim::Simulation& sim = runner.simulation();
  r.events = sim.events_executed();
  r.scheduled = sim.events_scheduled();
  r.cancelled = sim.events_cancelled();
  r.fastpath = sim.events_fastpath();
  r.compactions = sim.queue_compactions();
  r.peak_pending = sim.peak_pending_events();
  r.train_segments = runner.swarm().network().train_segments();
  r.local_completion = runner.local_peer().completion_time();
  r.local_downloaded = runner.local_peer().total_downloaded();
  r.peers_spawned = runner.swarm().peer_ids().size();
  r.announces = runner.swarm().tracker().stats().announces;
  check_outputs(s, tracer, r);
  return r;
}

/// Determinism and passivity: every round of a run replays one seed, so
/// each must match the first round's deterministic outputs exactly.
void check_replay(const Round& first, Round& r) {
  const auto same = [&](const char* what, auto a, auto b) {
    require(r, a == b,
            std::string(what) + " differs from the first round's: " +
                std::to_string(b) + " vs " + std::to_string(a));
  };
  same("events", first.events, r.events);
  same("scheduled", first.scheduled, r.scheduled);
  same("cancelled", first.cancelled, r.cancelled);
  same("end_time", first.end_time, r.end_time);
  same("local completion", first.local_completion, r.local_completion);
  same("local bytes downloaded", first.local_downloaded, r.local_downloaded);
}

void print_round(const Workload& w, const Round& r) {
  std::fprintf(stderr,
               "%s %-8s setup %.4f s  wall %.3f s  cpu %.3f s  events %llu  "
               "end %.1f  local done %.1f  busiest link %.4f  %s\n",
               w.name, r.traced ? "traced" : "untraced", r.setup_s, r.wall_s,
               r.cpu_s, static_cast<unsigned long long>(r.events), r.end_time,
               r.local_completion, r.busiest_link,
               r.failures.empty() ? "ok" : "FAILED");
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "  check failed: %s\n", f.c_str());
  }
}

// --- output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : -1.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Per-layer metrics from the last untraced/traced pair. `setup_rss_mb`
/// comes from the run's first set-up, the only one on a fresh heap.
std::vector<Metric> layer_metrics(const Round& plain, const Round& traced,
                                  const Tracer& t,
                                  const std::vector<double>& overheads,
                                  double setup_rss_mb) {
  namespace wire = sl::wire;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto msg = [&t](const wire::Message& m) {
    return static_cast<double>(t.received[m.index()]);
  };
  const double net_self = t.self_seconds(Layer::kNet);
  const double peer_self = t.self_seconds(Layer::kPeer);
  const double inst_self = t.self_seconds(Layer::kInstrument);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  return {
      {"sim.events", count(traced.events), "count"},
      {"sim.scheduled", count(traced.scheduled), "count"},
      {"sim.cancelled", count(traced.cancelled), "count"},
      {"sim.fired_per_scheduled",
       ratio(count(traced.events), count(traced.scheduled)), "ratio"},
      {"sim.fastpath", count(traced.fastpath), "count"},
      {"sim.compactions", count(traced.compactions), "count"},
      {"sim.peak_pending", count(traced.peak_pending), "count"},
      {"sim.events_per_s", ratio(count(plain.events), plain.wall_s), "1/s"},
      // Spans open during set-up too, so the residual is taken from the
      // whole traced round.
      {"sim.residual_s",
       traced.setup_s + traced.wall_s - net_self - peer_self - inst_self, "s"},
      {"net.self_s", net_self, "s"},
      {"net.start_flow", count(t.start_flow), "count"},
      {"net.cancel_flow", count(t.cancel_flow), "count"},
      {"net.send_control", count(t.send_control), "count"},
      {"net.node_ops", count(t.node_ops), "count"},
      {"net.bytes_started", count(t.bytes_started), "bytes"},
      {"net.train_segments", count(traced.train_segments), "count"},
      {"peer.self_s", peer_self, "s"},
      {"peer.callbacks", count(t.peer_callbacks), "count"},
      {"peer.msg.have", msg(wire::HaveMsg{}), "count"},
      {"peer.msg.request", msg(wire::RequestMsg{}), "count"},
      {"peer.msg.piece", msg(wire::PieceMsg{}), "count"},
      {"peer.msg.cancel", msg(wire::CancelMsg{}), "count"},
      {"peer.msg.bitfield", msg(wire::BitfieldMsg{}), "count"},
      {"peer.msg.interested", msg(wire::InterestedMsg{}), "count"},
      {"peer.msg.not_interested", msg(wire::NotInterestedMsg{}), "count"},
      {"peer.msg.choke", msg(wire::ChokeMsg{}), "count"},
      {"peer.msg.unchoke", msg(wire::UnchokeMsg{}), "count"},
      {"peer.msg.keepalive", msg(wire::KeepAliveMsg{}), "count"},
      {"peer.have_per_piece",
       ratio(msg(wire::HaveMsg{}), count(t.pieces_completed)), "ratio"},
      {"peer.blocks_per_request",
       ratio(count(t.blocks_received), msg(wire::RequestMsg{})), "ratio"},
      {"peer.choke_rounds", count(t.choke_rounds), "count"},
      {"peer.unaccounted_upload_bytes",
       count(traced.swarm_downloaded) - count(traced.swarm_uploaded), "bytes"},
      {"swarm.peers_spawned", count(traced.peers_spawned), "count"},
      {"swarm.peak_active", count(t.peak_active), "count"},
      {"swarm.ids_per_active",
       ratio(count(traced.peers_spawned), count(t.peak_active)), "ratio"},
      {"swarm.announces", count(traced.announces), "count"},
      {"swarm.setup_rss_mb", setup_rss_mb, "MB"},
      {"instrument.self_s", inst_self, "s"},
      {"instrument.callbacks", count(t.instrument_callbacks), "count"},
      {"trace.overhead_s", median(overheads), "s"},
  };
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) a.workload = &w;
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') a.seconds = 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") == 0) a.trace = 0;
      if (std::strcmp(val, "1") == 0) a.trace = 1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.workload != nullptr && have_seed &&
         a.seconds > 0.0 && a.trace >= 0;
}

/// Set-up is timed in batches of kSetupsPerBatch set-ups (about 50-150 ms
/// of set-up per batch); one sample is a batch's mean. After each round
/// batches run until set-up time reaches kSetupShare of the rounds' time,
/// so the samples span the run as the rounds do and the host's drift
/// reaches both alike. setup_s is the median sample.
constexpr int kSetupsPerBatch = 12;
constexpr double kSetupShare = 0.05;

/// Times one batch; returns its summed set-up seconds. Teardown is not
/// timed.
double setup_batch(const Workload& w, std::uint64_t seed) {
  double total = 0.0;
  for (int i = 0; i < kSetupsPerBatch; ++i) {
    const auto t0 = Clock::now();
    const Setup s(w, seed, nullptr);
    total += seconds_since(t0);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload steady-fluid|bulk-packet|"
                 "flash-crowd-observed --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const Workload& w = *args.workload;
  const auto index = static_cast<std::uint64_t>(&w - kWorkloads);
  const std::uint64_t seed = sl::sim::fork_seed(args.seed, index);
  seambench::register_timed_backend("seambench-fluid", "fluid");
  seambench::register_timed_backend("seambench-packet", "packet");

  try {
    std::vector<Round> rounds;
    const auto run_start = Clock::now();
    const auto add = [&](Round r) {
      if (!rounds.empty()) check_replay(rounds.front(), r);
      print_round(w, r);
      rounds.push_back(std::move(r));
    };

    std::vector<Metric> metrics;
    if (args.trace == 0) {
      std::vector<double> setups;
      double setup_total = 0.0, round_total = 0.0;
      { const Setup warm(w, seed, nullptr); }  // grows the heap, untimed
      while (rounds.size() < 2 || seconds_since(run_start) < args.seconds) {
        add(run_round(w, seed, nullptr));
        round_total += rounds.back().setup_s + rounds.back().wall_s;
        while (setup_total < kSetupShare * round_total) {
          const double batch = setup_batch(w, seed);
          setup_total += batch;
          setups.push_back(batch / kSetupsPerBatch);
        }
      }
      std::vector<double> walls, cpus;
      for (const Round& r : rounds) {
        walls.push_back(r.wall_s);
        cpus.push_back(r.cpu_s);
      }
      metrics = {
          {"wall_s", median(walls), "s"},
          {"cpu_s", median(cpus), "s"},
          {"setup_s", median(setups), "s"},
          {"peak_rss_mb", status_mb("VmHWM"), "MB"},
      };
    } else {
      std::vector<double> overheads;
      std::unique_ptr<Tracer> tracer;
      do {
        add(run_round(w, seed, nullptr));
        tracer = std::make_unique<Tracer>();
        add(run_round(w, seed, tracer.get()));
        overheads.push_back(rounds.back().wall_s -
                            rounds[rounds.size() - 2].wall_s);
      } while (seconds_since(run_start) < args.seconds);
      metrics = layer_metrics(rounds[rounds.size() - 2], rounds.back(),
                              *tracer, overheads, rounds.front().setup_rss_mb);
    }
    std::size_t failed = 0;
    for (const Round& r : rounds) failed += r.failures.empty() ? 0 : 1;
    print_result(failed == 0, rounds.size(), failed, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "seambench: %s\n", e.what());
    return 1;
  }
  return 0;
}
