#include "swarm/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "instrument/swarm_probe.h"
#include "instrument/trace.h"

namespace swarmlab::swarm {

std::vector<CapacityClass> default_capacity_classes() {
  // Asymmetric residential mix, download ~8x upload (bytes/second).
  //
  // Capacities are scaled down with the content (DESIGN.md §5): the paper
  // observes multi-hour downloads of ~700 MB at tens of kB/s; with
  // contents scaled to tens of MB, these rates keep download times in the
  // thousands of simulated seconds, so a joining peer meets a swarm that
  // is leecher-rich for the whole measurement — as in the live torrents.
  return {
      {0.20, 6.0 * 1024, 48.0 * 1024},
      {0.40, 12.0 * 1024, 96.0 * 1024},
      {0.25, 24.0 * 1024, 192.0 * 1024},
      {0.15, 48.0 * 1024, 384.0 * 1024},
  };
}

const std::array<TorrentSpec, 26>& table1_torrents() {
  // Columns: id, #seeds, #leechers at experiment start, content size (MB)
  // — Table I of the paper.
  static const std::array<TorrentSpec, 26> kTable = {{
      {1, 0, 66, 700},      {2, 1, 2, 580},       {3, 1, 29, 350},
      {4, 1, 40, 800},      {5, 1, 50, 1419},     {6, 1, 130, 820},
      {7, 1, 713, 700},     {8, 1, 861, 3000},    {9, 1, 1055, 2000},
      {10, 1, 1207, 348},   {11, 1, 1411, 710},   {12, 3, 612, 1413},
      {13, 9, 30, 350},     {14, 20, 126, 184},   {15, 30, 230, 820},
      {16, 50, 18, 600},    {17, 102, 342, 200},  {18, 115, 19, 430},
      {19, 160, 5, 6},      {20, 177, 4657, 2000},{21, 462, 180, 2600},
      {22, 514, 1703, 349}, {23, 1197, 4151, 349},{24, 3697, 7341, 349},
      {25, 11641, 5418, 350},{26, 12612, 7052, 140},
  }};
  return kTable;
}

namespace {

/// Torrents the paper identifies as being in transient (startup) state:
/// the initial seed has not yet served every piece, so leechers start
/// cold. (§IV-A.1 discusses 1, 2, 4-9 as low-entropy/startup; torrent 7
/// is analysed as the steady-state exemplar in §IV-A.2.b, so it is warm.)
bool is_transient_torrent(int id) {
  switch (id) {
    case 1:
    case 2:
    case 4:
    case 5:
    case 6:
    case 8:
    case 9:
      return true;
    default:
      return false;
  }
}

}  // namespace

ScenarioConfig scenario_from_table1(int torrent_id,
                                    const ScaleLimits& limits) {
  const auto& table = table1_torrents();
  assert(torrent_id >= 1 && torrent_id <= static_cast<int>(table.size()));
  const TorrentSpec& spec = table[static_cast<std::size_t>(torrent_id - 1)];

  ScenarioConfig cfg;
  cfg.torrent_id = spec.id;
  cfg.name = "table1-torrent-" + std::to_string(spec.id);

  // Scale the population to the cap, preserving the seed/leecher ratio.
  const double total =
      static_cast<double>(spec.seeds) + static_cast<double>(spec.leechers);
  const double factor =
      total > limits.max_peers ? limits.max_peers / total : 1.0;
  cfg.initial_seeds =
      spec.seeds == 0
          ? 0
          : std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(
                       std::lround(spec.seeds * factor)));
  cfg.initial_leechers = std::max<std::uint32_t>(
      limits.min_leechers,
      static_cast<std::uint32_t>(std::lround(spec.leechers * factor)));

  // Scale content: keep relative ordering of sizes, bounded for
  // simulability (each piece is 256 KiB).
  cfg.num_pieces = std::clamp<std::uint32_t>(spec.size_mb * 2 / 5,
                                             limits.min_pieces,
                                             limits.max_pieces);
  cfg.piece_size = limits.piece_size;
  cfg.block_size = limits.block_size;
  cfg.duration = limits.duration;
  cfg.max_population =
      std::max<std::uint32_t>(limits.max_peers,
                              cfg.initial_seeds + cfg.initial_leechers) +
      40;

  if (is_transient_torrent(spec.id)) {
    // Startup phase: leechers begin with nothing; the initial seed's
    // upload capacity bounds rare-piece replication (§IV-A.2.a).
    cfg.leechers_warm = false;
    cfg.arrival_rate = 0.0;
    if (spec.id == 1) {
      // Zero seeds: the torrent is incomplete; leechers collectively hold
      // only part of the content.
      cfg.leechers_warm = true;
      cfg.warm_min = 0.10;
      cfg.warm_max = 0.60;
      cfg.dead_piece_fraction = 0.25;
    }
  } else {
    // Steady state: remote leechers hold partial content; fresh leechers
    // trickle in, finished ones seed for a while then leave.
    // Replacement arrivals roughly one population per mean download time
    // keep the leecher population stable, as in a live steady torrent.
    cfg.leechers_warm = true;
    cfg.arrival_rate = cfg.initial_leechers / 3000.0;
    cfg.seed_linger_mean = 900.0;
  }
  return cfg;
}

std::string validate_scenario(const ScenarioConfig& cfg) {
  const auto fail = [&cfg](std::string what) {
    return "scenario '" + cfg.name + "': " + std::move(what);
  };
  if (cfg.num_pieces == 0) return fail("num_pieces must be >= 1");
  if (cfg.piece_size == 0) return fail("piece_size must be >= 1");
  if (cfg.block_size == 0) return fail("block_size must be >= 1");
  if (cfg.block_size > cfg.piece_size) {
    return fail("block_size (" + std::to_string(cfg.block_size) +
                ") exceeds piece_size (" + std::to_string(cfg.piece_size) +
                "); blocks subdivide pieces");
  }
  if (cfg.warm_min > cfg.warm_max) {
    return fail("warm_min (" + std::to_string(cfg.warm_min) +
                ") exceeds warm_max (" + std::to_string(cfg.warm_max) +
                "); the warm-start completion range is empty");
  }
  if (cfg.warm_min < 0.0 || cfg.warm_max > 1.0) {
    return fail("warm range [" + std::to_string(cfg.warm_min) + ", " +
                std::to_string(cfg.warm_max) +
                "] must lie within [0, 1] (completion fractions)");
  }
  if (cfg.dead_piece_fraction < 0.0 || cfg.dead_piece_fraction > 1.0) {
    return fail("dead_piece_fraction (" +
                std::to_string(cfg.dead_piece_fraction) +
                ") must lie within [0, 1]");
  }
  if (cfg.arrival_rate < 0.0) {
    return fail("arrival_rate (" + std::to_string(cfg.arrival_rate) +
                ") must be >= 0");
  }
  if (cfg.duration <= 0.0) {
    return fail("duration (" + std::to_string(cfg.duration) +
                ") must be positive");
  }
  if (cfg.leecher_classes.empty()) {
    return fail("leecher_classes must name at least one capacity class");
  }
  return "";
}

// --- ScenarioRunner ---------------------------------------------------------

namespace {

/// Pass-through that rejects unrunnable configs before any simulator
/// state exists (the config is the first member, so this runs before the
/// Simulation/Swarm constructors see the bad geometry).
ScenarioConfig validated(ScenarioConfig cfg) {
  if (std::string err = validate_scenario(cfg); !err.empty()) {
    throw std::invalid_argument(std::move(err));
  }
  return cfg;
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioConfig cfg, std::uint64_t seed,
                               peer::SwarmObserver* local_observer,
                               peer::SwarmObserver* swarm_observer)
    : cfg_(validated(std::move(cfg))),
      sim_(std::make_unique<sim::Simulation>(seed)),
      swarm_(std::make_unique<Swarm>(
          *sim_, cfg_.geometry(), cfg_.control_latency,
          net::make_network(cfg_.network_backend, *sim_,
                            cfg_.control_latency))),
      local_observer_(local_observer),
      swarm_observer_(swarm_observer) {
  if (local_observer_ != nullptr && swarm_observer_ != nullptr) {
    local_fan_ = std::make_unique<instrument::ObserverList>();
    local_fan_->add(local_observer_);
    local_fan_->add(swarm_observer_);
  }
  if (cfg_.faults.any()) {
    // Fault scenarios need the liveness machinery: crashed peers are
    // detected by silence, lost requests by timeout. Enabled swarm-wide
    // (see ProtocolParams::liveness_timers) before any peer spawns.
    cfg_.remote_params.liveness_timers = true;
    cfg_.local_params.liveness_timers = true;
  }
  swarm_->tracker().set_member_expiry(cfg_.tracker_member_expiry);
  const std::uint32_t n = cfg_.geometry().num_pieces();
  dead_pieces_.assign(n, false);
  if (cfg_.dead_piece_fraction > 0.0) {
    const auto dead = static_cast<std::size_t>(
        std::lround(cfg_.dead_piece_fraction * n));
    for (const std::size_t p : sim_->rng().sample_indices(n, dead)) {
      dead_pieces_[p] = true;
    }
  }
  alive_pieces_.reserve(n);
  for (wire::PieceIndex p = 0; p < n; ++p) {
    if (!dead_pieces_[p]) alive_pieces_.push_back(p);
  }
  // Pre-size the slot table for the initial population plus the arrival
  // head-room the population cap allows — mega-swarm arrival storms then
  // grow it rarely instead of log(n) times.
  swarm_->reserve_peers(cfg_.initial_seeds + cfg_.initial_leechers +
                        cfg_.max_population + 1);
  spawn_initial_population();
  if (cfg_.arrival_rate > 0.0) schedule_arrivals();
  schedule_churn_tick();
}

ScenarioRunner::~ScenarioRunner() = default;

peer::Peer& ScenarioRunner::local_peer() {
  peer::Peer* p = swarm_->find_peer(local_id_);
  assert(p != nullptr);
  return *p;
}

const peer::Peer& ScenarioRunner::local_peer() const {
  const peer::Peer* p = swarm_->find_peer(local_id_);
  assert(p != nullptr);
  return *p;
}

void ScenarioRunner::spawn_initial_population() {
  // Initial seeds.
  for (std::uint32_t i = 0; i < cfg_.initial_seeds; ++i) {
    peer::PeerConfig pc;
    pc.params = cfg_.remote_params;
    pc.start_complete = true;
    pc.upload_capacity = cfg_.initial_seed_upload;
    pc.download_capacity = cfg_.initial_seed_download;
    const peer::PeerId id =
        swarm_->add_peer(pc, observer_for(/*is_local=*/false));
    initial_seed_ids_.push_back(id);
    swarm_->start_peer(id);
  }
  // Initial leechers.
  for (std::uint32_t i = 0; i < cfg_.initial_leechers; ++i) {
    spawn_leecher(cfg_.leechers_warm);
  }
  // The instrumented local peer.
  if (cfg_.spawn_local_peer) {
    peer::PeerConfig pc;
    pc.params = cfg_.local_params;
    pc.upload_capacity = cfg_.local_upload;
    pc.download_capacity = cfg_.local_download;
    pc.free_rider = cfg_.local_free_rider;
    local_id_ = swarm_->add_peer(pc, observer_for(/*is_local=*/true));
    if (cfg_.local_join_time <= 0.0) {
      swarm_->start_peer(local_id_);
    } else {
      sim_->schedule_at(cfg_.local_join_time, [this] {
        swarm_->start_peer(local_id_);
      });
    }
  }
}

peer::SwarmObserver* ScenarioRunner::observer_for(bool is_local) {
  if (is_local) {
    // Every scope covers the local peer.
    if (local_fan_ != nullptr) return local_fan_.get();
    return local_observer_ != nullptr ? local_observer_ : swarm_observer_;
  }
  if (swarm_observer_ == nullptr) return nullptr;
  switch (cfg_.observation.scope) {
    case ObservationPlan::Scope::kAll:
      return swarm_observer_;
    case ObservationPlan::Scope::kLocal:
      return nullptr;
    case ObservationPlan::Scope::kSampled:
      if (observed_samples_ >= cfg_.observation.sample_k) return nullptr;
      ++observed_samples_;
      return swarm_observer_;
  }
  return nullptr;
}

peer::PeerId ScenarioRunner::spawn_leecher(bool warm) {
  sim::Rng& rng = sim_->rng();
  peer::PeerConfig pc;
  pc.params = cfg_.remote_params;
  pc.free_rider = rng.chance(cfg_.free_rider_fraction);

  // Draw an access-link class.
  double roll = rng.uniform(0.0, 1.0);
  CapacityClass chosen = cfg_.leecher_classes.back();
  for (const CapacityClass& c : cfg_.leecher_classes) {
    if (roll < c.fraction) {
      chosen = c;
      break;
    }
    roll -= c.fraction;
  }
  pc.upload_capacity = chosen.up;
  pc.download_capacity = chosen.down;

  if (warm) {
    const std::uint32_t n = cfg_.geometry().num_pieces();
    const double frac = rng.uniform(cfg_.warm_min, cfg_.warm_max);
    const auto k = static_cast<std::size_t>(
        std::lround(frac * static_cast<double>(alive_pieces_.size())));
    pc.initial_pieces.assign(n, false);
    for (const std::size_t i : rng.sample_indices(alive_pieces_.size(), k)) {
      pc.initial_pieces[alive_pieces_[i]] = true;
    }
  }

  const peer::PeerId id =
      swarm_->add_peer(pc, observer_for(/*is_local=*/false));
  swarm_->start_peer(id);

  if (cfg_.leecher_abort_rate > 0.0) {
    const double lifetime = rng.exponential(1.0 / cfg_.leecher_abort_rate);
    sim_->schedule_in(lifetime, [this, id] {
      peer::Peer* p = swarm_->find_peer(id);
      if (p != nullptr && p->active() && !p->is_seed()) {
        swarm_->stop_peer(id);
      }
    });
  }
  return id;
}

void ScenarioRunner::schedule_arrivals() {
  const double gap = sim_->rng().exponential(1.0 / cfg_.arrival_rate);
  sim_->schedule_in(gap, [this] {
    if (swarm_->active_peers() < cfg_.max_population) {
      spawn_leecher(/*warm=*/false);
    }
    schedule_arrivals();
  });
}

void ScenarioRunner::schedule_churn_tick() {
  sim_->schedule_in(10.0, [this] {
    if (cfg_.seed_linger_mean > 0.0) {
      const double t = sim_->now();
      // Active ids are visited ascending — the same order (and thus the
      // same RNG draw sequence) as the historical full-id scan, which
      // only ever drew for active seeds. Departures mid-loop tombstone
      // entries without moving the vector, so iteration stays valid.
      for (const peer::PeerId id : swarm_->active_peer_ids()) {
        if (id == local_id_) continue;
        if (cfg_.initial_seeds_stay &&
            std::binary_search(initial_seed_ids_.begin(),
                               initial_seed_ids_.end(), id)) {
          continue;
        }
        peer::Peer* p = swarm_->find_peer(id);
        if (p == nullptr || !p->active() || !p->is_seed()) continue;
        auto it = departures_.find(id);
        if (it == departures_.end()) {
          departures_[id] =
              t + sim_->rng().exponential(cfg_.seed_linger_mean);
        } else if (t >= it->second) {
          swarm_->stop_peer(id);
          departures_.erase(it);
        }
      }
    }
    schedule_churn_tick();
  });
}

void ScenarioRunner::run() { sim_->run_until(cfg_.duration); }

double ScenarioRunner::run_until_local_complete(double extra, double step,
                                                const StepVisitor& on_step) {
  assert(cfg_.spawn_local_peer && step > 0.0);
  const auto stop_time = [&] {
    const double done = local_peer().completion_time();
    return done >= 0.0 ? std::min(done + extra, cfg_.duration)
                       : cfg_.duration;
  };
  double stop_at = stop_time();
  // halted(): an attached ProgressMonitor tripped mid-step. run_until()
  // then returns without advancing the clock, so looping on it again
  // would spin the host forever — bail out and report the trip time.
  while (sim_->now() < stop_at && !sim_->halted()) {
    const double next = sim_->now() + step;
    sim_->run_until(std::min(next, stop_at));
    if (sim_->halted()) break;
    if (on_step && sim_->now() == next) on_step(next);
    stop_at = stop_time();
  }
  return sim_->now();
}

void bind_probe(instrument::SwarmProbe& probe,
                const ScenarioRunner& runner) {
  const Swarm* sw = &runner.swarm();
  probe.bind(
      [sw](peer::PeerId id) -> const peer::Peer* { return sw->find_peer(id); });
  probe.bind_availability(&sw->global_availability());
  probe.set_focus(runner.local_peer_id());
}

}  // namespace swarmlab::swarm
