// Scenario configuration: synthetic stand-ins for the paper's 26 live
// torrents (Table I) plus ablation scenarios.
//
// A scenario describes a torrent's population, capacities and dynamics;
// ScenarioRunner builds the Swarm, injects the instrumented local peer,
// and drives arrivals/departures.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/params.h"
#include "fault/fault_plan.h"
#include "net/backend.h"
#include "net/types.h"
#include "peer/observer.h"
#include "peer/peer.h"
#include "sim/simulation.h"
#include "swarm/swarm.h"
#include "wire/geometry.h"

namespace swarmlab::instrument {
class ObserverList;
class SwarmProbe;
}

namespace swarmlab::swarm {

/// A class of leecher access links: `fraction` of leechers get these
/// capacities (bytes/second).
struct CapacityClass {
  double fraction = 1.0;
  double up = 32.0 * 1024;
  double down = 256.0 * 1024;
};

/// Default heterogeneous leecher mix (asymmetric residential links of the
/// paper's era; download ~8x upload).
std::vector<CapacityClass> default_capacity_classes();

/// How a scenario run is observed (see docs/observability.md). The
/// default plan reproduces the paper's methodology — one instrumented
/// local peer — and is guaranteed not to change any trajectory;
/// widening the scope attaches a strictly passive SwarmProbe, which is
/// equally trajectory-neutral (enforced by the digest-under-observation
/// test).
struct ObservationPlan {
  enum class Scope : std::uint8_t {
    kLocal,    ///< the local peer only (the paper's §III-C setup)
    kSampled,  ///< local peer + the first `sample_k` peers spawned
    kAll,      ///< every peer, current and future
  };
  Scope scope = Scope::kLocal;
  /// Peer cap for Scope::kSampled. Selection is "first K spawned" —
  /// deterministic, no RNG draws.
  std::uint32_t sample_k = 8;
  /// SwarmProbe time-series sampling period (seconds).
  double sampling_period = 20.0;
  /// Cap on per-peer detail logs inside the SwarmProbe (0 = unlimited).
  /// Counters, matrix occupancy and every time series still cover ALL
  /// probed peers; only LocalPeerLog/ChokeMarketLog allocation is
  /// limited to the first N tracked. Mega-swarm kAll/kSampled runs set
  /// this so probe memory is O(cap) rather than O(population).
  std::uint32_t detail_peer_cap = 0;

  enum class TraceFormat : std::uint8_t { kNone, kCsv, kJsonl };
  TraceFormat trace_format = TraceFormat::kNone;
  /// Where run_scenario_job writes the local peer's trace (empty =
  /// keep in memory only).
  std::string trace_path;
  /// TraceWriter event cap (0 = unlimited); overflow is accounted, not
  /// silent (sentinel CSV row / JSONL trailer).
  std::size_t trace_max_events = 200000;

  /// True when a swarm-scope probe should be built for this plan.
  [[nodiscard]] bool swarm_scope() const { return scope != Scope::kLocal; }
};

/// Full description of one experiment's torrent.
struct ScenarioConfig {
  std::string name = "scenario";
  int torrent_id = 0;  // Table-I row (0 = custom)

  // --- content ----------------------------------------------------------
  std::uint32_t num_pieces = 128;
  std::uint32_t piece_size = 256 * 1024;
  std::uint32_t block_size = 16 * 1024;

  [[nodiscard]] wire::ContentGeometry geometry() const {
    return wire::ContentGeometry(
        std::uint64_t{num_pieces} * piece_size, piece_size, block_size);
  }

  // --- population at t = 0 ----------------------------------------------
  std::uint32_t initial_seeds = 1;
  std::uint32_t initial_leechers = 50;
  /// Steady-state warm start: initial leechers hold a uniform-random
  /// completion fraction in [warm_min, warm_max]. Cold (transient-state)
  /// torrents set this false so every leecher starts empty.
  bool leechers_warm = false;
  double warm_min = 0.05;
  double warm_max = 0.95;
  /// Fraction of pieces absent from *every* initial peer (dead pieces;
  /// models Table-I torrent 1: zero seeds, incomplete torrent).
  double dead_piece_fraction = 0.0;

  // --- dynamics -----------------------------------------------------------
  double arrival_rate = 0.0;       ///< Poisson leecher arrivals per second
  std::uint32_t max_population = 400;
  /// Mean seeding time after completion before a remote peer departs
  /// (exponential); <= 0 keeps finished peers forever.
  double seed_linger_mean = 900.0;
  bool initial_seeds_stay = true;  ///< initial seeds never depart
  /// Per-second hazard of a remote leecher aborting before completion.
  double leecher_abort_rate = 0.0;
  double free_rider_fraction = 0.0;

  // --- capacities ----------------------------------------------------------
  std::vector<CapacityClass> leecher_classes = default_capacity_classes();
  double initial_seed_upload = 40.0 * 1024;
  double initial_seed_download = net::kUnlimited;

  // --- the instrumented local peer ----------------------------------------
  bool spawn_local_peer = true;
  double local_join_time = 0.0;
  double local_upload = 20.0 * 1024;  ///< paper default cap: 20 kB/s
  double local_download = net::kUnlimited;
  bool local_free_rider = false;

  // --- protocol -------------------------------------------------------------
  core::ProtocolParams remote_params;
  core::ProtocolParams local_params;

  // --- fault injection --------------------------------------------------------
  /// Declarative failure schedule (all-zero by default = no faults).
  /// Executed by a fault::FaultInjector constructed against the runner;
  /// when any fault is enabled the runner turns on liveness timers for
  /// every peer (local and remote) so the swarm can survive it.
  fault::FaultPlan faults;
  /// Tracker-side expiry for members that stop announcing (seconds;
  /// 0 disables). The default is 2.5x the re-announce interval: active
  /// peers refresh every ~1800 s, so only crashed peers ever expire and
  /// fault-free runs are untouched.
  double tracker_member_expiry = 4500.0;

  // --- run control ------------------------------------------------------------
  double control_latency = 0.05;
  double duration = 40000.0;  ///< hard stop (simulated seconds)
  /// Network backend name (net/backend.h registry): "fluid" (max-min
  /// rate model, the default) or "packet" (store-and-forward segments).
  std::string network_backend = net::kDefaultNetworkBackend;
  /// Observation scope / trace format for this run (purely passive).
  ObservationPlan observation;
};

/// Validates a ScenarioConfig before any peer spawns. Returns an empty
/// string when the config is runnable, otherwise a human-actionable
/// message naming the offending field and its value. ScenarioRunner
/// rejects invalid configs by throwing std::invalid_argument, which the
/// batch runner maps to a report-schema `status: failed` entry — an
/// impossible geometry or warm range fails loudly instead of producing
/// silent nonsense.
std::string validate_scenario(const ScenarioConfig& cfg);

/// One Table-I row as published.
struct TorrentSpec {
  int id;
  std::uint32_t seeds;
  std::uint32_t leechers;
  std::uint32_t size_mb;
};

/// The paper's Table I (26 torrents).
const std::array<TorrentSpec, 26>& table1_torrents();

/// Caps applied when scaling Table-I torrents to simulable size.
struct ScaleLimits {
  std::uint32_t max_peers = 240;   ///< concurrent population cap
  std::uint32_t min_leechers = 2;
  std::uint32_t max_pieces = 280;
  std::uint32_t min_pieces = 16;
  std::uint32_t piece_size = 256 * 1024;
  std::uint32_t block_size = 16 * 1024;
  double duration = 40000.0;
};

/// Builds the scenario for Table-I torrent `torrent_id` (1-26), scaled to
/// `limits`. Seed/leecher ratios, warm/cold start (transient vs steady
/// state) and relative content sizes follow the published row.
ScenarioConfig scenario_from_table1(int torrent_id,
                                    const ScaleLimits& limits = {});

/// Owns a Simulation + Swarm built from a ScenarioConfig and drives the
/// scenario's population dynamics.
class ScenarioRunner {
 public:
  /// `local_observer` observes the instrumented local peer.
  /// `swarm_observer` (optional) observes the peers cfg.observation.scope
  /// names: the local peer (kLocal), the local peer plus the first
  /// sample_k other peers spawned (kSampled), or every peer including
  /// later arrivals (kAll). Each peer's observer is chosen when the peer
  /// is added, so construction-time callbacks (on_start at t=0) are
  /// captured. With both observers set, the local peer reports to
  /// `local_observer` first, then to `swarm_observer`.
  ScenarioRunner(ScenarioConfig cfg, std::uint64_t seed,
                 peer::SwarmObserver* local_observer = nullptr,
                 peer::SwarmObserver* swarm_observer = nullptr);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] const sim::Simulation& simulation() const { return *sim_; }
  [[nodiscard]] Swarm& swarm() { return *swarm_; }
  [[nodiscard]] const Swarm& swarm() const { return *swarm_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] peer::PeerId local_peer_id() const { return local_id_; }
  [[nodiscard]] peer::Peer& local_peer();
  [[nodiscard]] const peer::Peer& local_peer() const;
  /// Peers spawned as initial seeds (empty for zero-seed scenarios).
  [[nodiscard]] const std::vector<peer::PeerId>& initial_seed_ids() const {
    return initial_seed_ids_;
  }

  /// Runs to the configured duration.
  void run();

  /// Called between simulation steps with the current time.
  using StepVisitor = std::function<void(double)>;

  /// Runs until the local peer completes, then `extra` more seconds, all
  /// capped by the configured duration. Returns the stop time. The clock
  /// advances in `step`-second strides from the current time, and
  /// completion is noticed at the end of the stride that holds it, so
  /// with extra = 0 the stop time is that stride's end. `on_step`, when
  /// set, runs at the end of every full stride (every grid point up to
  /// the stop time): state read there is read on a fixed grid without
  /// scheduling an event.
  double run_until_local_complete(double extra, double step = 50.0,
                                  const StepVisitor& on_step = {});

 private:
  void spawn_initial_population();
  peer::PeerId spawn_leecher(bool warm);
  void schedule_arrivals();
  void schedule_churn_tick();
  /// The observer for the next peer to be added, per
  /// cfg.observation.scope (null when nothing observes it). Call once per
  /// add_peer, in spawn order: kSampled counts the peers it hands out.
  peer::SwarmObserver* observer_for(bool is_local);

  ScenarioConfig cfg_;
  /// Fan-out for the local peer when both observers are set; declared
  /// before swarm_ so it outlives the peers that call it.
  std::unique_ptr<instrument::ObserverList> local_fan_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Swarm> swarm_;
  peer::SwarmObserver* local_observer_;
  peer::SwarmObserver* swarm_observer_ = nullptr;
  std::uint32_t observed_samples_ = 0;
  peer::PeerId local_id_ = peer::kNoPeer;
  std::vector<peer::PeerId> initial_seed_ids_;
  /// Departure deadlines assigned to finished remote peers.
  std::map<peer::PeerId, double> departures_;
  std::vector<bool> dead_pieces_;
  /// Pieces present in the initial distribution (dead pieces excluded);
  /// fixed for the run, so warm-start sampling never rebuilds it.
  std::vector<wire::PieceIndex> alive_pieces_;
};

/// Points `probe` at `runner`'s swarm: peer lookups for the per-peer
/// series, the swarm-global availability for `replication_entropy`, and
/// the local peer as the focus of the copies/rarest-set/peer-set series
/// (the paper's instrumented client, Figs. 2-6). Call after the runner
/// is built; callbacks before then feed the counters but not the
/// focus series. `runner` must outlive the probe's last callback.
void bind_probe(instrument::SwarmProbe& probe,
                const ScenarioRunner& runner);

}  // namespace swarmlab::swarm
