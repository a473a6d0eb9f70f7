// The Swarm: owns every peer in one torrent and implements peer::Fabric —
// control-message routing, block transport over the fluid network,
// connection brokering, and the tracker front end.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/availability.h"
#include "net/network.h"
#include "peer/fabric.h"
#include "peer/observer.h"
#include "peer/peer.h"
#include "sim/simulation.h"
#include "swarm/tracker.h"
#include "wire/geometry.h"

namespace swarmlab::swarm {

/// One torrent's worth of simulated peers.
class Swarm final : public peer::Fabric {
 public:
  /// `network` selects the transport backend; null uses the default
  /// ("fluid", see net/backend.h). The swarm depends only on
  /// net::Network, so registered alternative backends slot in here
  /// without any swarm change.
  Swarm(sim::Simulation& sim, const wire::ContentGeometry& geometry,
        double control_latency = 0.05,
        std::unique_ptr<net::Network> network = nullptr);

  /// Data-plane mode: peers exchange the real content bytes described by
  /// `meta` and verify every completed piece against its SHA-1. Heavier
  /// (blocks are materialized); intended for correctness-focused runs.
  Swarm(sim::Simulation& sim, wire::Metainfo meta,
        double control_latency = 0.05,
        std::unique_ptr<net::Network> network = nullptr);

  // --- peer management --------------------------------------------------

  /// Creates a peer (and its network node). `cfg.id` is assigned by the
  /// swarm and returned. The peer does not join the torrent until
  /// start_peer(). `observer` (may be null) receives the peer's callback
  /// stream for its whole life; it is purely observational and never
  /// changes a trajectory.
  peer::PeerId add_peer(peer::PeerConfig cfg,
                        peer::SwarmObserver* observer = nullptr);

  /// Joins the torrent now.
  void start_peer(peer::PeerId id);

  /// Leaves the torrent and releases the peer's network node. The Peer
  /// object remains queryable (its final statistics survive).
  void stop_peer(peer::PeerId id);

  /// Abrupt crash (fault injection): like stop_peer but with no Stopped
  /// announce and no disconnect callbacks — remote peers keep ghost
  /// entries until their liveness timers evict them. In-flight transfers
  /// abort silently (the node vanishes). Returns false if the peer was
  /// not active. The Peer object remains queryable.
  bool crash_peer(peer::PeerId id);

  [[nodiscard]] peer::Peer* find_peer(peer::PeerId id);
  [[nodiscard]] const peer::Peer* find_peer(peer::PeerId id) const;

  /// Ids of all peers ever added (including departed ones).
  [[nodiscard]] std::vector<peer::PeerId> peer_ids() const;

  /// Ids of the peers currently in the torrent, ascending. O(active):
  /// the list carries tombstones from departures and compacts them
  /// lazily, so callers that tick over the live population (churn,
  /// entropy walks, fault plans) never pay for the swarm's full history.
  [[nodiscard]] const std::vector<peer::PeerId>& active_peer_ids() const;

  /// Number of peers currently in the torrent. O(1).
  [[nodiscard]] std::size_t active_peers() const { return active_count_; }

  /// Pre-sizes the slot table for an expected total population (peers
  /// ever added, not just concurrent) so mega-swarm arrival storms do
  /// not re-allocate the table log(n) times mid-run.
  void reserve_peers(std::size_t expected_total);

  [[nodiscard]] Tracker& tracker() { return tracker_; }
  [[nodiscard]] const Tracker& tracker() const { return tracker_; }
  [[nodiscard]] const wire::ContentGeometry& geometry() const { return geo_; }

  /// True when every piece has at least one copy among active peers — the
  /// torrent is alive (§II-B).
  [[nodiscard]] bool torrent_alive() const;

  // --- fault injection -----------------------------------------------------

  /// Per-delivery control-message fault hook (fault::FaultInjector).
  /// Called once per (message, receiver); returns false to drop the
  /// delivery, or true to deliver after an additional `*extra_delay`
  /// seconds (preset to 0). Unset in fault-free runs — the batched
  /// broadcast fast path and single-lambda sends stay byte-identical.
  using ControlFault = std::function<bool(double* extra_delay)>;
  void set_control_fault(ControlFault hook) {
    control_fault_ = std::move(hook);
  }

  // --- Fabric -------------------------------------------------------------

  sim::Simulation& simulation() override { return sim_; }
  net::Network& network() override { return *net_; }
  void send_control(peer::PeerId from, peer::PeerId to,
                    wire::Message msg) override;
  void broadcast_have(peer::PeerId from, wire::PieceIndex piece) override;
  net::FlowId send_block(peer::PeerId from, peer::PeerId to,
                         wire::BlockRef block) override;
  void connect(peer::PeerId from, peer::PeerId to) override;
  void disconnect(peer::PeerId a, peer::PeerId b) override;
  peer::AnnounceResult announce(peer::PeerId who,
                                peer::AnnounceEvent event) override;
  const core::AvailabilityMap& global_availability() const override {
    return global_availability_;
  }
  const wire::Metainfo* metainfo() const override {
    return meta_.has_value() ? &*meta_ : nullptr;
  }

 private:
  struct Slot {
    std::unique_ptr<peer::Peer> peer;
    net::NodeId node = 0;
    bool in_torrent = false;  // between start_peer and stop_peer
    bool counted_in_global = false;
  };

  /// Peer lookup for active slots only.
  peer::Peer* active_peer(peer::PeerId id);

  /// Membership bookkeeping shared by start/stop/crash.
  void mark_active(peer::PeerId id);
  void mark_inactive(peer::PeerId id);

  /// O(1) slot lookup. PeerIds are dense (assigned 1, 2, ... by
  /// add_peer and never recycled), so the slot table is a plain vector
  /// indexed by id - 1; departed peers keep their slot with
  /// in_torrent = false.
  [[nodiscard]] Slot* slot_of(peer::PeerId id) {
    return id >= 1 && id <= slots_.size() ? &slots_[id - 1] : nullptr;
  }
  [[nodiscard]] const Slot* slot_of(peer::PeerId id) const {
    return id >= 1 && id <= slots_.size() ? &slots_[id - 1] : nullptr;
  }

  sim::Simulation& sim_;
  wire::ContentGeometry geo_;
  std::optional<wire::Metainfo> meta_;  // engaged in data-plane mode
  std::unique_ptr<net::Network> net_;
  Tracker tracker_;
  std::vector<Slot> slots_;  // index = PeerId - 1
  /// Active ids in ascending order plus tombstones (departed ids not
  /// yet compacted away); mutable so const iteration can compact.
  mutable std::vector<peer::PeerId> active_ids_;
  mutable std::size_t active_tombstones_ = 0;
  std::size_t active_count_ = 0;
  core::AvailabilityMap global_availability_;
  peer::PeerId next_id_ = 1;
  ControlFault control_fault_;  // null in fault-free runs
};

}  // namespace swarmlab::swarm
