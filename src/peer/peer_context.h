// Shared state and wiring of the peer protocol modules.
//
// peer::Peer is a thin composer: the protocol logic lives in six narrow
// modules (DownloadScheduler, UploadServicer, InterestTracker,
// ChokeDriver, PeerSetManager, SuperSeedPolicy). PeerContext is the
// state they all read — identity, possession, the connection table —
// plus the two helpers every module needs (clock and control-message
// send). PeerModules is the sibling directory through which modules
// call each other; Peer wires it after constructing them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/availability.h"
#include "core/bitfield.h"
#include "core/params.h"
#include "net/types.h"
#include "peer/connection.h"
#include "peer/content_store.h"
#include "peer/types.h"
#include "wire/geometry.h"
#include "wire/messages.h"

namespace swarmlab::peer {

class Fabric;
class SwarmObserver;
class DownloadScheduler;
class UploadServicer;
class InterestTracker;
class ChokeDriver;
class PeerSetManager;
class SuperSeedPolicy;

/// Static configuration of one peer.
struct PeerConfig {
  PeerId id = kNoPeer;
  core::ProtocolParams params;

  /// Access-link capacities in bytes/second (paper default for the
  /// monitored client: 20 kB/s up, unlimited down).
  double upload_capacity = 20.0 * 1024.0;
  double download_capacity = net::kUnlimited;

  /// A free rider never serves anyone (§IV-B: leechers that never upload).
  bool free_rider = false;

  /// A polluter: every block it serves is garbage (fails the receiver's
  /// piece hash check). Used for failure-injection experiments.
  bool sends_corrupt_data = false;

  /// Starts with the complete content (a seed).
  bool start_complete = false;

  /// Optional warm start: exact initial possession (overrides
  /// start_complete when non-empty). Used to model joining a torrent in
  /// steady state, where remote peers hold partial content.
  std::vector<bool> initial_pieces;
};

/// The state every protocol module shares.
struct PeerContext {
  PeerContext(Fabric& fabric, const wire::ContentGeometry& geometry,
              PeerConfig config, SwarmObserver* obs);

  Fabric& fabric;
  wire::ContentGeometry geo;
  PeerConfig cfg;
  SwarmObserver* observer;  // may be null

  core::Bitfield have;
  core::AvailabilityMap availability;
  ConnectionTable conns;  // iterates in ascending remote id: deterministic

  /// Data plane storage (null when the fabric has no metainfo).
  std::unique_ptr<ContentStore> store;

  bool started = false;
  bool stopped = false;
  double start_time = -1.0;
  double completion_time = -1.0;
  /// Largest peer set observed while in leecher state (Table I col 5).
  std::size_t max_peer_set_leecher = 0;

  [[nodiscard]] double now() const;
  [[nodiscard]] bool active() const { return started && !stopped; }
  [[nodiscard]] bool is_seed() const { return have.complete(); }
  [[nodiscard]] Connection* find_conn(PeerId remote) {
    return conns.find(remote);
  }

  /// Stamps the connection's last-sent time, logs via the observer, and
  /// hands the message to the fabric.
  void send(PeerId to, wire::Message msg);
};

/// Sibling directory: how modules reach each other. Non-owning; Peer
/// owns the modules and fills this in after constructing them.
/// `super_seed` is null unless the extension is active.
struct PeerModules {
  DownloadScheduler* download = nullptr;
  UploadServicer* upload = nullptr;
  InterestTracker* interest = nullptr;
  ChokeDriver* choke = nullptr;
  PeerSetManager* peer_set = nullptr;
  SuperSeedPolicy* super_seed = nullptr;
};

}  // namespace swarmlab::peer
