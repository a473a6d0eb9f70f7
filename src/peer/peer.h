// The BitTorrent peer: a thin composer over the protocol modules.
//
// Every simulated peer — the instrumented local peer and every remote
// peer — runs this same implementation of the full protocol. The logic
// lives in six narrow modules (see peer_context.h): DownloadScheduler
// (request pipeline, end game, hash-failure recovery), UploadServicer
// (request queue, block sends), InterestTracker (bitfield/HAVE and
// interest signalling), ChokeDriver (choke rounds), PeerSetManager
// (tracker, admission, liveness), and SuperSeedPolicy. Peer itself only
// composes them, routes Fabric callbacks, and answers queries. Only the
// SwarmObserver it is built with distinguishes the local peer (paper
// §III-A: a single instrumented mainline 4.0.2 client).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "peer/peer_context.h"

namespace swarmlab::peer {

/// One simulated BitTorrent peer.
class Peer {
 public:
  /// `observer` (may be null) receives this peer's callback stream for
  /// its whole life; it is fixed here and never changes behaviour.
  Peer(Fabric& fabric, const wire::ContentGeometry& geometry, PeerConfig cfg,
       SwarmObserver* observer = nullptr);
  ~Peer();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  // --- lifecycle -------------------------------------------------------

  /// Joins the torrent: announces to the tracker, opens initial
  /// connections, and starts the choke round timer.
  void start();

  /// Leaves the torrent: announces `stopped`, closes all connections,
  /// cancels timers.
  void stop();

  /// Abrupt death (fault injection): cancels this peer's own timers and
  /// nothing else — no Stopped announce, no disconnect callbacks. Every
  /// remote peer keeps a ghost Connection to us until its liveness timers
  /// notice the silence.
  void crash();

  [[nodiscard]] bool active() const { return ctx_.active(); }

  // --- fabric-driven entry points --------------------------------------

  /// Whether this peer accepts one more incoming connection.
  [[nodiscard]] bool accepts_connection(PeerId from) const;

  void on_connected(PeerId remote, bool initiated_by_us);
  void on_disconnected(PeerId remote);
  void handle_message(PeerId from, const wire::Message& msg);

  /// The block we were uploading to `to` finished transferring.
  void on_block_sent(PeerId to, wire::BlockRef block, std::uint32_t bytes);

  // --- queries ----------------------------------------------------------

  [[nodiscard]] PeerId id() const { return ctx_.cfg.id; }
  [[nodiscard]] const PeerConfig& config() const { return ctx_.cfg; }
  [[nodiscard]] const wire::ContentGeometry& geometry() const {
    return ctx_.geo;
  }
  [[nodiscard]] bool is_seed() const { return ctx_.is_seed(); }
  [[nodiscard]] const core::Bitfield& have() const { return ctx_.have; }
  [[nodiscard]] const core::AvailabilityMap& availability() const {
    return ctx_.availability;
  }
  [[nodiscard]] std::size_t peer_set_size() const { return ctx_.conns.size(); }
  /// Connections this peer initiated (bounded by params.max_initiated).
  [[nodiscard]] std::size_t initiated_connections() const;
  [[nodiscard]] const Connection* connection(PeerId remote) const {
    return ctx_.conns.find(remote);
  }
  [[nodiscard]] std::vector<PeerId> connected_peers() const;
  [[nodiscard]] bool in_end_game() const;
  /// Time the peer joined; -1 before start().
  [[nodiscard]] double start_time() const { return ctx_.start_time; }
  /// Time the download completed; -1 while still leeching.
  [[nodiscard]] double completion_time() const { return ctx_.completion_time; }
  [[nodiscard]] std::uint64_t total_uploaded() const;
  [[nodiscard]] std::uint64_t total_downloaded() const;
  /// Pieces that failed hash verification and were re-downloaded.
  [[nodiscard]] std::uint64_t corrupted_pieces() const;
  /// Non-null when the fabric runs the data plane (real content bytes).
  [[nodiscard]] const ContentStore* content_store() const {
    return ctx_.store.get();
  }
  /// Reads a block's bytes for upload (data plane only; the piece must
  /// be owned).
  [[nodiscard]] std::vector<std::uint8_t> read_block(
      wire::BlockRef block) const;
  /// Largest peer set observed while in leecher state (Table I col 5).
  [[nodiscard]] std::size_t max_peer_set_leecher() const {
    return ctx_.max_peer_set_leecher;
  }
  /// Ghost connections evicted by the silence timeout (liveness timers).
  [[nodiscard]] std::uint64_t ghosts_evicted() const;
  /// Block requests returned to the picker by the request timeout.
  [[nodiscard]] std::uint64_t timed_out_requests() const;
  /// Tracker announces that failed (outages) and were retried.
  [[nodiscard]] std::uint64_t announce_failures() const;

 private:
  PeerContext ctx_;
  PeerModules mods_;

  std::unique_ptr<DownloadScheduler> download_;
  std::unique_ptr<UploadServicer> upload_;
  std::unique_ptr<InterestTracker> interest_;
  std::unique_ptr<ChokeDriver> choke_;
  std::unique_ptr<PeerSetManager> peer_set_;
  std::unique_ptr<SuperSeedPolicy> super_seed_;  // non-null when enabled
};

}  // namespace swarmlab::peer
