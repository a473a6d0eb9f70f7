#include "peer/peer_set_manager.h"

#include <algorithm>

#include "peer/download_scheduler.h"
#include "peer/observer.h"
#include "peer/super_seed_policy.h"
#include "peer/upload_servicer.h"
#include "sim/simulation.h"

namespace swarmlab::peer {

namespace {

/// Minimum spacing between need-more-peers tracker announces.
constexpr double kRefillCooldown = 60.0;

}  // namespace

// --- lifecycle -------------------------------------------------------------

void PeerSetManager::start() {
  announce(AnnounceEvent::kStarted);
  schedule_announce();
}

void PeerSetManager::start_liveness() { schedule_liveness_tick(); }

void PeerSetManager::cancel_timers() {
  if (announce_event_ != 0) ctx_.fabric.simulation().cancel(announce_event_);
  if (announce_retry_event_ != 0) {
    ctx_.fabric.simulation().cancel(announce_retry_event_);
  }
  if (liveness_event_ != 0) ctx_.fabric.simulation().cancel(liveness_event_);
  announce_event_ = 0;
  announce_retry_event_ = 0;
  liveness_event_ = 0;
}

// --- connection admission --------------------------------------------------

bool PeerSetManager::accepts_connection(PeerId from) const {
  return ctx_.active() && !ctx_.conns.contains(from) &&
         !banned_.contains(from) &&
         ctx_.conns.size() < ctx_.cfg.params.max_peer_set;
}

void PeerSetManager::on_connected(PeerId remote, bool initiated_by_us) {
  if (!ctx_.active() || ctx_.conns.contains(remote)) return;
  Connection conn;
  conn.remote = remote;
  conn.initiated_by_us = initiated_by_us;
  conn.connected_at = ctx_.now();
  conn.last_seen = ctx_.now();
  conn.last_sent = ctx_.now();
  conn.remote_have = core::Bitfield(ctx_.geo.num_pieces());
  Connection& inserted = ctx_.conns.insert(std::move(conn));
  if (!ctx_.is_seed()) {
    ctx_.max_peer_set_leecher =
        std::max(ctx_.max_peer_set_leecher, ctx_.conns.size());
  }
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_peer_joined(ctx_.cfg.id, ctx_.now(), remote);
  }
  if (mods_.super_seed != nullptr) {
    // Super seeding: advertise nothing; reveal pieces one at a time.
    mods_.super_seed->reveal_next(inserted);
  } else if (ctx_.cfg.params.fast_extension && ctx_.have.complete()) {
    ctx_.send(remote, wire::HaveAllMsg{});
  } else if (ctx_.cfg.params.fast_extension && ctx_.have.none()) {
    ctx_.send(remote, wire::HaveNoneMsg{});
  } else if (ctx_.have.count() > 0) {
    ctx_.send(remote, wire::BitfieldMsg{ctx_.have.bits()});
  }
}

void PeerSetManager::ban(PeerId remote) {
  banned_.insert(remote);
  if (ctx_.conns.contains(remote)) {
    ctx_.fabric.disconnect(ctx_.cfg.id, remote);
  }
}

std::size_t PeerSetManager::initiated_connections() const {
  std::size_t n = 0;
  for (const Connection& conn : ctx_.conns) {
    if (conn.initiated_by_us) ++n;
  }
  return n;
}

// --- tracker ---------------------------------------------------------------

void PeerSetManager::schedule_announce() {
  announce_event_ = ctx_.fabric.simulation().schedule_in(
      ctx_.cfg.params.tracker_reannounce_interval, [this] {
        if (!ctx_.active()) return;
        announce(AnnounceEvent::kRegular);
        schedule_announce();
      });
}

void PeerSetManager::announce(AnnounceEvent event) {
  const AnnounceResult result = ctx_.fabric.announce(ctx_.cfg.id, event);
  if (!result.ok) {
    // Tracker outage. A stopping peer gives up (as a real client's final
    // announce does); everyone else retries with exponential backoff.
    ++announce_failures_;
    if (event != AnnounceEvent::kStopped) schedule_announce_retry();
    return;
  }
  announce_backoff_level_ = 0;
  if (event == AnnounceEvent::kStopped) return;
  initiate_connections(result.peers);
}

void PeerSetManager::schedule_announce_retry() {
  if (announce_retry_event_ != 0) return;  // one pending retry at a time
  const std::uint32_t level = std::min<std::uint32_t>(
      announce_backoff_level_, 10);  // 15 s * 2^10 already beyond any cap
  double delay = ctx_.cfg.params.announce_retry_base *
                 static_cast<double>(std::uint64_t{1} << level);
  delay = std::min(delay, ctx_.cfg.params.announce_retry_max);
  // +/-25% jitter desynchronizes the retry storm when an outage ends.
  // This draw is on the main simulation Rng, which is safe for the
  // determinism contract: the failure path is unreachable unless a fault
  // plan is active.
  delay *= ctx_.fabric.simulation().rng().uniform(0.75, 1.25);
  ++announce_backoff_level_;
  announce_retry_event_ = ctx_.fabric.simulation().schedule_in(delay, [this] {
    announce_retry_event_ = 0;
    if (!ctx_.active()) return;
    announce(AnnounceEvent::kRegular);
  });
}

void PeerSetManager::maybe_refill_peer_set() {
  if (ctx_.conns.size() >= ctx_.cfg.params.min_peer_set) return;
  if (ctx_.now() - last_refill_announce_ < kRefillCooldown) return;
  last_refill_announce_ = ctx_.now();
  announce(AnnounceEvent::kRegular);
}

void PeerSetManager::initiate_connections(
    const std::vector<PeerId>& candidates) {
  std::size_t initiated = initiated_connections();
  for (const PeerId c : candidates) {
    if (ctx_.conns.size() >= ctx_.cfg.params.max_peer_set) break;
    if (initiated >= ctx_.cfg.params.max_initiated) break;
    if (c == ctx_.cfg.id || ctx_.conns.contains(c) || banned_.contains(c)) {
      continue;
    }
    ctx_.fabric.connect(ctx_.cfg.id, c);
    ++initiated;  // optimistic: failed attempts free the slot via conns
  }
}

// --- liveness timers -------------------------------------------------------

void PeerSetManager::schedule_liveness_tick() {
  liveness_event_ = ctx_.fabric.simulation().schedule_in(
      ctx_.cfg.params.liveness_check_interval,
      [this] { run_liveness_tick(); });
}

void PeerSetManager::run_liveness_tick() {
  if (!ctx_.active()) return;
  const double t = ctx_.now();
  std::vector<PeerId> ghosts;
  bool blocks_freed = false;
  for (Connection& conn : ctx_.conns) {
    // Silence detection: a peer that crashed (or whose link is wholly
    // lossy) sends nothing — not even keepalives — and gets evicted.
    if (t - conn.last_seen > ctx_.cfg.params.silence_timeout) {
      ghosts.push_back(conn.remote);
      continue;
    }
    // Keepalive: mainline sends one after keepalive_interval of tx
    // silence so a healthy-but-quiet link never trips the remote's
    // silence timeout.
    if (t - conn.last_sent >= ctx_.cfg.params.keepalive_interval) {
      ctx_.send(conn.remote, wire::KeepAliveMsg{});
    }
    // Request timeout: an unchoked link that stopped delivering returns
    // its outstanding blocks to the picker for re-request elsewhere.
    blocks_freed = mods_.download->check_request_timeout(conn, t) ||
                   blocks_freed;
    mods_.upload->recover_wedged_upload(conn);
  }
  for (const PeerId r : ghosts) {
    ++ghosts_evicted_;
    blocks_freed = true;  // on_disconnected released its outstanding
    ctx_.fabric.disconnect(ctx_.cfg.id, r);
  }
  if (blocks_freed) mods_.download->refill_all();
  schedule_liveness_tick();
}

}  // namespace swarmlab::peer
