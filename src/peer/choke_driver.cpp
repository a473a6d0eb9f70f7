#include "peer/choke_driver.h"

#include <algorithm>

#include "peer/fabric.h"
#include "peer/observer.h"
#include "sim/simulation.h"

namespace swarmlab::peer {

ChokeDriver::ChokeDriver(PeerContext& ctx, PeerModules& mods)
    : ctx_(ctx),
      mods_(mods),
      leecher_choker_(core::make_leecher_choker(ctx.cfg.params)),
      seed_choker_(core::make_seed_choker(ctx.cfg.params)) {}

void ChokeDriver::handle_interested(Connection& conn, bool interested) {
  if (conn.peer_interested == interested) return;
  conn.peer_interested = interested;
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_remote_interest_change(ctx_.cfg.id, ctx_.now(),
                                             conn.remote, interested);
  }
}

void ChokeDriver::start() {
  // Desynchronize choke rounds across peers.
  const double phase = ctx_.fabric.simulation().rng().uniform(
      0.0, ctx_.cfg.params.choke_interval);
  choke_event_ = ctx_.fabric.simulation().schedule_in(
      phase, [this] { run_choke_round(); });
}

void ChokeDriver::cancel() {
  if (choke_event_ != 0) ctx_.fabric.simulation().cancel(choke_event_);
  choke_event_ = 0;
}

void ChokeDriver::schedule_choke_round() {
  choke_event_ = ctx_.fabric.simulation().schedule_in(
      ctx_.cfg.params.choke_interval, [this] { run_choke_round(); });
}

void ChokeDriver::run_choke_round() {
  if (!ctx_.active()) return;
  const std::uint64_t round = choke_round_++;
  std::vector<core::ChokeCandidate> candidates;
  candidates.reserve(ctx_.conns.size());
  const double t = ctx_.now();
  for (const Connection& conn : ctx_.conns) {
    core::ChokeCandidate c;
    c.key = conn.remote;
    c.interested = conn.peer_interested;
    c.unchoked = !conn.am_choking;
    c.download_rate = conn.download_rate.rate(t);
    c.upload_rate = conn.upload_rate.rate(t);
    c.last_unchoke_time = conn.last_unchoke_time;
    c.uploaded_to = conn.upload_rate.total_bytes();
    c.downloaded_from = conn.download_rate.total_bytes();
    c.newly_connected =
        (t - conn.connected_at) < ctx_.cfg.params.new_peer_age;
    if (ctx_.cfg.params.anti_snubbing && !conn.peer_choking &&
        !conn.outstanding.empty()) {
      const double last = conn.last_block_time >= 0.0
                              ? conn.last_block_time
                              : conn.last_request_time;
      c.snubbed = last >= 0.0 && (t - last) > ctx_.cfg.params.snub_timeout;
    }
    candidates.push_back(c);
  }
  std::vector<core::PeerKey> selected;
  if (!ctx_.cfg.free_rider) {
    core::Choker& choker =
        ctx_.is_seed() ? *seed_choker_ : *leecher_choker_;
    selected =
        choker.select(candidates, round, ctx_.fabric.simulation().rng());
  }
  std::vector<PeerId> unchoked;
  unchoked.reserve(selected.size());
  for (const core::PeerKey k : selected) {
    unchoked.push_back(static_cast<PeerId>(k));
  }
  apply_unchoke_set(unchoked);
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_choke_round(ctx_.cfg.id, t, ctx_.is_seed(), unchoked);
  }
  schedule_choke_round();
}

void ChokeDriver::apply_unchoke_set(const std::vector<PeerId>& selected) {
  const auto keep = [&selected](PeerId r) {
    return std::find(selected.begin(), selected.end(), r) != selected.end();
  };
  for (Connection& conn : ctx_.conns) {
    const PeerId remote = conn.remote;
    if (keep(remote)) {
      if (conn.am_choking) {
        conn.am_choking = false;
        conn.last_unchoke_time = ctx_.now();
        ctx_.send(remote, wire::UnchokeMsg{});
        if (ctx_.observer != nullptr) {
          ctx_.observer->on_local_choke_change(ctx_.cfg.id, ctx_.now(),
                                               remote, true);
        }
      }
    } else if (!conn.am_choking) {
      conn.am_choking = true;
      // Pending requests are dropped on choke; with the Fast Extension
      // each drop is announced with an explicit reject.
      if (ctx_.cfg.params.fast_extension) {
        for (const QueuedRequest& r : conn.upload_queue) {
          ctx_.send(remote, wire::RejectRequestMsg{
                                r.block.piece, ctx_.geo.block_offset(r.block),
                                r.bytes});
        }
      }
      conn.upload_queue.clear();
      ctx_.send(remote, wire::ChokeMsg{});
      if (ctx_.observer != nullptr) {
        ctx_.observer->on_local_choke_change(ctx_.cfg.id, ctx_.now(), remote,
                                             false);
      }
    }
  }
}

}  // namespace swarmlab::peer
