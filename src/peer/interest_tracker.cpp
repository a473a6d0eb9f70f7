#include "peer/interest_tracker.h"

#include <cassert>

#include "peer/download_scheduler.h"
#include "peer/fabric.h"
#include "peer/observer.h"
#include "peer/super_seed_policy.h"

namespace swarmlab::peer {

void InterestTracker::handle_bitfield(Connection& conn,
                                      const wire::BitfieldMsg& msg) {
  if (msg.bits.size() != ctx_.geo.num_pieces()) return;  // malformed: ignore
  // Replace any previous knowledge (a bitfield arrives once, right after
  // the handshake).
  ctx_.availability.remove_peer(conn.remote_have);
  conn.remote_have = core::Bitfield(msg.bits);
  conn.missing_count = ctx_.have.count_missing_from(conn.remote_have);
  ctx_.availability.add_peer(conn.remote_have);
  if (ctx_.is_seed() && conn.remote_have.complete()) {
    // Seeds do not keep connections to seeds.
    ctx_.fabric.disconnect(ctx_.cfg.id, conn.remote);
    return;
  }
  update_interest(conn);
}

void InterestTracker::handle_have(Connection& conn, const wire::HaveMsg& msg) {
  if (msg.piece >= ctx_.geo.num_pieces()) return;
  if (conn.remote_have.has(msg.piece)) return;
  conn.remote_have.set(msg.piece);
  if (!ctx_.have.has(msg.piece)) ++conn.missing_count;
  ctx_.availability.add_have(msg.piece);
  if (mods_.super_seed != nullptr) {
    mods_.super_seed->on_remote_have(msg.piece, conn.remote);
  }
  if (ctx_.is_seed() && conn.remote_have.complete()) {
    ctx_.fabric.disconnect(ctx_.cfg.id, conn.remote);
    return;
  }
  update_interest(conn);
  // A new piece at this peer may unblock our pipeline.
  if (conn.am_interested && !conn.peer_choking) {
    mods_.download->fill_requests(conn);
  }
}

void InterestTracker::update_interest(Connection& conn) {
  const bool now_interested = conn.missing_count > 0;
  if (now_interested == conn.am_interested) return;
  conn.am_interested = now_interested;
  if (now_interested) {
    ctx_.send(conn.remote, wire::InterestedMsg{});
  } else {
    ctx_.send(conn.remote, wire::NotInterestedMsg{});
  }
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_interest_change(ctx_.cfg.id, ctx_.now(), conn.remote,
                                      now_interested);
  }
  if (now_interested && !conn.peer_choking) {
    mods_.download->fill_requests(conn);
  }
}

void InterestTracker::on_local_piece_complete(wire::PieceIndex piece) {
  for (Connection& conn : ctx_.conns) {
    if (conn.remote_have.has(piece)) {
      assert(conn.missing_count > 0);
      --conn.missing_count;
    }
    update_interest(conn);
  }
}

void InterestTracker::on_disconnect(Connection& conn) {
  ctx_.availability.remove_peer(conn.remote_have);
}

}  // namespace swarmlab::peer
