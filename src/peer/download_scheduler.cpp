#include "peer/download_scheduler.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <vector>

#include "peer/fabric.h"
#include "peer/interest_tracker.h"
#include "peer/observer.h"
#include "peer/peer_set_manager.h"
#include "sim/simulation.h"

namespace swarmlab::peer {

DownloadScheduler::DownloadScheduler(PeerContext& ctx, PeerModules& mods)
    : ctx_(ctx),
      mods_(mods),
      picker_(core::make_picker(ctx.cfg.params.picker, ctx.cfg.params)) {
  // Count the initially unrequested blocks (those of missing pieces).
  for (wire::PieceIndex p = 0; p < ctx_.geo.num_pieces(); ++p) {
    if (!ctx_.have.has(p)) unrequested_blocks_ += ctx_.geo.blocks_in_piece(p);
  }
}

// --- message handlers ------------------------------------------------------

void DownloadScheduler::handle_choke(Connection& conn, bool choked) {
  if (conn.peer_choking == choked) return;
  conn.peer_choking = choked;
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_remote_choke_change(ctx_.cfg.id, ctx_.now(),
                                          conn.remote, !choked);
  }
  if (choked) {
    // Everything outstanding on this link is implicitly dropped by the
    // remote; return the blocks to the pool so other links can fetch
    // them.
    for (const wire::BlockRef b : conn.outstanding) release_request(b);
    conn.outstanding.clear();
  } else {
    fill_requests(conn);
  }
}

void DownloadScheduler::handle_reject(Connection& conn,
                                      const wire::RejectRequestMsg& msg) {
  const wire::BlockRef block{msg.piece, ctx_.geo.block_at_offset(msg.begin)};
  auto& out = conn.outstanding;
  const auto it = std::find(out.begin(), out.end(), block);
  if (it == out.end()) return;  // stale reject
  out.erase(it);
  release_request(block);
  // Re-route the freed pipeline slot immediately.
  if (conn.am_interested && !conn.peer_choking) fill_requests(conn);
}

void DownloadScheduler::handle_block(Connection& conn,
                                     const wire::PieceMsg& msg) {
  const wire::BlockRef block{msg.piece, ctx_.geo.block_at_offset(msg.begin)};
  const std::uint32_t bytes = ctx_.geo.block_bytes(block);
  conn.download_rate.add(ctx_.now(), bytes);
  conn.last_block_time = ctx_.now();
  conn.last_request_timeout = -1.0;  // the link is delivering again
  downloaded_ += bytes;
  // Without the data plane, the simulator marks blocks from a corrupting
  // sender with a non-empty payload; a real client discovers corruption
  // at the piece hash check, which the data plane performs for real.
  const bool corrupt_marker = ctx_.store == nullptr && !msg.data.empty();
  if (ctx_.store != nullptr) {
    if (msg.data.size() != bytes) return;  // malformed frame: drop
    if (!ctx_.have.has(block.piece)) {
      ctx_.store->put_block(block, std::span<const std::uint8_t>(
                                       msg.data.data(), msg.data.size()));
    }
  }

  // Remove from this link's outstanding set (absent for a stale arrival
  // that raced a choke).
  auto& out = conn.outstanding;
  const auto it = std::find(out.begin(), out.end(), block);
  const bool was_outstanding = it != out.end();
  if (was_outstanding) out.erase(it);

  if (ctx_.observer != nullptr) {
    ctx_.observer->on_block_received(ctx_.cfg.id, ctx_.now(), conn.remote,
                                     block, bytes);
  }

  if (ctx_.have.has(block.piece)) {
    // Piece already complete (end-game duplicate); keep pipeline moving.
    fill_requests(conn);
    return;
  }
  auto prog_it = active_pieces_.find(block.piece);
  if (prog_it == active_pieces_.end()) {
    // Stale arrival for a piece we released entirely; (re)create progress.
    PieceProgress prog;
    prog.requested_count.assign(ctx_.geo.blocks_in_piece(block.piece), 0);
    prog.received.assign(ctx_.geo.blocks_in_piece(block.piece), false);
    prog_it = active_pieces_.emplace(block.piece, std::move(prog)).first;
  }
  PieceProgress& prog = prog_it->second;
  if (prog.received[block.block]) {
    // Duplicate (end game): data discarded.
    fill_requests(conn);
    return;
  }
  if (was_outstanding) {
    assert(prog.requested_count[block.block] > 0);
    --prog.requested_count[block.block];
  } else if (prog.requested_count[block.block] == 0) {
    // The block had returned to the unrequested pool; it is now received.
    assert(unrequested_blocks_ > 0);
    --unrequested_blocks_;
  }
  prog.received[block.block] = true;
  ++prog.received_blocks;
  prog.tainted = prog.tainted || corrupt_marker;
  prog.contributors.insert(conn.remote);

  // End game: cancel this block everywhere else it is outstanding.
  if (end_game_active_) {
    for (Connection& other : ctx_.conns) {
      if (other.remote == conn.remote) continue;
      auto& oo = other.outstanding;
      const auto oit = std::find(oo.begin(), oo.end(), block);
      if (oit != oo.end()) {
        oo.erase(oit);
        auto pit = active_pieces_.find(block.piece);
        if (pit != active_pieces_.end() &&
            pit->second.requested_count[block.block] > 0) {
          --pit->second.requested_count[block.block];
        }
        ctx_.send(other.remote,
                  wire::CancelMsg{block.piece, ctx_.geo.block_offset(block),
                                  ctx_.geo.block_bytes(block)});
      }
    }
  }

  const PeerId remote = conn.remote;
  if (prog.received_blocks == ctx_.geo.blocks_in_piece(block.piece)) {
    // May transition to seed state and disconnect `conn`; re-resolve.
    complete_piece(block.piece);
  }
  if (Connection* still = ctx_.find_conn(remote);
      still != nullptr && ctx_.active()) {
    fill_requests(*still);
  }
}

// --- request pipeline ------------------------------------------------------

void DownloadScheduler::mark_requested(wire::BlockRef block) {
  PieceProgress& prog = active_pieces_.at(block.piece);
  if (prog.requested_count[block.block] == 0 && !prog.received[block.block]) {
    assert(unrequested_blocks_ > 0);
    --unrequested_blocks_;
  }
  ++prog.requested_count[block.block];
}

void DownloadScheduler::release_request(wire::BlockRef block) {
  const auto it = active_pieces_.find(block.piece);
  if (it == active_pieces_.end()) return;  // piece completed meanwhile
  PieceProgress& prog = it->second;
  if (prog.requested_count[block.block] == 0) return;
  --prog.requested_count[block.block];
  if (prog.requested_count[block.block] == 0 && !prog.received[block.block]) {
    ++unrequested_blocks_;
  }
}

void DownloadScheduler::fill_requests(Connection& conn) {
  if (!conn.am_interested || conn.peer_choking) return;
  if (ctx_.cfg.params.liveness_timers && conn.last_request_timeout >= 0.0 &&
      ctx_.now() - conn.last_request_timeout <
          ctx_.cfg.params.request_timeout) {
    // This link just timed out: leave the returned blocks for other
    // peers instead of immediately re-pinning them to a silent link.
    return;
  }
  while (conn.outstanding.size() < ctx_.cfg.params.pipeline_depth) {
    const auto block = next_block(conn);
    if (!block.has_value()) break;
    conn.outstanding.push_back(*block);
    conn.last_request_time = ctx_.now();
    ctx_.send(conn.remote,
              wire::RequestMsg{block->piece, ctx_.geo.block_offset(*block),
                               ctx_.geo.block_bytes(*block)});
  }
}

std::optional<wire::BlockRef> DownloadScheduler::next_block(Connection& conn) {
  // Strict priority: finish partially received pieces first so they can
  // be served onward as soon as possible (paper §II-C.1).
  if (ctx_.cfg.params.strict_priority) {
    if (const auto b = next_partial_block(conn); b.has_value()) {
      mark_requested(*b);
      return b;
    }
  }
  if (const auto b = start_new_piece(conn); b.has_value()) {
    mark_requested(*b);
    return b;
  }
  if (!ctx_.cfg.params.strict_priority) {
    if (const auto b = next_partial_block(conn); b.has_value()) {
      mark_requested(*b);
      return b;
    }
  }
  // End game mode: everything is requested; duplicate the stragglers.
  if (ctx_.cfg.params.end_game && unrequested_blocks_ == 0 &&
      !ctx_.have.complete()) {
    if (!end_game_active_) {
      end_game_active_ = true;
      if (ctx_.observer != nullptr) {
        ctx_.observer->on_end_game(ctx_.cfg.id, ctx_.now());
      }
    }
    return next_end_game_block(conn);  // not mark_requested: already counted
  }
  return std::nullopt;
}

std::optional<wire::BlockRef> DownloadScheduler::next_partial_block(
    const Connection& conn) {
  for (const auto& [piece, prog] : active_pieces_) {
    if (ctx_.have.has(piece) || !conn.remote_have.has(piece)) continue;
    if (prog.exclusive_source.has_value() &&
        *prog.exclusive_source != conn.remote) {
      continue;  // single-source retry: only its assigned peer may fetch
    }
    const std::uint32_t nblocks = ctx_.geo.blocks_in_piece(piece);
    for (wire::BlockIndex b = 0; b < nblocks; ++b) {
      if (!prog.received[b] && prog.requested_count[b] == 0) {
        return wire::BlockRef{piece, b};
      }
    }
  }
  return std::nullopt;
}

std::optional<wire::BlockRef> DownloadScheduler::start_new_piece(
    Connection& conn) {
  const std::function<bool(wire::PieceIndex)> startable =
      [this](wire::PieceIndex p) { return !active_pieces_.contains(p); };
  const core::AvailabilityMap& avail =
      ctx_.cfg.params.picker == core::PickerKind::kGlobalRarest
          ? ctx_.fabric.global_availability()
          : ctx_.availability;
  const core::PickContext pctx{ctx_.have, conn.remote_have, avail, startable,
                               ctx_.have.count()};
  const auto piece = picker_->pick(pctx, ctx_.fabric.simulation().rng());
  if (!piece.has_value()) return std::nullopt;
  PieceProgress prog;
  prog.requested_count.assign(ctx_.geo.blocks_in_piece(*piece), 0);
  prog.received.assign(ctx_.geo.blocks_in_piece(*piece), false);
  if (retry_exclusive_.contains(*piece)) {
    // Previously failed verification with multiple sources: fetch it
    // entirely from this peer so a repeat failure is attributable.
    prog.exclusive_source = conn.remote;
  }
  active_pieces_.emplace(*piece, std::move(prog));
  return wire::BlockRef{*piece, 0};
}

std::optional<wire::BlockRef> DownloadScheduler::next_end_game_block(
    Connection& conn) {
  std::vector<wire::BlockRef> candidates;
  for (const auto& [piece, prog] : active_pieces_) {
    if (ctx_.have.has(piece) || !conn.remote_have.has(piece)) continue;
    if (prog.exclusive_source.has_value() &&
        *prog.exclusive_source != conn.remote) {
      continue;  // end-game duplication would break attribution
    }
    const std::uint32_t nblocks = ctx_.geo.blocks_in_piece(piece);
    for (wire::BlockIndex b = 0; b < nblocks; ++b) {
      const wire::BlockRef ref{piece, b};
      if (!prog.received[b] && !conn.has_outstanding(ref)) {
        candidates.push_back(ref);
      }
    }
  }
  if (candidates.empty()) return std::nullopt;
  const wire::BlockRef pick =
      candidates[ctx_.fabric.simulation().rng().index(candidates.size())];
  // Track multiplicity so releases on choke/disconnect stay balanced.
  ++active_pieces_.at(pick.piece).requested_count[pick.block];
  return pick;
}

// --- piece completion ------------------------------------------------------

void DownloadScheduler::complete_piece(wire::PieceIndex piece) {
  // Hash verification before committing (a real client checks the piece
  // SHA-1 against the metainfo; only verified pieces may be served).
  if (ctx_.cfg.params.verify_pieces) {
    const auto it = active_pieces_.find(piece);
    const bool marker_bad = it != active_pieces_.end() && it->second.tainted;
    const bool hash_bad =
        ctx_.store != nullptr && !ctx_.store->verify_piece(piece);
    if (marker_bad || hash_bad) {
      discard_piece(piece);
      return;
    }
  }
  active_pieces_.erase(piece);
  retry_exclusive_.erase(piece);
  ctx_.have.set(piece);
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_piece_complete(ctx_.cfg.id, ctx_.now(), piece);
  }
  ctx_.fabric.broadcast_have(ctx_.cfg.id, piece);
  // Interest in some peers may vanish now.
  mods_.interest->on_local_piece_complete(piece);
  if (ctx_.have.complete()) become_seed();
}

void DownloadScheduler::discard_piece(wire::PieceIndex piece) {
  const auto it = active_pieces_.find(piece);
  if (it == active_pieces_.end()) return;
  ++corrupted_pieces_;
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_piece_failed(ctx_.cfg.id, ctx_.now(), piece);
  }

  // Blocks of this piece currently counted as unrequested (the rest were
  // consumed from the pool by requests/receipts and must be returned).
  const std::uint32_t nblocks = ctx_.geo.blocks_in_piece(piece);
  std::uint32_t pool_now = 0;
  for (wire::BlockIndex b = 0; b < nblocks; ++b) {
    if (it->second.requested_count[b] == 0 && !it->second.received[b]) {
      ++pool_now;
    }
  }
  const std::set<PeerId> contributors = std::move(it->second.contributors);
  active_pieces_.erase(it);
  unrequested_blocks_ += nblocks - pool_now;
  if (ctx_.store != nullptr) ctx_.store->drop_piece(piece);

  // Withdraw every outstanding request for the piece (in-flight data may
  // still arrive; it is handled as a fresh stale arrival).
  for (Connection& conn : ctx_.conns) {
    auto& out = conn.outstanding;
    for (auto oit = out.begin(); oit != out.end();) {
      if (oit->piece == piece) {
        ctx_.send(conn.remote,
                  wire::CancelMsg{piece, ctx_.geo.block_offset(*oit),
                                  ctx_.geo.block_bytes(*oit)});
        oit = out.erase(oit);
      } else {
        ++oit;
      }
    }
  }

  // Banning policy (cf. libtorrent's smart ban): a piece that came
  // entirely from one peer and failed verification proves that peer
  // corrupt — ban it permanently. A multi-source failure proves nothing
  // about any single contributor, so the piece is flagged for
  // single-source retry, which isolates the polluter on the next pass.
  if (ctx_.cfg.params.ban_corrupt_sources && contributors.size() == 1) {
    const PeerId culprit = *contributors.begin();
    retry_exclusive_.erase(piece);
    mods_.peer_set->ban(culprit);
  } else {
    retry_exclusive_.insert(piece);
  }
}

void DownloadScheduler::become_seed() {
  ctx_.completion_time = ctx_.now();
  end_game_active_ = false;
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_became_seed(ctx_.cfg.id, ctx_.completion_time);
  }
  mods_.peer_set->announce(AnnounceEvent::kCompleted);
  // A new seed closes its connections to all the seeds (paper §IV-A.2.b).
  std::vector<PeerId> seeds;
  for (const Connection& conn : ctx_.conns) {
    if (conn.remote_have.complete()) seeds.push_back(conn.remote);
  }
  for (const PeerId r : seeds) ctx_.fabric.disconnect(ctx_.cfg.id, r);
}

// --- lifecycle hooks -------------------------------------------------------

void DownloadScheduler::on_disconnect(Connection& conn) {
  // Give outstanding requests back to the pool.
  for (const wire::BlockRef b : conn.outstanding) release_request(b);
  conn.outstanding.clear();
}

void DownloadScheduler::clear_exclusive_source(PeerId remote) {
  for (auto& [piece, prog] : active_pieces_) {
    if (prog.exclusive_source == remote) prog.exclusive_source.reset();
  }
}

bool DownloadScheduler::check_request_timeout(Connection& conn, double t) {
  if (conn.outstanding.empty() || conn.peer_choking) return false;
  const double ref = std::max(conn.last_block_time, conn.last_request_time);
  if (ref < 0.0 || t - ref <= ctx_.cfg.params.request_timeout) return false;
  timed_out_requests_ += conn.outstanding.size();
  for (const wire::BlockRef b : conn.outstanding) release_request(b);
  conn.outstanding.clear();
  conn.last_request_timeout = t;
  return true;
}

void DownloadScheduler::refill_all() {
  // Route the returned blocks through links with pipeline room.
  for (Connection& conn : ctx_.conns) {
    if (conn.am_interested && !conn.peer_choking) fill_requests(conn);
  }
}

}  // namespace swarmlab::peer
