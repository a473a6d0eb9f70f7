// Instrumentation hook: the paper's "instrumented client" (§III-C) logs
// every message, every choke-algorithm state change, the rate estimations
// and the important protocol events. A SwarmObserver receives exactly that
// stream from every peer it is given to.
//
// This is the one observer interface. Each Peer holds at most one
// SwarmObserver pointer, fixed when Swarm::add_peer builds it, and calls
// it directly; every callback carries the observed peer's id (`self`) so
// one instance can watch many peers. Instruments that only ever watch one
// peer (LocalPeerLog, TraceWriter, ChokeMarketLog) ignore `self`; several
// observers on one peer go through an instrument::ObserverList.
// Implementations must stay strictly passive: no event scheduling, no RNG
// draws.
#pragma once

#include <vector>

#include "peer/types.h"
#include "sim/types.h"
#include "wire/geometry.h"
#include "wire/messages.h"

namespace swarmlab::peer {

/// No-op base; the instrument library overrides what it needs.
class SwarmObserver {
 public:
  virtual ~SwarmObserver() = default;

  /// The peer joined / left the torrent.
  virtual void on_start(PeerId /*self*/, sim::SimTime /*t*/) {}
  virtual void on_stop(PeerId /*self*/, sim::SimTime /*t*/) {}
  /// A remote peer entered / left the peer set.
  virtual void on_peer_joined(PeerId /*self*/, sim::SimTime /*t*/,
                              PeerId /*remote*/) {}
  virtual void on_peer_left(PeerId /*self*/, sim::SimTime /*t*/,
                            PeerId /*remote*/) {}
  /// Full message log (both directions).
  virtual void on_message_sent(PeerId /*self*/, sim::SimTime /*t*/,
                               PeerId /*to*/, const wire::Message& /*msg*/) {}
  virtual void on_message_received(PeerId /*self*/, sim::SimTime /*t*/,
                                   PeerId /*from*/,
                                   const wire::Message& /*msg*/) {}
  /// The observed peer's interest in a remote peer changed.
  virtual void on_interest_change(PeerId /*self*/, sim::SimTime /*t*/,
                                  PeerId /*remote*/, bool /*interested*/) {}
  /// A remote peer's interest in the observed peer changed.
  virtual void on_remote_interest_change(PeerId /*self*/, sim::SimTime /*t*/,
                                         PeerId /*remote*/,
                                         bool /*interested*/) {}
  /// The observed peer (un)choked a remote peer. `unchoked` true =
  /// unchoke.
  virtual void on_local_choke_change(PeerId /*self*/, sim::SimTime /*t*/,
                                     PeerId /*remote*/, bool /*unchoked*/) {}
  /// A remote peer (un)choked the observed peer.
  virtual void on_remote_choke_change(PeerId /*self*/, sim::SimTime /*t*/,
                                      PeerId /*remote*/, bool /*unchoked*/) {}
  /// One choke-algorithm round completed; `unchoked` is the new active
  /// selection. `seed_state` says which algorithm ran.
  virtual void on_choke_round(PeerId /*self*/, sim::SimTime /*t*/,
                              bool /*seed_state*/,
                              const std::vector<PeerId>& /*unchoked*/) {}
  /// Data-plane events.
  virtual void on_block_received(PeerId /*self*/, sim::SimTime /*t*/,
                                 PeerId /*from*/, wire::BlockRef /*block*/,
                                 std::uint32_t /*bytes*/) {}
  virtual void on_block_uploaded(PeerId /*self*/, sim::SimTime /*t*/,
                                 PeerId /*to*/, wire::BlockRef /*block*/,
                                 std::uint32_t /*bytes*/) {}
  virtual void on_piece_complete(PeerId /*self*/, sim::SimTime /*t*/,
                                 wire::PieceIndex /*piece*/) {}
  /// A completed piece failed hash verification and was discarded.
  virtual void on_piece_failed(PeerId /*self*/, sim::SimTime /*t*/,
                               wire::PieceIndex /*piece*/) {}
  /// End game mode engaged (logged once).
  virtual void on_end_game(PeerId /*self*/, sim::SimTime /*t*/) {}
  /// The observed peer completed the content and entered seed state.
  virtual void on_became_seed(PeerId /*self*/, sim::SimTime /*t*/) {}
};

}  // namespace swarmlab::peer
