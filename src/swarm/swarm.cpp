#include "swarm/swarm.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/backend.h"

namespace swarmlab::swarm {

Swarm::Swarm(sim::Simulation& sim, const wire::ContentGeometry& geometry,
             double control_latency, std::unique_ptr<net::Network> network)
    : sim_(sim),
      geo_(geometry),
      net_(network != nullptr
               ? std::move(network)
               : net::make_network(net::kDefaultNetworkBackend, sim,
                                   control_latency)),
      global_availability_(geometry.num_pieces()) {}

Swarm::Swarm(sim::Simulation& sim, wire::Metainfo meta,
             double control_latency, std::unique_ptr<net::Network> network)
    : sim_(sim),
      geo_(meta.geometry()),
      meta_(std::move(meta)),
      net_(network != nullptr
               ? std::move(network)
               : net::make_network(net::kDefaultNetworkBackend, sim,
                                   control_latency)),
      global_availability_(geo_.num_pieces()) {}

peer::Peer* Swarm::find_peer(peer::PeerId id) {
  Slot* slot = slot_of(id);
  return slot == nullptr ? nullptr : slot->peer.get();
}

const peer::Peer* Swarm::find_peer(peer::PeerId id) const {
  const Slot* slot = slot_of(id);
  return slot == nullptr ? nullptr : slot->peer.get();
}

peer::Peer* Swarm::active_peer(peer::PeerId id) {
  Slot* slot = slot_of(id);
  if (slot == nullptr || !slot->in_torrent) return nullptr;
  return slot->peer.get();
}

std::vector<peer::PeerId> Swarm::peer_ids() const {
  std::vector<peer::PeerId> out;
  out.reserve(slots_.size());
  for (peer::PeerId id = 1; id <= slots_.size(); ++id) out.push_back(id);
  return out;
}

const std::vector<peer::PeerId>& Swarm::active_peer_ids() const {
  // Compact once departures outnumber the live population; ascending
  // order is preserved (tombstones are removed in place).
  if (active_tombstones_ > 0 &&
      active_tombstones_ >= active_ids_.size() / 2) {
    std::size_t w = 0;
    for (const peer::PeerId id : active_ids_) {
      const Slot* slot = slot_of(id);
      if (slot != nullptr && slot->in_torrent) active_ids_[w++] = id;
    }
    active_ids_.resize(w);
    active_tombstones_ = 0;
  }
  return active_ids_;
}

void Swarm::reserve_peers(std::size_t expected_total) {
  slots_.reserve(expected_total);
  active_ids_.reserve(expected_total);
}

void Swarm::mark_active(peer::PeerId id) {
  ++active_count_;
  // Ids are assigned in increasing order and usually started in the
  // same order, so this is an append; a peer started late (delayed
  // local join) inserts into place to keep the list ascending.
  if (active_ids_.empty() || active_ids_.back() < id) {
    active_ids_.push_back(id);
    return;
  }
  const auto it =
      std::lower_bound(active_ids_.begin(), active_ids_.end(), id);
  if (it != active_ids_.end() && *it == id) {
    // Still present as a tombstone from an earlier stint; it counts as
    // live again now that the slot's in_torrent flag is back on.
    --active_tombstones_;
    return;
  }
  active_ids_.insert(it, id);
}

void Swarm::mark_inactive(peer::PeerId id) {
  (void)id;  // the id stays in active_ids_ as a tombstone
  --active_count_;
  ++active_tombstones_;
}

bool Swarm::torrent_alive() const {
  // Combine active peers' bitfields; any piece with zero copies kills the
  // torrent (global_availability_ tracks exactly this).
  for (wire::PieceIndex p = 0; p < geo_.num_pieces(); ++p) {
    if (global_availability_.copies(p) == 0) return false;
  }
  return true;
}

peer::PeerId Swarm::add_peer(peer::PeerConfig cfg,
                             peer::SwarmObserver* observer) {
  const peer::PeerId id = next_id_++;
  cfg.id = id;
  Slot slot;
  slot.node = net_->add_node(cfg.upload_capacity, cfg.download_capacity);
  slot.peer =
      std::make_unique<peer::Peer>(*this, geo_, std::move(cfg), observer);
  slots_.push_back(std::move(slot));
  return id;
}

void Swarm::start_peer(peer::PeerId id) {
  Slot* found = slot_of(id);
  assert(found != nullptr && !found->in_torrent);
  Slot& slot = *found;
  slot.in_torrent = true;
  mark_active(id);
  // Register this peer's initial pieces with the global oracle.
  slot.counted_in_global = true;
  global_availability_.add_peer(slot.peer->have());
  slot.peer->start();
}

void Swarm::stop_peer(peer::PeerId id) {
  Slot* found = slot_of(id);
  if (found == nullptr || !found->in_torrent) return;
  Slot& slot = *found;
  slot.peer->stop();  // disconnects everyone, announces stopped
  slot.in_torrent = false;
  mark_inactive(id);
  if (slot.counted_in_global) {
    global_availability_.remove_peer(slot.peer->have());
    slot.counted_in_global = false;
  }
  net_->remove_node(slot.node);
}

bool Swarm::crash_peer(peer::PeerId id) {
  Slot* found = slot_of(id);
  if (found == nullptr || !found->in_torrent) return false;
  Slot& slot = *found;
  slot.peer->crash();  // no Stopped announce, no disconnect callbacks
  slot.in_torrent = false;
  mark_inactive(id);
  if (slot.counted_in_global) {
    global_availability_.remove_peer(slot.peer->have());
    slot.counted_in_global = false;
  }
  // Removing the node silently aborts every in-flight transfer touching
  // it — mirroring TCP streams dying with the host. Remote senders whose
  // upload flows vanish recover via their liveness tick.
  net_->remove_node(slot.node);
  return true;
}

void Swarm::send_control(peer::PeerId from, peer::PeerId to,
                         wire::Message msg) {
  double extra_delay = 0.0;
  if (control_fault_ && !control_fault_(&extra_delay)) return;  // lost
  net_->send_control(
      [this, from, to, msg = std::move(msg)] {
        if (peer::Peer* p = active_peer(to); p != nullptr) {
          p->handle_message(from, msg);
        }
      },
      extra_delay);
}

void Swarm::broadcast_have(peer::PeerId from, wire::PieceIndex piece) {
  // Keep the global oracle in sync with the completion itself, not the
  // delivery of the HAVEs.
  global_availability_.add_have(piece);
  peer::Peer* sender = active_peer(from);
  if (sender == nullptr) return;
  std::vector<peer::PeerId> targets = sender->connected_peers();
  if (control_fault_) {
    // Faults apply per receiver, so the broadcast decomposes into
    // independent deliveries (each may be lost or jittered separately).
    for (const peer::PeerId t : targets) {
      double extra_delay = 0.0;
      if (!control_fault_(&extra_delay)) continue;  // lost on this link
      net_->send_control(
          [this, from, piece, t] {
            if (peer::Peer* p = active_peer(t); p != nullptr) {
              p->handle_message(from, wire::HaveMsg{piece});
            }
          },
          extra_delay);
    }
    return;
  }
  // One scheduled delivery to all connections (event economy; equivalent
  // to per-connection control messages with identical latency).
  net_->send_control([this, from, piece, targets = std::move(targets)] {
    for (const peer::PeerId t : targets) {
      if (peer::Peer* p = active_peer(t); p != nullptr) {
        p->handle_message(from, wire::HaveMsg{piece});
      }
    }
  });
}

net::FlowId Swarm::send_block(peer::PeerId from, peer::PeerId to,
                              wire::BlockRef block) {
  const Slot* from_slot = slot_of(from);
  const Slot* to_slot = slot_of(to);
  if (from_slot == nullptr || to_slot == nullptr) return 0;
  if (!from_slot->in_torrent || !to_slot->in_torrent) return 0;
  const std::uint32_t bytes = geo_.block_bytes(block);
  // A corrupting sender's blocks carry a one-byte taint marker — the
  // simulator's stand-in for data that will fail the piece hash check.
  const bool corrupt = from_slot->peer->config().sends_corrupt_data;
  return net_->start_flow(
      from_slot->node, to_slot->node, bytes,
      [this, from, to, block, bytes, corrupt] {
        // Deliver the data to the receiver, then free the sender's slot.
        if (peer::Peer* p = active_peer(to); p != nullptr) {
          wire::PieceMsg msg{block.piece, block.block * geo_.block_size(),
                             {}};
          if (meta_.has_value()) {
            // Data plane: carry (and possibly corrupt) the real bytes.
            if (const peer::Peer* s = find_peer(from); s != nullptr) {
              msg.data = s->read_block(block);
              if (corrupt && !msg.data.empty()) msg.data[0] ^= 0xFF;
            }
          } else if (corrupt) {
            msg.data.assign(1, 0xBD);  // taint marker (no data plane)
          }
          p->handle_message(from, std::move(msg));
        }
        if (peer::Peer* p = active_peer(from); p != nullptr) {
          p->on_block_sent(to, block, bytes);
        }
      });
}

void Swarm::connect(peer::PeerId from, peer::PeerId to) {
  net_->send_control([this, from, to] {
    peer::Peer* a = active_peer(from);
    peer::Peer* b = active_peer(to);
    if (a == nullptr || b == nullptr) return;
    if (a->connection(to) != nullptr) return;  // raced another attempt
    if (a->peer_set_size() >= a->config().params.max_peer_set) return;
    if (!b->accepts_connection(from)) return;
    b->on_connected(from, /*initiated_by_us=*/false);
    a->on_connected(to, /*initiated_by_us=*/true);
  });
}

void Swarm::disconnect(peer::PeerId a, peer::PeerId b) {
  // Synchronous teardown on both sides keeps connection state symmetric.
  if (peer::Peer* p = find_peer(a); p != nullptr) p->on_disconnected(b);
  if (peer::Peer* p = find_peer(b); p != nullptr) p->on_disconnected(a);
}

peer::AnnounceResult Swarm::announce(peer::PeerId who,
                                     peer::AnnounceEvent event) {
  const peer::Peer* p = find_peer(who);
  const bool is_seed = p != nullptr && p->is_seed();
  return tracker_.announce(who, event, is_seed, sim_.rng(), sim_.now());
}

}  // namespace swarmlab::swarm
