#include "peer/peer_context.h"

#include <cassert>
#include <utility>

#include "peer/fabric.h"
#include "peer/observer.h"
#include "sim/simulation.h"
#include "wire/metainfo.h"

namespace swarmlab::peer {

PeerContext::PeerContext(Fabric& fabric_in,
                         const wire::ContentGeometry& geometry,
                         PeerConfig config, SwarmObserver* obs)
    : fabric(fabric_in),
      geo(geometry),
      cfg(std::move(config)),
      observer(obs),
      have(geometry.num_pieces()),
      availability(geometry.num_pieces()) {
  if (!cfg.initial_pieces.empty()) {
    assert(cfg.initial_pieces.size() == geo.num_pieces());
    for (wire::PieceIndex p = 0; p < geo.num_pieces(); ++p) {
      if (cfg.initial_pieces[p]) have.set(p);
    }
  } else if (cfg.start_complete) {
    have = core::Bitfield::full(geo.num_pieces());
  }
  // Data plane: materialize the bytes backing the initial bitfield.
  if (const wire::Metainfo* meta = fabric.metainfo(); meta != nullptr) {
    store = std::make_unique<ContentStore>(*meta);
    if (have.complete()) {
      store->fill_complete();
    } else {
      for (wire::PieceIndex p = 0; p < geo.num_pieces(); ++p) {
        if (have.has(p)) {
          store->put_piece(p, wire::synthetic_piece_bytes(*meta, p));
        }
      }
    }
  }
}

double PeerContext::now() const { return fabric.simulation().now(); }

void PeerContext::send(PeerId to, wire::Message msg) {
  if (Connection* conn = find_conn(to); conn != nullptr) {
    conn->last_sent = now();
  }
  if (observer != nullptr) observer->on_message_sent(cfg.id, now(), to, msg);
  fabric.send_control(cfg.id, to, std::move(msg));
}

}  // namespace swarmlab::peer
