#include "seams.h"

#include <stdexcept>
#include <utility>

#include "net/backend.h"

namespace seambench {

namespace sl = swarmlab;

namespace {

Tracer* g_tracer = nullptr;

/// Runs a callback the network carries back up into the swarm and its
/// peers, inside a peer span.
std::function<void()> peer_span(Tracer& t, std::function<void()> fn,
                                bool completes_flow) {
  return [&t, fn = std::move(fn), completes_flow] {
    ++t.peer_callbacks;
    if (completes_flow) ++t.flows_completed;
    Span span(t, Layer::kPeer);
    fn();
  };
}

}  // namespace

void set_current_tracer(Tracer* tracer) { g_tracer = tracer; }

void register_timed_backend(const std::string& name,
                            const std::string& inner) {
  sl::net::register_network_backend(
      name, [inner](sl::sim::Simulation& sim, double control_latency) {
        if (g_tracer == nullptr) {
          throw std::logic_error("timed backend built without a tracer");
        }
        return std::unique_ptr<sl::net::Network>(new TimedNetwork(
            sl::net::make_network(inner, sim, control_latency), *g_tracer));
      });
}

// --- TimedNetwork ------------------------------------------------------------

sl::net::NodeId TimedNetwork::add_node(double up, double down) {
  ++t_.node_ops;
  Span span(t_, Layer::kNet);
  return inner_->add_node(up, down);
}

void TimedNetwork::remove_node(sl::net::NodeId node) {
  ++t_.node_ops;
  Span span(t_, Layer::kNet);
  inner_->remove_node(node);
}

void TimedNetwork::set_node_capacity(sl::net::NodeId node, double up,
                                     double down) {
  ++t_.node_ops;
  Span span(t_, Layer::kNet);
  inner_->set_node_capacity(node, up, down);
}

sl::net::FlowId TimedNetwork::start_flow(sl::net::NodeId from,
                                         sl::net::NodeId to,
                                         std::uint64_t bytes,
                                         std::function<void()> on_complete) {
  ++t_.start_flow;
  t_.bytes_started += bytes;
  auto wrapped = peer_span(t_, std::move(on_complete), true);
  Span span(t_, Layer::kNet);
  return inner_->start_flow(from, to, bytes, std::move(wrapped));
}

bool TimedNetwork::cancel_flow(sl::net::FlowId flow) {
  ++t_.cancel_flow;
  Span span(t_, Layer::kNet);
  return inner_->cancel_flow(flow);
}

void TimedNetwork::send_control(std::function<void()> deliver,
                                double extra_delay) {
  ++t_.send_control;
  auto wrapped = peer_span(t_, std::move(deliver), false);
  Span span(t_, Layer::kNet);
  inner_->send_control(std::move(wrapped), extra_delay);
}

// --- SeamObserver ------------------------------------------------------------

using sl::peer::PeerId;
using sl::sim::SimTime;

void SeamObserver::on_start(PeerId self, SimTime t) {
  if (++t_.active > t_.peak_active) t_.peak_active = t_.active;
  forward([&](auto& o) { o.on_start(self, t); });
}

void SeamObserver::on_stop(PeerId self, SimTime t) {
  --t_.active;
  forward([&](auto& o) { o.on_stop(self, t); });
}

void SeamObserver::on_peer_joined(PeerId self, SimTime t, PeerId remote) {
  forward([&](auto& o) { o.on_peer_joined(self, t, remote); });
}

void SeamObserver::on_peer_left(PeerId self, SimTime t, PeerId remote) {
  forward([&](auto& o) { o.on_peer_left(self, t, remote); });
}

void SeamObserver::on_message_sent(PeerId self, SimTime t, PeerId to,
                                   const sl::wire::Message& msg) {
  forward([&](auto& o) { o.on_message_sent(self, t, to, msg); });
}

void SeamObserver::on_message_received(PeerId self, SimTime t, PeerId from,
                                       const sl::wire::Message& msg) {
  ++t_.messages_received;
  ++t_.received[msg.index()];
  forward([&](auto& o) { o.on_message_received(self, t, from, msg); });
}

void SeamObserver::on_interest_change(PeerId self, SimTime t, PeerId remote,
                                      bool interested) {
  forward([&](auto& o) { o.on_interest_change(self, t, remote, interested); });
}

void SeamObserver::on_remote_interest_change(PeerId self, SimTime t,
                                             PeerId remote, bool interested) {
  forward([&](auto& o) {
    o.on_remote_interest_change(self, t, remote, interested);
  });
}

void SeamObserver::on_local_choke_change(PeerId self, SimTime t,
                                         PeerId remote, bool unchoked) {
  forward(
      [&](auto& o) { o.on_local_choke_change(self, t, remote, unchoked); });
}

void SeamObserver::on_remote_choke_change(PeerId self, SimTime t,
                                          PeerId remote, bool unchoked) {
  forward(
      [&](auto& o) { o.on_remote_choke_change(self, t, remote, unchoked); });
}

void SeamObserver::on_choke_round(PeerId self, SimTime t, bool seed_state,
                                  const std::vector<PeerId>& unchoked) {
  ++t_.choke_rounds;
  forward([&](auto& o) { o.on_choke_round(self, t, seed_state, unchoked); });
}

void SeamObserver::on_block_received(PeerId self, SimTime t, PeerId from,
                                     sl::wire::BlockRef block,
                                     std::uint32_t bytes) {
  ++t_.blocks_received;
  forward([&](auto& o) { o.on_block_received(self, t, from, block, bytes); });
}

void SeamObserver::on_block_uploaded(PeerId self, SimTime t, PeerId to,
                                     sl::wire::BlockRef block,
                                     std::uint32_t bytes) {
  forward([&](auto& o) { o.on_block_uploaded(self, t, to, block, bytes); });
}

void SeamObserver::on_piece_complete(PeerId self, SimTime t,
                                     sl::wire::PieceIndex piece) {
  ++t_.pieces_completed;
  forward([&](auto& o) { o.on_piece_complete(self, t, piece); });
}

void SeamObserver::on_piece_failed(PeerId self, SimTime t,
                                   sl::wire::PieceIndex piece) {
  forward([&](auto& o) { o.on_piece_failed(self, t, piece); });
}

void SeamObserver::on_end_game(PeerId self, SimTime t) {
  forward([&](auto& o) { o.on_end_game(self, t); });
}

void SeamObserver::on_became_seed(PeerId self, SimTime t) {
  forward([&](auto& o) { o.on_became_seed(self, t); });
}

}  // namespace seambench
