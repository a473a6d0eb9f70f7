// Seam decorators for the traced run.
//
// Both decorators time calls into a layer from outside the program, through
// the layer's public seam:
//  * TimedNetwork wraps a real net::Network registered under a
//    benchmark-private backend name. Calls into it are net spans; the
//    on_complete / deliver callbacks it carries back up are peer spans.
//  * SeamObserver is a peer::SwarmObserver that counts every callback,
//    counts received messages by wire::Message alternative, and forwards
//    each callback to an optional target (the SwarmProbe) inside an
//    instrument span.
// Spans nest on one stack; a span's self time is its duration minus the
// time its child spans cover. Work outside every span (the event queue,
// the network's own events, peer timers scheduled straight on the
// simulation) is left for the caller to report as a residual.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "net/network.h"
#include "peer/observer.h"
#include "wire/messages.h"

namespace seambench {

enum class Layer : std::uint8_t { kNet, kPeer, kInstrument };
inline constexpr std::size_t kLayers = 3;
inline constexpr std::size_t kMessageKinds = std::variant_size_v<
    swarmlab::wire::Message>;

/// Span stack plus the counters both decorators record.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void open(Layer layer) { stack_.push_back(Frame{layer, Clock::now(), {}}); }
  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const auto span = Clock::now() - f.start;
    self_[static_cast<std::size_t>(f.layer)] += span - f.children;
    if (!stack_.empty()) stack_.back().children += span;
  }

  /// Self seconds of one layer.
  [[nodiscard]] double self_seconds(Layer layer) const {
    return std::chrono::duration<double>(
               self_[static_cast<std::size_t>(layer)])
        .count();
  }
  [[nodiscard]] bool balanced() const { return stack_.empty(); }

  // net seam
  std::uint64_t start_flow = 0;
  std::uint64_t cancel_flow = 0;
  std::uint64_t send_control = 0;
  std::uint64_t node_ops = 0;
  std::uint64_t bytes_started = 0;
  std::uint64_t flows_completed = 0;
  /// on_complete + deliver callbacks run (the peer spans).
  std::uint64_t peer_callbacks = 0;

  // observer seam
  std::array<std::uint64_t, kMessageKinds> received{};
  std::uint64_t messages_received = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t pieces_completed = 0;
  std::uint64_t choke_rounds = 0;
  std::uint64_t active = 0;
  std::uint64_t peak_active = 0;
  /// Callbacks forwarded to the target (the instrument spans).
  std::uint64_t instrument_callbacks = 0;

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    Clock::duration children;
  };
  std::vector<Frame> stack_;
  std::array<Clock::duration, kLayers> self_{};
};

/// RAII span on a Tracer.
class Span {
 public:
  Span(Tracer& t, Layer layer) : t_(t) { t_.open(layer); }
  ~Span() { t_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

/// Registers `name` as a backend that builds `inner` and wraps it in a
/// TimedNetwork recording into whatever Tracer is current when the
/// scenario constructs its network. Idempotent per name.
void register_timed_backend(const std::string& name, const std::string& inner);

/// The Tracer the timed backends record into; set before constructing a
/// traced scenario, cleared afterwards.
void set_current_tracer(Tracer* tracer);

class TimedNetwork final : public swarmlab::net::Network {
 public:
  TimedNetwork(std::unique_ptr<swarmlab::net::Network> inner, Tracer& tracer)
      : inner_(std::move(inner)), t_(tracer) {}

  swarmlab::net::NodeId add_node(double up, double down) override;
  void remove_node(swarmlab::net::NodeId node) override;
  void set_node_capacity(swarmlab::net::NodeId node, double up,
                         double down) override;
  [[nodiscard]] bool has_node(swarmlab::net::NodeId node) const override {
    return inner_->has_node(node);
  }
  [[nodiscard]] bool has_flow(swarmlab::net::FlowId flow) const override {
    return inner_->has_flow(flow);
  }
  [[nodiscard]] std::vector<swarmlab::net::FlowId> active_flow_ids()
      const override {
    return inner_->active_flow_ids();
  }
  swarmlab::net::FlowId start_flow(swarmlab::net::NodeId from,
                                   swarmlab::net::NodeId to,
                                   std::uint64_t bytes,
                                   std::function<void()> on_complete) override;
  bool cancel_flow(swarmlab::net::FlowId flow) override;
  [[nodiscard]] double flow_rate(swarmlab::net::FlowId flow) const override {
    return inner_->flow_rate(flow);
  }
  void send_control(std::function<void()> deliver,
                    double extra_delay) override;
  [[nodiscard]] double control_latency() const override {
    return inner_->control_latency();
  }
  [[nodiscard]] std::size_t active_flows() const override {
    return inner_->active_flows();
  }
  [[nodiscard]] double node_up(swarmlab::net::NodeId node) const override {
    return inner_->node_up(node);
  }
  [[nodiscard]] std::uint64_t train_segments() const override {
    return inner_->train_segments();
  }

 private:
  std::unique_ptr<swarmlab::net::Network> inner_;
  Tracer& t_;
};

/// Counting, forwarding SwarmObserver. `target` may be null: callbacks are
/// then counted but nothing is forwarded, so no instrument span opens.
class SeamObserver final : public swarmlab::peer::SwarmObserver {
 public:
  SeamObserver(Tracer& tracer, swarmlab::peer::SwarmObserver* target)
      : t_(tracer), target_(target) {}

  using PeerId = swarmlab::peer::PeerId;
  using SimTime = swarmlab::sim::SimTime;

  void on_start(PeerId self, SimTime t) override;
  void on_stop(PeerId self, SimTime t) override;
  void on_peer_joined(PeerId self, SimTime t, PeerId remote) override;
  void on_peer_left(PeerId self, SimTime t, PeerId remote) override;
  void on_message_sent(PeerId self, SimTime t, PeerId to,
                       const swarmlab::wire::Message& msg) override;
  void on_message_received(PeerId self, SimTime t, PeerId from,
                           const swarmlab::wire::Message& msg) override;
  void on_interest_change(PeerId self, SimTime t, PeerId remote,
                          bool interested) override;
  void on_remote_interest_change(PeerId self, SimTime t, PeerId remote,
                                 bool interested) override;
  void on_local_choke_change(PeerId self, SimTime t, PeerId remote,
                             bool unchoked) override;
  void on_remote_choke_change(PeerId self, SimTime t, PeerId remote,
                              bool unchoked) override;
  void on_choke_round(PeerId self, SimTime t, bool seed_state,
                      const std::vector<PeerId>& unchoked) override;
  void on_block_received(PeerId self, SimTime t, PeerId from,
                         swarmlab::wire::BlockRef block,
                         std::uint32_t bytes) override;
  void on_block_uploaded(PeerId self, SimTime t, PeerId to,
                         swarmlab::wire::BlockRef block,
                         std::uint32_t bytes) override;
  void on_piece_complete(PeerId self, SimTime t,
                         swarmlab::wire::PieceIndex piece) override;
  void on_piece_failed(PeerId self, SimTime t,
                       swarmlab::wire::PieceIndex piece) override;
  void on_end_game(PeerId self, SimTime t) override;
  void on_became_seed(PeerId self, SimTime t) override;

 private:
  /// Calls `fn(target)` inside an instrument span when there is a target.
  template <typename Fn>
  void forward(Fn&& fn) {
    if (target_ == nullptr) return;
    ++t_.instrument_callbacks;
    Span span(t_, Layer::kInstrument);
    fn(*target_);
  }

  Tracer& t_;
  swarmlab::peer::SwarmObserver* target_;
};

}  // namespace seambench
