// Full event tracing — the raw material of the paper's analysis ("a log
// of each BitTorrent message sent or received with the detailed content
// of the message, a log of each state change in the choke algorithm, and
// a log of important events", §III-C) — plus an observer fan-out so a
// peer can feed several instruments at once.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "peer/observer.h"

namespace swarmlab::instrument {

/// One trace row.
struct TraceEvent {
  double time = 0.0;
  std::string kind;      ///< "msg_sent", "msg_recv", "choke", "piece", ...
  peer::PeerId remote = peer::kNoPeer;
  std::string detail;    ///< message name / piece index / flag value
};

/// Records every observer callback of one peer as a structured row; can
/// render the log as CSV for offline analysis (the paper's trace files).
/// `self` is ignored and never written: a trace is one peer's log.
class TraceWriter final : public peer::SwarmObserver {
 public:
  /// `max_events` caps memory (0 = unlimited); past the cap, new events
  /// are dropped and `dropped()` counts them.
  explicit TraceWriter(std::size_t max_events = 0)
      : max_events_(max_events) {}

  void on_start(peer::PeerId self, sim::SimTime t) override;
  void on_stop(peer::PeerId self, sim::SimTime t) override;
  void on_peer_joined(peer::PeerId self, sim::SimTime t,
                      peer::PeerId remote) override;
  void on_peer_left(peer::PeerId self, sim::SimTime t,
                    peer::PeerId remote) override;
  void on_message_sent(peer::PeerId self, sim::SimTime t, peer::PeerId to,
                       const wire::Message& msg) override;
  void on_message_received(peer::PeerId self, sim::SimTime t,
                           peer::PeerId from,
                           const wire::Message& msg) override;
  void on_interest_change(peer::PeerId self, sim::SimTime t,
                          peer::PeerId remote, bool interested) override;
  void on_remote_interest_change(peer::PeerId self, sim::SimTime t,
                                 peer::PeerId remote,
                                 bool interested) override;
  void on_local_choke_change(peer::PeerId self, sim::SimTime t,
                             peer::PeerId remote, bool unchoked) override;
  void on_remote_choke_change(peer::PeerId self, sim::SimTime t,
                              peer::PeerId remote, bool unchoked) override;
  void on_choke_round(peer::PeerId self, sim::SimTime t, bool seed_state,
                      const std::vector<peer::PeerId>& unchoked) override;
  void on_block_received(peer::PeerId self, sim::SimTime t, peer::PeerId from,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_block_uploaded(peer::PeerId self, sim::SimTime t, peer::PeerId to,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_piece_complete(peer::PeerId self, sim::SimTime t,
                         wire::PieceIndex piece) override;
  void on_piece_failed(peer::PeerId self, sim::SimTime t,
                       wire::PieceIndex piece) override;
  void on_end_game(peer::PeerId self, sim::SimTime t) override;
  void on_became_seed(peer::PeerId self, sim::SimTime t) override;

  /// Appends a custom annotation row (same cap/drop accounting as the
  /// observer callbacks). `kind` and `detail` may contain any bytes —
  /// both exports escape them (RFC 4180 quoting / JSON strings).
  void annotate(double t, std::string kind, peer::PeerId remote,
                std::string detail);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Writes "time,kind,remote,detail" rows (with a header line). Fields
  /// containing a comma, double quote or line break are quoted per
  /// RFC 4180 (quotes doubled); plain fields stay unquoted. When
  /// `max_events` truncated the log, a final sentinel row
  /// `<t>,trace_truncated,0,dropped=<n>` surfaces the loss.
  void write_csv(std::ostream& out) const;

  /// Structured export: one JSON object per line ("swarmlab.trace/1").
  /// Line 1 is a header `{"schema":"swarmlab.trace/1"}`, then one
  /// `{"t":...,"kind":...,"remote":...,"detail":...}` per event, then a
  /// trailer `{"events":N,"dropped":M}` accounting for truncation.
  void write_jsonl(std::ostream& out) const;

 private:
  void push(double t, const char* kind, peer::PeerId remote,
            std::string detail);

  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::size_t dropped_ = 0;
  double last_time_ = 0.0;  ///< time of the newest event, dropped or kept
};

/// Fans one peer's callbacks out to several instruments (e.g., a
/// LocalPeerLog and a TraceWriter on the same peer), in the order they
/// were added. Does not own them. Add-only: fill it before the peer it
/// observes starts.
class ObserverList final : public peer::SwarmObserver {
 public:
  void add(peer::SwarmObserver* observer) { observers_.push_back(observer); }

  void on_start(peer::PeerId self, sim::SimTime t) override;
  void on_stop(peer::PeerId self, sim::SimTime t) override;
  void on_peer_joined(peer::PeerId self, sim::SimTime t,
                      peer::PeerId remote) override;
  void on_peer_left(peer::PeerId self, sim::SimTime t,
                    peer::PeerId remote) override;
  void on_message_sent(peer::PeerId self, sim::SimTime t, peer::PeerId to,
                       const wire::Message& msg) override;
  void on_message_received(peer::PeerId self, sim::SimTime t,
                           peer::PeerId from,
                           const wire::Message& msg) override;
  void on_interest_change(peer::PeerId self, sim::SimTime t,
                          peer::PeerId remote, bool interested) override;
  void on_remote_interest_change(peer::PeerId self, sim::SimTime t,
                                 peer::PeerId remote,
                                 bool interested) override;
  void on_local_choke_change(peer::PeerId self, sim::SimTime t,
                             peer::PeerId remote, bool unchoked) override;
  void on_remote_choke_change(peer::PeerId self, sim::SimTime t,
                              peer::PeerId remote, bool unchoked) override;
  void on_choke_round(peer::PeerId self, sim::SimTime t, bool seed_state,
                      const std::vector<peer::PeerId>& unchoked) override;
  void on_block_received(peer::PeerId self, sim::SimTime t, peer::PeerId from,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_block_uploaded(peer::PeerId self, sim::SimTime t, peer::PeerId to,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_piece_complete(peer::PeerId self, sim::SimTime t,
                         wire::PieceIndex piece) override;
  void on_piece_failed(peer::PeerId self, sim::SimTime t,
                       wire::PieceIndex piece) override;
  void on_end_game(peer::PeerId self, sim::SimTime t) override;
  void on_became_seed(peer::PeerId self, sim::SimTime t) override;

 private:
  std::vector<peer::SwarmObserver*> observers_;
};

}  // namespace swarmlab::instrument
