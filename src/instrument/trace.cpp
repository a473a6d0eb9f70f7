#include "instrument/trace.h"

#include <cstddef>
#include <string>
#include <string_view>

namespace swarmlab::instrument {

namespace {

// RFC 4180: quote a field only when it contains a separator, a quote or
// a line break; embedded quotes are doubled. Plain fields pass through
// untouched so existing traces stay byte-identical.
void write_csv_field(std::ostream& out, std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

// Minimal JSON string escape (quote, backslash, control characters).
void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void TraceWriter::push(double t, const char* kind, peer::PeerId remote,
                       std::string detail) {
  last_time_ = t;
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{t, kind, remote, std::move(detail)});
}

void TraceWriter::annotate(double t, std::string kind, peer::PeerId remote,
                           std::string detail) {
  last_time_ = t;
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(
      TraceEvent{t, std::move(kind), remote, std::move(detail)});
}

void TraceWriter::on_start(peer::PeerId /*self*/, sim::SimTime t) {
  push(t, "start", 0, "");
}
void TraceWriter::on_stop(peer::PeerId /*self*/, sim::SimTime t) {
  push(t, "stop", 0, "");
}

void TraceWriter::on_peer_joined(peer::PeerId /*self*/, sim::SimTime t,
                                 peer::PeerId remote) {
  push(t, "peer_joined", remote, "");
}

void TraceWriter::on_peer_left(peer::PeerId /*self*/, sim::SimTime t,
                               peer::PeerId remote) {
  push(t, "peer_left", remote, "");
}

void TraceWriter::on_message_sent(peer::PeerId /*self*/, sim::SimTime t,
                                  peer::PeerId to, const wire::Message& msg) {
  push(t, "msg_sent", to, wire::message_name(msg));
}

void TraceWriter::on_message_received(peer::PeerId /*self*/, sim::SimTime t,
                                      peer::PeerId from,
                                      const wire::Message& msg) {
  push(t, "msg_recv", from, wire::message_name(msg));
}

void TraceWriter::on_interest_change(peer::PeerId /*self*/, sim::SimTime t,
                                     peer::PeerId remote, bool interested) {
  push(t, "local_interest", remote, interested ? "1" : "0");
}

void TraceWriter::on_remote_interest_change(peer::PeerId /*self*/,
                                            sim::SimTime t, peer::PeerId remote,
                                            bool interested) {
  push(t, "remote_interest", remote, interested ? "1" : "0");
}

void TraceWriter::on_local_choke_change(peer::PeerId /*self*/, sim::SimTime t,
                                        peer::PeerId remote, bool unchoked) {
  push(t, "local_unchoke", remote, unchoked ? "1" : "0");
}

void TraceWriter::on_remote_choke_change(peer::PeerId /*self*/, sim::SimTime t,
                                         peer::PeerId remote, bool unchoked) {
  push(t, "remote_unchoke", remote, unchoked ? "1" : "0");
}

void TraceWriter::on_choke_round(peer::PeerId /*self*/, sim::SimTime t,
                                 bool seed_state,
                                 const std::vector<peer::PeerId>& unchoked) {
  std::string detail = seed_state ? "seed:" : "leecher:";
  for (std::size_t i = 0; i < unchoked.size(); ++i) {
    if (i > 0) detail += ' ';
    detail += std::to_string(unchoked[i]);
  }
  push(t, "choke_round", 0, std::move(detail));
}

void TraceWriter::on_block_received(peer::PeerId /*self*/, sim::SimTime t,
                                    peer::PeerId from, wire::BlockRef block,
                                    std::uint32_t bytes) {
  push(t, "block_recv", from,
       std::to_string(block.piece) + "/" + std::to_string(block.block) +
           ":" + std::to_string(bytes));
}

void TraceWriter::on_block_uploaded(peer::PeerId /*self*/, sim::SimTime t,
                                    peer::PeerId to, wire::BlockRef block,
                                    std::uint32_t bytes) {
  push(t, "block_sent", to,
       std::to_string(block.piece) + "/" + std::to_string(block.block) +
           ":" + std::to_string(bytes));
}

void TraceWriter::on_piece_complete(peer::PeerId /*self*/, sim::SimTime t,
                                    wire::PieceIndex piece) {
  push(t, "piece_done", 0, std::to_string(piece));
}

void TraceWriter::on_piece_failed(peer::PeerId /*self*/, sim::SimTime t,
                                  wire::PieceIndex piece) {
  push(t, "piece_failed", 0, std::to_string(piece));
}

void TraceWriter::on_end_game(peer::PeerId /*self*/, sim::SimTime t) {
  push(t, "end_game", 0, "");
}

void TraceWriter::on_became_seed(peer::PeerId /*self*/, sim::SimTime t) {
  push(t, "became_seed", 0, "");
}

void TraceWriter::write_csv(std::ostream& out) const {
  out << "time,kind,remote,detail\n";
  for (const TraceEvent& e : events_) {
    out << e.time << ',';
    write_csv_field(out, e.kind);
    out << ',' << e.remote << ',';
    write_csv_field(out, e.detail);
    out << '\n';
  }
  if (dropped_ > 0) {
    out << last_time_ << ",trace_truncated,0,dropped=" << dropped_ << '\n';
  }
}

void TraceWriter::write_jsonl(std::ostream& out) const {
  out << "{\"schema\":\"swarmlab.trace/1\"}\n";
  for (const TraceEvent& e : events_) {
    out << "{\"t\":" << e.time << ",\"kind\":";
    write_json_string(out, e.kind);
    out << ",\"remote\":" << e.remote << ",\"detail\":";
    write_json_string(out, e.detail);
    out << "}\n";
  }
  out << "{\"events\":" << events_.size() << ",\"dropped\":" << dropped_
      << "}\n";
}

// --- ObserverList ---------------------------------------------------------

void ObserverList::on_start(peer::PeerId self, sim::SimTime t) {
  for (peer::SwarmObserver* o : observers_) o->on_start(self, t);
}
void ObserverList::on_stop(peer::PeerId self, sim::SimTime t) {
  for (peer::SwarmObserver* o : observers_) o->on_stop(self, t);
}
void ObserverList::on_peer_joined(peer::PeerId self, sim::SimTime t,
                                  peer::PeerId remote) {
  for (peer::SwarmObserver* o : observers_) o->on_peer_joined(self, t, remote);
}
void ObserverList::on_peer_left(peer::PeerId self, sim::SimTime t,
                                peer::PeerId remote) {
  for (peer::SwarmObserver* o : observers_) o->on_peer_left(self, t, remote);
}
void ObserverList::on_message_sent(peer::PeerId self, sim::SimTime t,
                                   peer::PeerId to, const wire::Message& msg) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_message_sent(self, t, to, msg);
  }
}
void ObserverList::on_message_received(peer::PeerId self, sim::SimTime t,
                                       peer::PeerId from,
                                       const wire::Message& msg) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_message_received(self, t, from, msg);
  }
}
void ObserverList::on_interest_change(peer::PeerId self, sim::SimTime t,
                                      peer::PeerId remote, bool interested) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_interest_change(self, t, remote, interested);
  }
}
void ObserverList::on_remote_interest_change(peer::PeerId self,
                                             sim::SimTime t,
                                             peer::PeerId remote,
                                             bool interested) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_remote_interest_change(self, t, remote, interested);
  }
}
void ObserverList::on_local_choke_change(peer::PeerId self, sim::SimTime t,
                                         peer::PeerId remote, bool unchoked) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_local_choke_change(self, t, remote, unchoked);
  }
}
void ObserverList::on_remote_choke_change(peer::PeerId self, sim::SimTime t,
                                          peer::PeerId remote,
                                          bool unchoked) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_remote_choke_change(self, t, remote, unchoked);
  }
}
void ObserverList::on_choke_round(peer::PeerId self, sim::SimTime t,
                                  bool seed_state,
                                  const std::vector<peer::PeerId>& unchoked) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_choke_round(self, t, seed_state, unchoked);
  }
}
void ObserverList::on_block_received(peer::PeerId self, sim::SimTime t,
                                     peer::PeerId from, wire::BlockRef block,
                                     std::uint32_t bytes) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_block_received(self, t, from, block, bytes);
  }
}
void ObserverList::on_block_uploaded(peer::PeerId self, sim::SimTime t,
                                     peer::PeerId to, wire::BlockRef block,
                                     std::uint32_t bytes) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_block_uploaded(self, t, to, block, bytes);
  }
}
void ObserverList::on_piece_complete(peer::PeerId self, sim::SimTime t,
                                     wire::PieceIndex piece) {
  for (peer::SwarmObserver* o : observers_) {
    o->on_piece_complete(self, t, piece);
  }
}
void ObserverList::on_piece_failed(peer::PeerId self, sim::SimTime t,
                                   wire::PieceIndex piece) {
  for (peer::SwarmObserver* o : observers_) o->on_piece_failed(self, t, piece);
}
void ObserverList::on_end_game(peer::PeerId self, sim::SimTime t) {
  for (peer::SwarmObserver* o : observers_) o->on_end_game(self, t);
}
void ObserverList::on_became_seed(peer::PeerId self, sim::SimTime t) {
  for (peer::SwarmObserver* o : observers_) o->on_became_seed(self, t);
}

}  // namespace swarmlab::instrument
