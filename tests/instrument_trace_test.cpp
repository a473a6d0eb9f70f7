// TraceWriter and ObserverList tests.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "instrument/local_log.h"
#include "instrument/trace.h"
#include "swarm/swarm.h"

namespace swarmlab::instrument {
namespace {

/// The observed peer's id; the single-peer instruments ignore it.
constexpr peer::PeerId kSelf = 99;

TEST(TraceWriter, RecordsEventsInOrder) {
  TraceWriter trace;
  trace.on_start(kSelf, 0.0);
  trace.on_peer_joined(kSelf, 1.0, 7);
  trace.on_message_sent(kSelf, 2.0, 7, wire::Message{wire::InterestedMsg{}});
  trace.on_block_received(kSelf, 3.0, 7, {4, 2}, 16384);
  trace.on_piece_complete(kSelf, 4.0, 4);
  trace.on_became_seed(kSelf, 5.0);
  const auto& ev = trace.events();
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_EQ(ev[0].kind, "start");
  EXPECT_EQ(ev[1].kind, "peer_joined");
  EXPECT_EQ(ev[1].remote, 7u);
  EXPECT_EQ(ev[2].detail, "interested");
  EXPECT_EQ(ev[3].detail, "4/2:16384");
  EXPECT_EQ(ev[4].detail, "4");
  EXPECT_EQ(ev[5].kind, "became_seed");
}

TEST(TraceWriter, ChokeRoundDetail) {
  TraceWriter trace;
  trace.on_choke_round(kSelf, 10.0, true, {3, 1, 4});
  EXPECT_EQ(trace.events()[0].detail, "seed:3 1 4");
  trace.on_choke_round(kSelf, 20.0, false, {});
  EXPECT_EQ(trace.events()[1].detail, "leecher:");
}

TEST(TraceWriter, CapDropsExcess) {
  TraceWriter trace(/*max_events=*/2);
  trace.on_start(kSelf, 0.0);
  trace.on_end_game(kSelf, 1.0);
  trace.on_became_seed(kSelf, 2.0);
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.dropped(), 1u);
}

TEST(TraceWriter, CsvOutput) {
  TraceWriter trace;
  trace.on_piece_complete(kSelf, 1.5, 9);
  std::ostringstream out;
  trace.write_csv(out);
  EXPECT_EQ(out.str(), "time,kind,remote,detail\n1.5,piece_done,0,9\n");
}

/// Minimal RFC 4180 reader for the round-trip test: splits one CSV
/// stream into rows of fields, honoring quoted fields and doubled
/// quotes.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      field += c;
    }
  }
  return rows;
}

TEST(TraceWriter, CsvEscapingRoundTrips) {
  TraceWriter trace;
  trace.annotate(1.0, "plain", 3, "no escaping needed");
  trace.annotate(2.0, "kind,with,commas", 4, "detail,with,commas");
  trace.annotate(3.0, "quote\"kind", 5, "say \"hi\" twice \"\"");
  trace.annotate(4.0, "newline", 6, "line1\nline2");
  trace.annotate(5.0, "cr", 7, "a\rb");
  std::ostringstream out;
  trace.write_csv(out);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 6u);  // header + 5 events
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"time", "kind", "remote", "detail"}));
  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    const auto& ev = trace.events()[i];
    const auto& row = rows[i + 1];
    ASSERT_EQ(row.size(), 4u) << "row " << i;
    EXPECT_EQ(row[1], ev.kind);
    EXPECT_EQ(row[2], std::to_string(ev.remote));
    EXPECT_EQ(row[3], ev.detail);
  }
}

TEST(TraceWriter, PlainFieldsStayUnquoted) {
  // The historical format: no quoting unless a field needs it, so
  // existing downstream parsers keep working on clean traces.
  TraceWriter trace;
  trace.on_piece_complete(kSelf, 1.5, 9);
  trace.on_choke_round(kSelf, 2.0, true, {3, 1});
  std::ostringstream out;
  trace.write_csv(out);
  EXPECT_EQ(out.str(),
            "time,kind,remote,detail\n"
            "1.5,piece_done,0,9\n"
            "2,choke_round,0,seed:3 1\n");
}

TEST(TraceWriter, TruncationEmitsSentinelRow) {
  TraceWriter trace(/*max_events=*/1);
  trace.on_start(kSelf, 0.0);
  trace.on_end_game(kSelf, 10.0);
  trace.on_became_seed(kSelf, 20.0);
  std::ostringstream out;
  trace.write_csv(out);
  // The sentinel carries the newest (dropped) event time and the count.
  EXPECT_EQ(out.str(),
            "time,kind,remote,detail\n"
            "0,start,0,\n"
            "20,trace_truncated,0,dropped=2\n");
}

TEST(TraceWriter, JsonlExportCarriesSchemaAndTrailer) {
  TraceWriter trace(/*max_events=*/2);
  trace.on_peer_joined(kSelf, 1.5, 7);
  trace.annotate(2.0, "weird\"kind", 8, "tab\there \"quoted\"");
  trace.on_became_seed(kSelf, 3.0);  // dropped by the cap
  std::ostringstream out;
  trace.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"schema\":\"swarmlab.trace/1\"}\n"
            "{\"t\":1.5,\"kind\":\"peer_joined\",\"remote\":7,"
            "\"detail\":\"\"}\n"
            "{\"t\":2,\"kind\":\"weird\\\"kind\",\"remote\":8,"
            "\"detail\":\"tab\\there \\\"quoted\\\"\"}\n"
            "{\"events\":2,\"dropped\":1}\n");
}

TEST(ObserverList, FansOutToAll) {
  LocalPeerLog log(8);
  TraceWriter trace;
  ObserverList list;
  list.add(&log);
  list.add(&trace);
  list.on_start(kSelf, 0.0);
  list.on_peer_joined(kSelf, 1.0, 3);
  list.on_piece_complete(kSelf, 2.0, 5);
  list.on_became_seed(kSelf, 3.0);
  EXPECT_EQ(log.piece_events().size(), 1u);
  EXPECT_TRUE(log.local_is_seed());
  EXPECT_EQ(trace.events().size(), 4u);
}

TEST(ObserverList, CarriesOnePeersStreamInASwarm) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  swarm::Swarm sw(sim, geo);
  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 50e3;
  sw.start_peer(sw.add_peer(std::move(seed_cfg)));

  LocalPeerLog log(4);
  TraceWriter trace;
  ObserverList list;
  list.add(&log);
  list.add(&trace);
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId l = sw.add_peer(std::move(cfg), &list);
  sw.start_peer(l);
  sim.run_until(2000.0);
  EXPECT_TRUE(sw.find_peer(l)->is_seed());
  EXPECT_EQ(log.piece_events().size(), 4u);
  // The trace saw the same completions plus the message flow around them.
  std::size_t piece_rows = 0;
  for (const auto& e : trace.events()) {
    if (e.kind == "piece_done") ++piece_rows;
  }
  EXPECT_EQ(piece_rows, 4u);
  EXPECT_GT(trace.events().size(), 20u);
}

}  // namespace
}  // namespace swarmlab::instrument
