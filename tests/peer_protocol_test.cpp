// Peer state-machine behavior, observed through real (small) swarms.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "instrument/local_log.h"
#include "mock_network.h"
#include "swarm/swarm.h"

namespace swarmlab {
namespace {

using peer::PeerConfig;
using peer::PeerId;

struct Harness {
  explicit Harness(std::uint32_t pieces = 8, std::uint64_t seed = 1)
      : sim(seed),
        geo(std::uint64_t{pieces} * 256 * 1024, 256 * 1024, 16 * 1024),
        swarm(sim, geo) {}

  PeerId add_seed(double up = 50e3) {
    PeerConfig cfg;
    cfg.start_complete = true;
    cfg.upload_capacity = up;
    const PeerId id = swarm.add_peer(cfg);
    swarm.start_peer(id);
    return id;
  }

  PeerId add_leecher(double up = 50e3, peer::SwarmObserver* obs = nullptr,
                     bool free_rider = false) {
    PeerConfig cfg;
    cfg.upload_capacity = up;
    cfg.free_rider = free_rider;
    const PeerId id = swarm.add_peer(cfg, obs);
    swarm.start_peer(id);
    return id;
  }

  sim::Simulation sim;
  wire::ContentGeometry geo;
  swarm::Swarm swarm;
};

TEST(PeerProtocol, SeedToLeecherTransferCompletes) {
  Harness h;
  h.add_seed();
  const PeerId leecher = h.add_leecher();
  h.sim.run_until(2000.0);
  const peer::Peer* p = h.swarm.find_peer(leecher);
  EXPECT_TRUE(p->is_seed());
  EXPECT_EQ(p->total_downloaded(), h.geo.total_bytes());
}

TEST(PeerProtocol, ConnectionsAreSymmetric) {
  Harness h;
  const PeerId a = h.add_seed();
  const PeerId b = h.add_leecher();
  h.sim.run_until(5.0);
  EXPECT_NE(h.swarm.find_peer(a)->connection(b), nullptr);
  EXPECT_NE(h.swarm.find_peer(b)->connection(a), nullptr);
}

TEST(PeerProtocol, BitfieldExchangedOnConnect) {
  Harness h;
  const PeerId s = h.add_seed();
  const PeerId l = h.add_leecher();
  h.sim.run_until(5.0);
  const peer::Connection* conn = h.swarm.find_peer(l)->connection(s);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->remote_have.complete());
  // The leecher is interested in the seed; the reverse cannot hold.
  EXPECT_TRUE(conn->am_interested);
  const peer::Connection* rev = h.swarm.find_peer(s)->connection(l);
  ASSERT_NE(rev, nullptr);
  EXPECT_FALSE(rev->am_interested);
  EXPECT_TRUE(rev->peer_interested);
}

TEST(PeerProtocol, SeedUnchokesInterestedLeecherWithinOneRound) {
  Harness h;
  const PeerId s = h.add_seed();
  const PeerId l = h.add_leecher();
  h.sim.run_until(25.0);  // two choke rounds
  const peer::Connection* conn = h.swarm.find_peer(s)->connection(l);
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->am_choking);
  EXPECT_GE(conn->last_unchoke_time, 0.0);
}

TEST(PeerProtocol, AvailabilityTracksPeerSet) {
  Harness h;
  const PeerId s = h.add_seed();
  const PeerId l = h.add_leecher();
  h.sim.run_until(5.0);
  // The leecher sees one copy of every piece (the seed's).
  const auto& avail = h.swarm.find_peer(l)->availability();
  EXPECT_EQ(avail.min_copies(), 1u);
  EXPECT_EQ(avail.max_copies(), 1u);
  // The seed sees zero copies (the leecher has nothing yet).
  EXPECT_EQ(h.swarm.find_peer(s)->availability().max_copies(), 0u);
}

TEST(PeerProtocol, HaveBroadcastUpdatesAvailability) {
  Harness h;
  h.add_seed();
  const PeerId l1 = h.add_leecher();
  const PeerId l2 = h.add_leecher();
  h.sim.run_until(400.0);
  // Once l1 completes pieces, l2's availability for those pieces is >= 1
  // even though l2 may not have downloaded them from l1.
  const peer::Peer* p1 = h.swarm.find_peer(l1);
  const peer::Peer* p2 = h.swarm.find_peer(l2);
  if (p1->have().count() > 0 && p2->connection(l1) != nullptr) {
    const auto& bits = p2->connection(l1)->remote_have;
    EXPECT_EQ(bits.count(), p1->have().count());
  }
}

TEST(PeerProtocol, StrictPriorityFinishesPiecesInOrderFromSingleSource) {
  // With one connection, strict priority means all blocks of a piece
  // arrive before any block of the next piece.
  Harness h(4);
  h.add_seed();
  instrument::LocalPeerLog log(4);
  h.add_leecher(50e3, &log);
  h.sim.run_until(3000.0);
  std::set<wire::PieceIndex> completed;
  wire::PieceIndex current = ~0u;
  for (const auto& e : log.block_events()) {
    if (e.block.piece != current) {
      EXPECT_FALSE(completed.contains(e.block.piece))
          << "piece " << e.block.piece << " interleaved";
      if (current != ~0u) completed.insert(current);
      current = e.block.piece;
    }
  }
}

TEST(PeerProtocol, FreeRiderNeverUploadsButCompletes) {
  Harness h;
  h.add_seed();
  const PeerId fr = h.add_leecher(50e3, nullptr, /*free_rider=*/true);
  const PeerId honest = h.add_leecher();
  h.sim.run_until(4000.0);
  EXPECT_EQ(h.swarm.find_peer(fr)->total_uploaded(), 0u);
  EXPECT_TRUE(h.swarm.find_peer(fr)->is_seed());  // seeds still serve it
  EXPECT_TRUE(h.swarm.find_peer(honest)->is_seed());
}

TEST(PeerProtocol, NewSeedDisconnectsFromSeeds) {
  Harness h;
  const PeerId s = h.add_seed();
  const PeerId l = h.add_leecher();
  h.sim.run_until(3000.0);
  ASSERT_TRUE(h.swarm.find_peer(l)->is_seed());
  // Paper §IV-A.2.b: a new seed closes its connections to all seeds.
  EXPECT_EQ(h.swarm.find_peer(l)->connection(s), nullptr);
  EXPECT_EQ(h.swarm.find_peer(s)->connection(l), nullptr);
}

TEST(PeerProtocol, StoppedPeerLeavesCleanly) {
  Harness h;
  const PeerId s = h.add_seed();
  const PeerId l = h.add_leecher();
  h.sim.run_until(10.0);  // connected, well before the download finishes
  ASSERT_NE(h.swarm.find_peer(s)->connection(l), nullptr);
  h.swarm.stop_peer(l);
  EXPECT_EQ(h.swarm.find_peer(s)->connection(l), nullptr);
  EXPECT_FALSE(h.swarm.find_peer(l)->active());
  EXPECT_EQ(h.swarm.tracker().num_members(), 1u);
  // The survivor keeps running without incident.
  h.sim.run_until(100.0);
}

TEST(PeerProtocol, MidTransferDepartureDoesNotStall) {
  Harness h(8);
  const PeerId s1 = h.add_seed(30e3);
  h.add_seed(30e3);
  const PeerId l = h.add_leecher();
  // Kill one seed mid-download; the leecher must still finish from the
  // other (outstanding requests to the dead seed are re-issued).
  h.sim.schedule_at(60.0, [&] { h.swarm.stop_peer(s1); });
  h.sim.run_until(4000.0);
  EXPECT_TRUE(h.swarm.find_peer(l)->is_seed());
}

TEST(PeerProtocol, PeerSetRespectsMaximum) {
  Harness h(4);
  peer::PeerConfig cfg;
  cfg.start_complete = true;
  cfg.params.max_peer_set = 5;
  const PeerId constrained = h.swarm.add_peer(cfg);
  h.swarm.start_peer(constrained);
  for (int i = 0; i < 12; ++i) h.add_leecher();
  h.sim.run_until(100.0);
  EXPECT_LE(h.swarm.find_peer(constrained)->peer_set_size(), 5u);
}

TEST(PeerProtocol, InitiatedConnectionsRespectCap) {
  Harness h(4);
  peer::PeerConfig cfg;
  cfg.params.max_initiated = 3;
  cfg.params.max_peer_set = 40;
  for (int i = 0; i < 12; ++i) h.add_leecher();
  const PeerId capped = h.swarm.add_peer(cfg);
  h.swarm.start_peer(capped);
  h.sim.run_until(30.0);
  EXPECT_LE(h.swarm.find_peer(capped)->initiated_connections(), 3u);
  // Incoming connections may exceed the initiated cap.
}

TEST(PeerProtocol, EndGameProducesBoundedDuplicates) {
  Harness h(8);
  h.add_seed();
  h.add_seed();
  instrument::LocalPeerLog log(8);
  h.add_leecher(50e3, &log);
  h.sim.run_until(4000.0);
  const std::size_t total_blocks = 8 * 16;
  EXPECT_GE(log.block_events().size(), total_blocks);
  EXPECT_LE(log.block_events().size(), total_blocks + 32);
}

TEST(PeerProtocol, DownloadedBytesMatchContentSize) {
  Harness h(8);
  h.add_seed();
  instrument::LocalPeerLog log(8);
  const PeerId l = h.add_leecher(50e3, &log);
  h.sim.run_until(4000.0);
  const peer::Peer* p = h.swarm.find_peer(l);
  ASSERT_TRUE(p->is_seed());
  // A single source means no end-game duplicates: exact byte count.
  EXPECT_EQ(p->total_downloaded(), h.geo.total_bytes());
}

TEST(PeerProtocol, ObserverSeesSymmetricMessageFlow) {
  Harness h(4);
  h.add_seed();
  instrument::LocalPeerLog log(4);
  h.add_leecher(50e3, &log);
  h.sim.run_until(2000.0);
  const auto& mc = log.message_counters();
  EXPECT_GT(mc.sent.at("request"), 0u);
  EXPECT_GT(mc.received.at("piece"), 0u);
  EXPECT_GT(mc.sent.at("interested"), 0u);
  EXPECT_GT(mc.received.at("unchoke"), 0u);
  EXPECT_EQ(mc.sent.at("request"), mc.received.at("piece"));
}

TEST(PeerProtocol, SuperSeedingRevealsGradually) {
  Harness h(8);
  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.params.super_seeding = true;
  seed_cfg.upload_capacity = 50e3;
  const PeerId ss = h.swarm.add_peer(seed_cfg);
  h.swarm.start_peer(ss);
  const PeerId l1 = h.add_leecher();
  const PeerId l2 = h.add_leecher();
  h.sim.run_until(20.0);
  // Early on, each leecher sees at most a couple of revealed pieces, not
  // the full bitfield.
  const peer::Connection* c1 = h.swarm.find_peer(l1)->connection(ss);
  ASSERT_NE(c1, nullptr);
  EXPECT_LT(c1->remote_have.count(), 8u);
  // Propagation still completes: both leechers finish eventually.
  h.sim.run_until(8000.0);
  EXPECT_TRUE(h.swarm.find_peer(l1)->is_seed());
  EXPECT_TRUE(h.swarm.find_peer(l2)->is_seed());
}

TEST(PeerProtocol, TorrentAliveReflectsGlobalCoverage) {
  Harness h(4);
  const PeerId s = h.add_seed();
  EXPECT_TRUE(h.swarm.torrent_alive());
  h.swarm.stop_peer(s);
  EXPECT_FALSE(h.swarm.torrent_alive());
}

TEST(PeerProtocol, GlobalAvailabilityTracksCompletions) {
  Harness h(4);
  h.add_seed();
  const PeerId l = h.add_leecher();
  h.sim.run_until(2000.0);
  ASSERT_TRUE(h.swarm.find_peer(l)->is_seed());
  for (wire::PieceIndex p = 0; p < 4; ++p) {
    EXPECT_EQ(h.swarm.global_availability().copies(p), 2u);
  }
}

// --- the net::Network seam -------------------------------------------------

/// Records every message the observed peer receives, in arrival order.
struct MessageOrderLog : peer::SwarmObserver {
  void on_message_received(PeerId, sim::SimTime, PeerId,
                           const wire::Message& msg) override {
    names.push_back(wire::message_name(msg));
  }
  std::vector<std::string> names;

  std::ptrdiff_t first(const std::string& name) const {
    const auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? -1 : it - names.begin();
  }
};

// A Swarm runs unchanged on an injected MockNetwork (constant control
// latency, constant flow time), and the control-message ordering the
// protocol guarantees — BITFIELD before UNCHOKE before the first block —
// holds independently of the fluid model's rate arithmetic.
TEST(PeerProtocol, ControlOrderingHoldsOnMockNetwork) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024, 256 * 1024, 16 * 1024);
  auto owned = std::make_unique<test::MockNetwork>(sim, 0.05,
                                                   /*flow_time=*/0.25);
  test::MockNetwork* mock = owned.get();
  swarm::Swarm swarm(sim, geo, 0.05, std::move(owned));
  // The swarm's network seam is exactly the injected backend.
  ASSERT_EQ(&swarm.network(), mock);

  PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  const PeerId s = swarm.add_peer(seed_cfg);
  swarm.start_peer(s);
  MessageOrderLog log;
  const PeerId l = swarm.add_peer(PeerConfig{}, &log);
  swarm.start_peer(l);
  sim.run_until(200.0);

  EXPECT_TRUE(swarm.find_peer(l)->is_seed());
  EXPECT_GT(mock->flows_started(), 0u);
  EXPECT_GT(mock->controls_sent(), 0u);
  const auto bitfield = log.first("bitfield");
  const auto unchoke = log.first("unchoke");
  const auto block = log.first("piece");
  ASSERT_NE(bitfield, -1);
  ASSERT_NE(unchoke, -1);
  ASSERT_NE(block, -1);
  EXPECT_LT(bitfield, unchoke);
  EXPECT_LT(unchoke, block);
}

}  // namespace
}  // namespace swarmlab
