// Failure-injection tests: data corruption (polluters), snubbing, and
// churn under adversity.
#include <gtest/gtest.h>

#include "core/choker.h"
#include "instrument/local_log.h"
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

  PeerId add(PeerConfig cfg, peer::SwarmObserver* obs = nullptr) {
    const PeerId id = swarm.add_peer(std::move(cfg), obs);
    swarm.start_peer(id);
    return id;
  }

  PeerId add_seed(double up = 50e3, bool corrupt = false) {
    PeerConfig cfg;
    cfg.start_complete = true;
    cfg.upload_capacity = up;
    cfg.sends_corrupt_data = corrupt;
    return add(std::move(cfg));
  }

  PeerId add_leecher(double up = 50e3, peer::SwarmObserver* obs = nullptr) {
    PeerConfig cfg;
    cfg.upload_capacity = up;
    return add(std::move(cfg), obs);
  }

  sim::Simulation sim;
  wire::ContentGeometry geo;
  swarm::Swarm swarm;
};

/// Observer that counts verification failures.
struct FailureCounter : peer::SwarmObserver {
  int failures = 0;
  void on_piece_failed(PeerId, sim::SimTime, wire::PieceIndex) override {
    ++failures;
  }
};

TEST(Resilience, PureCorruptSourceNeverYieldsAPiece) {
  Harness h;
  h.add_seed(50e3, /*corrupt=*/true);  // the only source is a polluter
  FailureCounter counter;
  const PeerId l = h.add_leecher(50e3, &counter);
  h.sim.run_until(2000.0);
  const peer::Peer* p = h.swarm.find_peer(l);
  EXPECT_EQ(p->have().count(), 0u);
  EXPECT_GT(p->corrupted_pieces(), 0u);
  EXPECT_GT(counter.failures, 0);
}

TEST(Resilience, HonestSeedBeatsPolluter) {
  Harness h;
  h.add_seed(50e3, /*corrupt=*/false);
  h.add_seed(50e3, /*corrupt=*/true);
  const PeerId l = h.add_leecher();
  h.sim.run_until(8000.0);
  const peer::Peer* p = h.swarm.find_peer(l);
  // Banning the polluter after the first bad piece lets the download
  // finish from the honest seed.
  EXPECT_TRUE(p->is_seed()) << p->have().count() << " pieces, "
                            << p->corrupted_pieces() << " corrupted";
}

TEST(Resilience, BanDisconnectsContributors) {
  Harness h;
  const PeerId polluter = h.add_seed(200e3, /*corrupt=*/true);
  const PeerId l = h.add_leecher();
  h.sim.run_until(600.0);
  const peer::Peer* p = h.swarm.find_peer(l);
  ASSERT_GT(p->corrupted_pieces(), 0u);
  // After a failure the polluter (the only contributor) must be gone.
  EXPECT_EQ(p->connection(polluter), nullptr);
}

TEST(Resilience, VerificationOffAcceptsCorruptPieces) {
  Harness h;
  PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.sends_corrupt_data = true;
  seed_cfg.upload_capacity = 50e3;
  h.add(std::move(seed_cfg));
  PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  cfg.params.verify_pieces = false;  // a naive client
  const PeerId l = h.add(std::move(cfg));
  h.sim.run_until(3000.0);
  const peer::Peer* p = h.swarm.find_peer(l);
  EXPECT_TRUE(p->is_seed());  // "completes" with garbage
  EXPECT_EQ(p->corrupted_pieces(), 0u);
}

TEST(Resilience, NoBanRetriesFromSameSource) {
  // With banning off and only a polluter available, the peer keeps
  // re-downloading and failing — and never falsely completes.
  Harness h;
  PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.sends_corrupt_data = true;
  seed_cfg.upload_capacity = 100e3;
  h.add(std::move(seed_cfg));
  PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  cfg.params.ban_corrupt_sources = false;
  const PeerId l = h.add(std::move(cfg));
  h.sim.run_until(3000.0);
  const peer::Peer* p = h.swarm.find_peer(l);
  EXPECT_FALSE(p->is_seed());
  EXPECT_GT(p->corrupted_pieces(), 2u);
}

TEST(Resilience, SwarmSurvivesMinorityOfPolluters) {
  Harness h(8, 3);
  h.add_seed(40e3);
  for (int i = 0; i < 3; ++i) h.add_seed(40e3, /*corrupt=*/true);
  std::vector<PeerId> leechers;
  for (int i = 0; i < 6; ++i) leechers.push_back(h.add_leecher(20e3));
  h.sim.run_until(20000.0);
  int completed = 0;
  for (const PeerId id : leechers) {
    if (h.swarm.find_peer(id)->is_seed()) ++completed;
  }
  EXPECT_EQ(completed, 6);
}

// --- snubbing ---------------------------------------------------------------

TEST(Snubbing, StalledUploaderLosesRegularUnchoke) {
  // Build the candidate directly: snubbed flag gates RU selection.
  core::ProtocolParams params;
  core::LeecherChoker choker(params);
  sim::Rng rng(1);
  std::vector<core::ChokeCandidate> cs;
  core::ChokeCandidate fast_but_snubbed;
  fast_but_snubbed.key = 1;
  fast_but_snubbed.interested = true;
  fast_but_snubbed.download_rate = 1e6;
  fast_but_snubbed.snubbed = true;
  cs.push_back(fast_but_snubbed);
  for (core::PeerKey k = 2; k <= 5; ++k) {
    core::ChokeCandidate c;
    c.key = k;
    c.interested = true;
    c.download_rate = 10.0;
    cs.push_back(c);
  }
  // Run several rounds: peer 1 may win the optimistic slot sometimes but
  // must never hold a regular slot, so peers 2..4 (the next-fastest
  // non-snubbed) must always be unchoked.
  for (std::uint64_t round = 0; round < 9; ++round) {
    const auto sel = choker.select(cs, round, rng);
    int regular_non_snubbed = 0;
    for (const core::PeerKey k : sel) {
      if (k != 1) ++regular_non_snubbed;
    }
    EXPECT_GE(regular_non_snubbed, 3);
  }
}

TEST(Snubbing, DisabledByParams) {
  Harness h;
  PeerConfig cfg;
  cfg.params.anti_snubbing = false;
  cfg.upload_capacity = 50e3;
  const PeerId l = h.add(std::move(cfg));
  h.add_seed();
  h.sim.run_until(2000.0);
  EXPECT_TRUE(h.swarm.find_peer(l)->is_seed());
}

}  // namespace
}  // namespace swarmlab
