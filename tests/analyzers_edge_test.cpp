// Analyzer edge cases and net-model stress properties.
#include <gtest/gtest.h>

#include "instrument/analyzers.h"
#include "net/fluid_network.h"
#include "sim/simulation.h"

namespace swarmlab {
namespace {

/// The observed peer's id; the single-peer instruments ignore it.
constexpr peer::PeerId kSelf = 99;

TEST(AnalyzersEdge, EmptyLogYieldsEmptyResults) {
  instrument::LocalPeerLog log(8);
  log.finalize(100.0);
  const auto entropy = instrument::analyze_entropy(log);
  EXPECT_TRUE(entropy.local_interest_ratios.empty());
  EXPECT_DOUBLE_EQ(entropy.median_local, 0.0);
  const auto inter = instrument::analyze_piece_interarrival(log);
  EXPECT_TRUE(inter.all.empty());
  const auto sets = instrument::analyze_leecher_fairness(log);
  EXPECT_EQ(sets.total_uploaded, 0u);
  for (const double f : sets.upload_fraction) EXPECT_DOUBLE_EQ(f, 0.0);
  const auto corr = instrument::analyze_unchoke_correlation_leecher(log);
  EXPECT_TRUE(corr.unchokes.empty());
  EXPECT_DOUBLE_EQ(corr.spearman, 0.0);
}

TEST(AnalyzersEdge, InterarrivalWindowLargerThanSamples) {
  instrument::LocalPeerLog log(8);
  log.on_start(kSelf, 0.0);
  log.on_piece_complete(kSelf, 5.0, 0);
  log.on_piece_complete(kSelf, 9.0, 1);
  const auto result = instrument::analyze_piece_interarrival(log, 100);
  EXPECT_EQ(result.all.count(), 2u);
  EXPECT_EQ(result.first_k.count(), 2u);
  EXPECT_EQ(result.last_k.count(), 2u);
  EXPECT_DOUBLE_EQ(result.all.min(), 4.0);
  EXPECT_DOUBLE_EQ(result.all.max(), 5.0);
}

TEST(AnalyzersEdge, ContributionSetsBeyondPeerCount) {
  instrument::LocalPeerLog log(8);
  log.on_start(kSelf, 0.0);
  log.on_peer_joined(kSelf, 0.0, 1);
  log.on_block_uploaded(kSelf, 1.0, 1, {0, 0}, 1000);
  log.finalize(10.0);
  // 6 sets of 5 requested but only one peer exists.
  const auto sets = instrument::analyze_leecher_fairness(log, 5, 6);
  ASSERT_EQ(sets.upload_fraction.size(), 6u);
  EXPECT_DOUBLE_EQ(sets.upload_fraction[0], 1.0);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(sets.upload_fraction[i], 0.0);
  }
}

TEST(AnalyzersEdge, SeedFairnessIgnoresLeecherBytes) {
  instrument::LocalPeerLog log(8);
  log.on_start(kSelf, 0.0);
  log.on_peer_joined(kSelf, 0.0, 1);
  log.on_block_uploaded(kSelf, 1.0, 1, {0, 0}, 12345);  // local still a leecher
  log.finalize(10.0);
  const auto sets = instrument::analyze_seed_fairness(log);
  EXPECT_EQ(sets.total_uploaded, 0u);
}

// --- fluid network stress -----------------------------------------------------

TEST(FluidStress, RandomChurnNeverViolatesCapacities) {
  sim::Simulation sim(17);
  net::FluidNetwork net(sim, 0.01);
  constexpr int kNodes = 12;
  std::vector<net::NodeId> nodes;
  std::vector<double> up(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    up[i] = sim.rng().uniform(1e3, 1e5);
    nodes.push_back(net.add_node(up[i], sim.rng().uniform(1e4, 1e6)));
  }
  struct LiveFlow {
    net::FlowId id;
    std::size_t sender;
  };
  std::vector<LiveFlow> live;
  int completed = 0;
  // 300 random operations: start, cancel, advance.
  for (int step = 0; step < 300; ++step) {
    const auto op = sim.rng().index(3);
    if (op == 0) {
      const auto a = sim.rng().index(kNodes);
      auto b = sim.rng().index(kNodes);
      if (a == b) b = (b + 1) % kNodes;
      live.push_back({net.start_flow(nodes[a], nodes[b],
                                     sim.rng().uniform_int(1000, 100000),
                                     [&] { ++completed; }),
                      a});
    } else if (op == 1 && !live.empty()) {
      const auto i = sim.rng().index(live.size());
      net.cancel_flow(live[i].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      sim.run_until(sim.now() + sim.rng().uniform(0.01, 1.0));
    }
    // Invariant: per-sender aggregate rate never exceeds its capacity
    // (flow_rate() is 0 for flows that finished meanwhile).
    std::vector<double> sender_rate(kNodes, 0.0);
    for (const LiveFlow& f : live) {
      sender_rate[f.sender] += net.flow_rate(f.id);
    }
    for (int n = 0; n < kNodes; ++n) {
      EXPECT_LE(sender_rate[n], up[n] * (1.0 + 1e-9))
          << "step " << step << " node " << n;
    }
  }
  sim.run();
  EXPECT_GT(completed, 0);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FluidStress, ManyToOneFansInWithoutLoss) {
  sim::Simulation sim(3);
  net::FluidNetwork net(sim, 0.01);
  const net::NodeId sink = net.add_node(1e6, 5e4);  // download-capped
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    const net::NodeId src = net.add_node(1e5, 1e6);
    net.start_flow(src, sink, 10000, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 20);
  // 200 kB over a 50 kB/s sink cannot finish faster than 4 s.
  EXPECT_GE(sim.now(), 4.0 - 1e-6);
}

}  // namespace
}  // namespace swarmlab
