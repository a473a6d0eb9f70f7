// MetricsRegistry unit tests and a SwarmProbe smoke test on a live
// swarm (the probe's aggregates against ground truth).
#include <gtest/gtest.h>

#include <sstream>

#include "core/availability.h"
#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "peer/peer.h"
#include "sim/simulation.h"
#include "swarm/swarm.h"

namespace swarmlab::instrument {
namespace {

TEST(MetricsRegistry, CountersAndGauges) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("blocks");
  const MetricId g = reg.gauge("peers");
  reg.add(c);
  reg.add(c, 4.0);
  reg.set(g, 17.0);
  EXPECT_EQ(reg.value(c), 5.0);
  EXPECT_EQ(reg.value(g), 17.0);
  reg.set(g, 3.0);
  EXPECT_EQ(reg.value(g), 3.0);
}

TEST(MetricsRegistry, IdsAreStableAndInterned) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("x");
  const MetricId b = reg.gauge("y");
  EXPECT_NE(a, b);
  // Re-registering the same (name, kind) returns the existing id.
  EXPECT_EQ(reg.counter("x"), a);
  EXPECT_EQ(reg.find("x"), a);
  EXPECT_EQ(reg.find("nope"), kNoMetric);
  // A kind collision is rejected, not silently rebound.
  EXPECT_EQ(reg.gauge("x"), kNoMetric);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, KindMismatchedRecordingIsIgnored) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("c");
  reg.set(c, 99.0);      // gauge op on a counter: no-op
  reg.observe(c, 1.0);   // histogram op on a counter: no-op
  reg.record(c, 0.0, 1.0);
  EXPECT_EQ(reg.value(c), 0.0);
  reg.add(kNoMetric);    // sentinel id: no-op, no crash
}

TEST(MetricsRegistry, HistogramBuckets) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("lat", {1.0, 4.0, 16.0});
  // Non-increasing bounds are rejected.
  EXPECT_EQ(reg.histogram("bad", {4.0, 4.0}), kNoMetric);
  reg.observe(h, 0.5);   // bucket 0 (<= 1)
  reg.observe(h, 1.0);   // bucket 0 (upper bounds are inclusive)
  reg.observe(h, 3.0);   // bucket 1
  reg.observe(h, 100.0); // +inf bucket
  const auto& counts = reg.counts(h);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(reg.value(h), 0.5 + 1.0 + 3.0 + 100.0);  // sum
}

TEST(MetricsRegistry, SeriesRingKeepsTheNewestSamples) {
  MetricsRegistry reg;
  const MetricId s = reg.series("ts", /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    reg.record(s, i * 10.0, static_cast<double>(i));
  }
  const auto samples = reg.samples(s);
  ASSERT_EQ(samples.size(), 3u);
  // Chronological order, oldest survivors first: samples 2, 3, 4.
  EXPECT_EQ(samples[0].time, 20.0);
  EXPECT_EQ(samples[1].time, 30.0);
  EXPECT_EQ(samples[2].time, 40.0);
  EXPECT_EQ(reg.dropped(s), 2u);
}

/// The newest sample of a probe series.
double last_value(const MetricsRegistry& reg, const char* name) {
  const auto samples = reg.samples(reg.find(name));
  EXPECT_FALSE(samples.empty()) << name;
  return samples.empty() ? -1.0 : samples.back().value;
}

/// The probe's focus series, sampled at finalize time, must equal the
/// focus peer's own view of its peer set at that time.
void expect_focus_series_match(const MetricsRegistry& reg,
                               const peer::Peer& focus) {
  const core::AvailabilityMap& avail = focus.availability();
  EXPECT_EQ(last_value(reg, "copies_min"), avail.min_copies());
  EXPECT_EQ(last_value(reg, "copies_mean"), avail.mean_copies());
  EXPECT_EQ(last_value(reg, "copies_max"), avail.max_copies());
  EXPECT_EQ(last_value(reg, "rarest_set"), avail.rarest_set_size());
  EXPECT_EQ(last_value(reg, "peer_set"),
            static_cast<double>(focus.peer_set_size()));
}

// The probe given to every peer of a two-peer swarm:
// its counters must equal ground truth from the trajectory.
TEST(SwarmProbe, AggregatesMatchGroundTruth) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  swarm::Swarm sw(sim, geo);

  MetricsRegistry reg;
  SwarmProbe::Options popts;
  popts.sampling_period = 100.0;
  SwarmProbe probe(reg, 4, popts);
  probe.bind([&sw](peer::PeerId id) -> const peer::Peer* {
    return sw.find_peer(id);
  });

  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 50e3;
  const peer::PeerId s = sw.add_peer(std::move(seed_cfg), &probe);
  sw.start_peer(s);
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId l = sw.add_peer(std::move(cfg), &probe);
  sw.start_peer(l);
  probe.set_focus(l);
  sim.run_until(2000.0);
  ASSERT_TRUE(sw.find_peer(l)->is_seed());
  probe.finalize(2000.0);
  expect_focus_series_match(reg, *sw.find_peer(l));

  EXPECT_EQ(probe.tracked_peers(), 2u);
  EXPECT_EQ(reg.value(reg.find("peers_started")), 2.0);
  // The leecher completed 4 pieces; nobody else completed any.
  EXPECT_EQ(reg.value(reg.find("pieces_completed")), 4.0);
  // Download ground truth: 4 pieces of 256 KiB in 16 KiB blocks.
  const double bytes = 4.0 * 256.0 * 1024.0;
  EXPECT_EQ(reg.value(reg.find("bytes_downloaded")), bytes);
  EXPECT_EQ(reg.value(reg.find("blocks_received")), 64.0);
  // Every delivered block is an upload, the final one included: the
  // leecher completes on it and closes its link to the seed before the
  // seed's completion callback runs, and the seed still counts it.
  EXPECT_EQ(reg.value(reg.find("blocks_uploaded")), 64.0);
  EXPECT_EQ(reg.value(reg.find("bytes_uploaded")), bytes);
  EXPECT_EQ(sw.find_peer(l)->total_downloaded(), 4u * 256u * 1024u);
  EXPECT_EQ(sw.find_peer(s)->total_uploaded(), 4u * 256u * 1024u);
  // Data-plane block deliveries are synthesized by the fabric (not sent
  // as wire messages), so swarm-wide received >= sent.
  EXPECT_GE(reg.value(reg.find("messages_received")),
            reg.value(reg.find("messages_sent")));
  EXPECT_GT(reg.value(reg.find("messages_sent")), 0.0);
  // Both the start-complete seed and the finished leecher report seed
  // state.
  EXPECT_EQ(reg.value(reg.find("became_seeds")), 2.0);

  // The periodic series sampled along the way.
  EXPECT_GE(reg.samples(reg.find("interested_occupancy")).size(), 2u);
  // Per-peer detail: the leecher's log saw all four completions.
  ASSERT_NE(probe.peer_log(l), nullptr);
  EXPECT_EQ(probe.peer_log(l)->piece_events().size(), 4u);
}

// Mid-download, the focus leecher's peer set holds the seed and the
// other leecher, so its copy counts are not all zero.
TEST(SwarmProbe, FocusSeriesMatchTheFocusPeerMidRun) {
  sim::Simulation sim(3);
  const wire::ContentGeometry geo(8 * 256 * 1024);
  swarm::Swarm sw(sim, geo);

  MetricsRegistry reg;
  SwarmProbe probe(reg, 8);
  probe.bind([&sw](peer::PeerId id) -> const peer::Peer* {
    return sw.find_peer(id);
  });

  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 20e3;
  sw.start_peer(sw.add_peer(std::move(seed_cfg), &probe));
  peer::PeerId focus = peer::kNoPeer;
  for (int i = 0; i < 2; ++i) {
    peer::PeerConfig cfg;
    cfg.upload_capacity = 20e3;
    focus = sw.add_peer(std::move(cfg), &probe);
    sw.start_peer(focus);
  }
  probe.set_focus(focus);
  sim.run_until(45.0);
  const peer::Peer& p = *sw.find_peer(focus);
  ASSERT_FALSE(p.is_seed());
  ASSERT_EQ(p.peer_set_size(), 2u);
  probe.finalize(45.0);
  expect_focus_series_match(reg, p);
  EXPECT_GE(last_value(reg, "copies_max"), 1.0);
}

TEST(SwarmProbe, SamplingHonorsThePeriod) {
  MetricsRegistry reg;
  SwarmProbe::Options popts;
  popts.sampling_period = 10.0;
  SwarmProbe probe(reg, 8, popts);
  // Synthetic callbacks: samples land only when t crosses the grid.
  probe.on_start(1, 0.0);
  for (int i = 1; i <= 100; ++i) {
    probe.on_message_sent(1, i * 1.0, 2, wire::Message{wire::HaveMsg{0}});
  }
  const auto churn = reg.samples(reg.find("choke_churn"));
  // 0, 10, 20, ... 100 -> 11 samples.
  EXPECT_EQ(churn.size(), 11u);
}

}  // namespace
}  // namespace swarmlab::instrument
