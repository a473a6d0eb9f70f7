// Mega-swarm scale tier: the correctness side of the O(active) hot
// paths.
//
//  * pairwise_interest_entropy_sampled — exact when the sample covers
//    every leecher, deterministic for a given private stream.
//  * Rng::sample_indices — the sparse (hash-map) partial Fisher-Yates
//    used for large n must emit the same indices AND consume the same
//    engine draws as the dense strategy (replay identity).
//  * Tracker — Fenwick-sampled announces against a plain-set reference
//    under a randomized announce/expiry storm.
//  * Scenario catalog — entries frozen, parity with the historical
//    inline constructions, builder scaling, validation plumbed through
//    the batch runner as status: failed.
//  * SwarmProbe detail cap — counting stays global, logs stay O(cap).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "runner/batch_runner.h"
#include "sim/rng.h"
#include "swarm/entropy.h"
#include "swarm/scenario_catalog.h"
#include "swarm/swarm.h"

namespace swarmlab {
namespace {

// --- sampled entropy vs brute force ------------------------------------------

/// An independent O(leechers^2 x pieces) evaluation, the oracle the
/// sampled estimator must match when its sample covers everyone.
double brute_force_entropy(const swarm::Swarm& s) {
  std::vector<const core::Bitfield*> leechers;
  for (const peer::PeerId id : s.active_peer_ids()) {
    const peer::Peer* p = s.find_peer(id);
    if (p == nullptr || !p->active() || p->is_seed()) continue;
    leechers.push_back(&p->have());
  }
  if (leechers.size() < 2) return 1.0;
  std::uint64_t interested = 0;
  std::uint64_t pairs = 0;
  for (std::size_t a = 0; a < leechers.size(); ++a) {
    for (std::size_t b = 0; b < leechers.size(); ++b) {
      if (a == b) continue;
      ++pairs;
      if (leechers[a]->interested_in(*leechers[b])) ++interested;
    }
  }
  return static_cast<double>(interested) / static_cast<double>(pairs);
}

swarm::ScenarioConfig churny_scenario(std::uint32_t leechers) {
  swarm::ScenarioConfig cfg;
  cfg.name = "entropy-churn";
  cfg.num_pieces = 24;
  cfg.piece_size = 64 * 1024;
  cfg.block_size = 16 * 1024;
  cfg.initial_seeds = 1;
  cfg.initial_leechers = leechers;
  cfg.leechers_warm = true;  // randomized initial holdings
  cfg.warm_min = 0.0;
  cfg.warm_max = 0.9;
  cfg.arrival_rate = 0.05;        // joins mid-run
  cfg.seed_linger_mean = 150.0;   // completions turn into departures
  cfg.leecher_abort_rate = 1.0 / 4000.0;  // leechers leave mid-download
  cfg.duration = 6000.0;
  return cfg;
}

TEST(SwarmEntropySampled, FullSampleIsExact) {
  swarm::ScenarioRunner runner(churny_scenario(10), 3);
  runner.simulation().run_until(800.0);
  sim::Rng rng(99);
  // sample_k >= active leechers (and the k = 0 "unlimited" spelling)
  // degenerate to the exact value.
  EXPECT_DOUBLE_EQ(
      swarm::pairwise_interest_entropy_sampled(runner.swarm(), 10000, rng),
      brute_force_entropy(runner.swarm()));
  EXPECT_DOUBLE_EQ(
      swarm::pairwise_interest_entropy_sampled(runner.swarm(), 0, rng),
      brute_force_entropy(runner.swarm()));
}

TEST(SwarmEntropySampled, DeterministicAndBounded) {
  swarm::ScenarioRunner runner(churny_scenario(16), 5);
  runner.simulation().run_until(1200.0);
  sim::Rng a(123);
  sim::Rng b(123);
  const double ea =
      swarm::pairwise_interest_entropy_sampled(runner.swarm(), 5, a);
  const double eb =
      swarm::pairwise_interest_entropy_sampled(runner.swarm(), 5, b);
  EXPECT_DOUBLE_EQ(ea, eb);  // same private stream, same estimate
  EXPECT_GE(ea, 0.0);
  EXPECT_LE(ea, 1.0);
}

// --- sparse sample_indices draw identity -----------------------------------

/// The dense partial Fisher-Yates (the historical implementation),
/// reproduced as the oracle: the sparse strategy must emit identical
/// indices for an identically seeded engine.
std::vector<std::size_t> dense_sample(sim::Rng& rng, std::size_t n,
                                      std::size_t k) {
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.index(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

TEST(RngSampleIndices, SparseStrategyMatchesDenseDrawForDraw) {
  // Pairs straddling the strategy switch (n <= 4k + 64 stays dense):
  // identical seeds must yield identical samples AND leave the engines
  // in the same state (checked by drawing one more value).
  const struct {
    std::size_t n, k;
  } cases[] = {{10, 3},     {100, 10},   {500, 4},   {5000, 50},
               {100000, 3}, {100000, 64}, {65, 0},   {4096, 1}};
  for (const auto& c : cases) {
    sim::Rng actual(777);
    sim::Rng oracle(777);
    const auto got = actual.sample_indices(c.n, c.k);
    const auto want = dense_sample(oracle, c.n, c.k);
    EXPECT_EQ(got, want) << "n=" << c.n << " k=" << c.k;
    EXPECT_EQ(actual.uniform_int(0, 1u << 30), oracle.uniform_int(0, 1u << 30))
        << "engine state diverged at n=" << c.n << " k=" << c.k;
  }
}

TEST(RngSampleIndices, SampleIsUniqueAndInRange) {
  sim::Rng rng(5);
  const auto sample = rng.sample_indices(1000000, 100);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (const std::size_t v : sample) EXPECT_LT(v, 1000000u);
}

// --- tracker under an announce storm ---------------------------------------

TEST(TrackerScale, MatchesSetReferenceUnderAnnounceStorm) {
  swarm::Tracker tracker(/*peers_per_announce=*/20);
  tracker.set_member_expiry(500.0);
  sim::Rng rng(2024);
  std::set<peer::PeerId> reference;          // present members
  std::map<peer::PeerId, double> last_seen;  // their last announce
  double now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.uniform(0.0, 10.0);
    const auto who = static_cast<peer::PeerId>(rng.uniform_int(1, 600));
    // Mirror the tracker's own expiry rule on the reference first.
    for (auto it = last_seen.begin(); it != last_seen.end();) {
      if (it->first != who && now - it->second > 500.0) {
        reference.erase(it->first);
        it = last_seen.erase(it);
      } else {
        ++it;
      }
    }
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.15 && reference.count(who) != 0) {
      tracker.announce(who, peer::AnnounceEvent::kStopped, false,
                       rng, now);
      reference.erase(who);
      last_seen.erase(who);
      continue;
    }
    const auto event = reference.count(who) != 0
                           ? peer::AnnounceEvent::kRegular
                           : peer::AnnounceEvent::kStarted;
    const auto result =
        tracker.announce(who, event, /*is_seed=*/roll > 0.8, rng, now);
    reference.insert(who);
    last_seen[who] = now;
    ASSERT_EQ(tracker.num_members(), reference.size()) << "step " << step;
    // The sample: right size, unique, never the announcer, all members.
    const std::size_t expect =
        std::min<std::size_t>(20, reference.size() - 1);
    ASSERT_EQ(result.peers.size(), expect) << "step " << step;
    std::set<peer::PeerId> seen;
    for (const peer::PeerId p : result.peers) {
      EXPECT_NE(p, who);
      EXPECT_TRUE(seen.insert(p).second) << "duplicate peer in sample";
      EXPECT_EQ(reference.count(p), 1u) << "sampled a non-member";
    }
  }
}

// --- catalog parity and the builder ----------------------------------------

TEST(ScenarioCatalog, Table1EntriesMatchHistoricalConstruction) {
  for (int id = 1; id <= 26; ++id) {
    const auto want =
        swarm::scenario_from_table1(id, swarm::sweep_scale_limits());
    const auto* entry = swarm::find_scenario(want.name);
    ASSERT_NE(entry, nullptr) << want.name;
    const auto& got = entry->config;
    EXPECT_EQ(got.initial_seeds, want.initial_seeds) << want.name;
    EXPECT_EQ(got.initial_leechers, want.initial_leechers) << want.name;
    EXPECT_EQ(got.num_pieces, want.num_pieces) << want.name;
    EXPECT_EQ(got.leechers_warm, want.leechers_warm) << want.name;
    EXPECT_DOUBLE_EQ(got.arrival_rate, want.arrival_rate) << want.name;
    EXPECT_DOUBLE_EQ(got.duration, want.duration) << want.name;
  }
}

TEST(ScenarioCatalog, PerfTiersAreFrozen) {
  // The perf gate compares BENCH_perf.json numbers across commits; these
  // parameters moving would silently invalidate the baseline.
  const auto small = swarm::catalog_scenario("perf_small");
  EXPECT_EQ(small.initial_leechers, 48u);
  EXPECT_EQ(small.num_pieces, 128u);
  EXPECT_EQ(small.piece_size, 64u * 1024);
  const auto huge = swarm::catalog_scenario("perf_huge");
  EXPECT_EQ(huge.initial_leechers, 2000u);
  EXPECT_EQ(huge.max_population, 2400u);
  const auto pkt = swarm::catalog_scenario("pkt_huge");
  EXPECT_EQ(pkt.initial_leechers, 2048u);
  EXPECT_EQ(pkt.network_backend, "packet");
  EXPECT_EQ(pkt.block_size, 256u * 1024);
  // Every entry must be runnable as-is.
  for (const auto& entry : swarm::scenario_catalog()) {
    EXPECT_EQ(swarm::validate_scenario(entry.config), "") << entry.name;
    EXPECT_EQ(entry.name, entry.config.name);
  }
}

TEST(ScenarioCatalog, UnknownNamesFailLoudly) {
  EXPECT_EQ(swarm::find_scenario("no-such-scenario"), nullptr);
  EXPECT_THROW(swarm::catalog_scenario("no-such-scenario"),
               std::invalid_argument);
}

TEST(ScenarioBuilder, ScaleMultipliesThePopulationAxis) {
  const auto base = swarm::catalog_scenario("mega-flash");
  const auto ten = swarm::ScenarioBuilder::from_catalog("mega-flash")
                       .scale(10.0)
                       .name("mega-flash-10k")
                       .build();
  EXPECT_EQ(ten.initial_leechers, base.initial_leechers * 10);
  EXPECT_EQ(ten.initial_seeds, base.initial_seeds * 10);
  EXPECT_EQ(ten.max_population, base.max_population * 10);
  EXPECT_DOUBLE_EQ(ten.arrival_rate, base.arrival_rate * 10.0);
  // The non-population axes stay put.
  EXPECT_EQ(ten.num_pieces, base.num_pieces);
  EXPECT_DOUBLE_EQ(ten.duration, base.duration);
  EXPECT_EQ(ten.name, "mega-flash-10k");

  // Scaling down never erases a role that existed.
  const auto tiny = swarm::ScenarioBuilder(base).scale(0.001).build();
  EXPECT_GE(tiny.initial_seeds, 1u);
  EXPECT_GE(tiny.initial_leechers, 1u);

  EXPECT_THROW(swarm::ScenarioBuilder(base).scale(0.0),
               std::invalid_argument);
  EXPECT_THROW(swarm::ScenarioBuilder(base).scale(-2.0),
               std::invalid_argument);
}

TEST(ScenarioValidation, BuilderRejectsImpossibleGeometry) {
  swarm::ScenarioBuilder builder;
  builder.content(16, 16 * 1024, 64 * 1024);  // block > piece
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
  builder.content(16, 256 * 1024, 16 * 1024);
  builder.warm(0.8, 0.2);  // empty warm range
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
  builder.warm(0.2, 0.8);
  EXPECT_EQ(swarm::validate_scenario(builder.build()), "");
}

TEST(ScenarioValidation, InvalidConfigBecomesFailedJobStatus) {
  // The batch runner must map the constructor throw to a per-job failed
  // status (and a report row), not a crashed sweep.
  runner::BatchJob job;
  job.id = 1;
  job.name = "bad-geometry";
  job.config.name = "bad-geometry";
  job.config.block_size = 1024 * 1024;  // exceeds the 256 KiB piece
  job.seed = 1;
  runner::BatchRunner batch(runner::BatchOptions{});
  const auto results = batch.run(
      {job}, [](const runner::BatchJob& j, const runner::JobContext& ctx) {
        return runner::run_scenario_job(j, ctx, 100.0);
      });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runner::JobStatus::kFailed);
  EXPECT_NE(results[0].error.find("block_size"), std::string::npos)
      << results[0].error;
  EXPECT_NE(results[0].error.find("bad-geometry"), std::string::npos)
      << results[0].error;
}

// --- SwarmProbe detail cap --------------------------------------------------

TEST(SwarmProbeDetailCap, CountsAllPeersButCapsLogs) {
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe::Options opts;
  opts.detail_peer_cap = 2;
  instrument::SwarmProbe probe(registry, 8, opts);
  for (peer::PeerId id = 1; id <= 5; ++id) {
    probe.on_start(id, 1.0 * id);
  }
  EXPECT_EQ(probe.tracked_peers(), 5u);
  // First two tracked peers carry full logs; the rest count only.
  EXPECT_NE(probe.peer_log(1), nullptr);
  EXPECT_NE(probe.peer_log(2), nullptr);
  EXPECT_EQ(probe.peer_log(3), nullptr);
  EXPECT_EQ(probe.peer_log(5), nullptr);
  const instrument::MetricId starts = registry.find("peers_started");
  ASSERT_NE(starts, instrument::kNoMetric);
  EXPECT_DOUBLE_EQ(registry.value(starts), 5.0);
}

TEST(SwarmProbeDetailCap, ZeroMeansUnlimited) {
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, 8);
  for (peer::PeerId id = 1; id <= 4; ++id) probe.on_start(id, 1.0);
  for (peer::PeerId id = 1; id <= 4; ++id) {
    EXPECT_NE(probe.peer_log(id), nullptr) << id;
  }
}

}  // namespace
}  // namespace swarmlab
