// Observer wiring tests: ObserverList fan-out order, which peers a
// ScenarioRunner gives its observers under each ObservationPlan scope,
// plus the digest-under-observation passivity check: a record-only
// all-peers observer must not change any simulated trajectory.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "instrument/trace.h"
#include "peer/observer.h"
#include "runner/batch_runner.h"
#include "swarm/scenario.h"
#include "swarm/swarm.h"

namespace swarmlab::swarm {

// Names a scope in parameterized test names and gtest's printout.
void PrintTo(ObservationPlan::Scope scope, std::ostream* os) {
  switch (scope) {
    case ObservationPlan::Scope::kLocal: *os << "local"; return;
    case ObservationPlan::Scope::kSampled: *os << "sampled"; return;
    case ObservationPlan::Scope::kAll: *os << "all"; return;
  }
}

}  // namespace swarmlab::swarm

namespace swarmlab {
namespace {

using Scope = swarm::ObservationPlan::Scope;

/// Appends "<tag>" to a shared journal on every on_start.
struct TagObserver final : peer::SwarmObserver {
  TagObserver(std::string tag, std::vector<std::string>& journal)
      : tag(std::move(tag)), journal(&journal) {}
  void on_start(peer::PeerId, sim::SimTime) override {
    journal->push_back(tag);
  }
  std::string tag;
  std::vector<std::string>* journal;
};

TEST(ObserverList, DispatchFollowsAttachOrder) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal), c("c", journal);
  instrument::ObserverList list;
  list.add(&b);
  list.add(&a);
  list.add(&c);
  list.on_start(1, 0.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"b", "a", "c"}));
}

// --- which peers each scope observes -------------------------------------

/// A small swarm whose population grows after t = 0 (Poisson arrivals).
swarm::ScenarioConfig arrivals_scenario(Scope scope) {
  swarm::ScenarioConfig cfg;
  cfg.name = "arrivals";
  cfg.num_pieces = 16;
  cfg.initial_seeds = 1;
  cfg.initial_leechers = 4;
  cfg.arrival_rate = 0.05;
  cfg.duration = 400.0;
  cfg.observation.scope = scope;
  cfg.observation.sample_k = 2;
  return cfg;
}

class ScopeMembership : public ::testing::TestWithParam<Scope> {};

// The probe tracks exactly the peers the scope names: the local peer
// (kLocal), the local peer plus the first K spawned, seeds counted first
// (kSampled), or every started peer, later arrivals included (kAll).
TEST_P(ScopeMembership, ProbeTracksThePeersTheScopeNames) {
  const swarm::ScenarioConfig cfg = arrivals_scenario(GetParam());
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, cfg.num_pieces);
  swarm::ScenarioRunner runner(cfg, 7, nullptr, &probe);
  const std::size_t initial = runner.swarm().peer_ids().size();
  runner.simulation().run_until(300.0);
  const std::vector<peer::PeerId> started = runner.swarm().peer_ids();
  ASSERT_GT(started.size(), initial);  // peers arrived after t = 0

  const peer::PeerId local = runner.local_peer_id();
  EXPECT_NE(probe.peer_log(local), nullptr);
  switch (GetParam()) {
    case Scope::kLocal:
      EXPECT_EQ(probe.tracked_peers(), 1u);
      break;
    case Scope::kSampled: {
      EXPECT_EQ(probe.tracked_peers(), 1u + cfg.observation.sample_k);
      // The first K spawned peers: the initial seed, then one leecher.
      const peer::PeerId seed = runner.initial_seed_ids().front();
      EXPECT_NE(probe.peer_log(seed), nullptr);
      EXPECT_NE(probe.peer_log(seed + 1), nullptr);
      EXPECT_EQ(probe.peer_log(seed + 2), nullptr);
      break;
    }
    case Scope::kAll:
      EXPECT_EQ(probe.tracked_peers(), started.size());
      EXPECT_NE(probe.peer_log(started.back()), nullptr);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScopes, ScopeMembership,
    ::testing::Values(Scope::kLocal, Scope::kSampled, Scope::kAll),
    [](const ::testing::TestParamInfo<Scope>& info) {
      return ::testing::PrintToString(info.param);
    });

// With both observers set, the local peer reports to the local observer
// first, then to the swarm observer.
TEST(ScenarioObservers, LocalPeerReportsToTheLocalObserverFirst) {
  swarm::ScenarioConfig cfg = arrivals_scenario(Scope::kLocal);
  cfg.arrival_rate = 0.0;
  std::vector<std::string> journal;
  TagObserver local("local", journal), swarm_wide("swarm", journal);
  swarm::ScenarioRunner runner(cfg, 7, &local, &swarm_wide);
  EXPECT_EQ(journal, (std::vector<std::string>{"local", "swarm"}));
}

// --- the passivity requirement -------------------------------------------

swarm::ScaleLimits tiny_limits() {
  swarm::ScaleLimits limits;
  limits.max_peers = 30;
  limits.max_pieces = 24;
  limits.min_pieces = 12;
  limits.duration = 8000.0;
  return limits;
}

runner::RunResult run_observed(Scope scope) {
  runner::BatchJob job;
  job.id = 1;
  job.config = swarm::scenario_from_table1(3, tiny_limits());
  job.config.observation.scope = scope;
  job.name = job.config.name;
  job.seed = sim::fork_seed(20061025, 1);
  return runner::run_scenario_job(job, 200.0);
}

// An all-peers record-only observer (the runner's SwarmProbe) must not
// perturb the trajectory: every deterministic outcome — event counts,
// RNG-driven completion times, the preformatted text row — must be
// byte-identical to the unobserved run. Only `telemetry` (the
// observation product itself) may differ.
TEST(DigestUnderObservation, AllPeersProbeLeavesTrajectoryUntouched) {
  const runner::RunResult plain =
      run_observed(Scope::kLocal);
  const runner::RunResult observed =
      run_observed(Scope::kAll);

  EXPECT_EQ(plain.end_time, observed.end_time);
  EXPECT_EQ(plain.local_completion, observed.local_completion);
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.events_executed, observed.events_executed);
  EXPECT_EQ(plain.events_scheduled, observed.events_scheduled);
  EXPECT_EQ(plain.events_cancelled, observed.events_cancelled);
  EXPECT_EQ(plain.peak_pending, observed.peak_pending);
  EXPECT_EQ(plain.events_fastpath, observed.events_fastpath);
  EXPECT_EQ(plain.queue_compactions, observed.queue_compactions);
  EXPECT_EQ(plain.train_segments, observed.train_segments);
  EXPECT_EQ(plain.text, observed.text);

  // The observed run did produce a swarm-scope metrics snapshot.
  ASSERT_TRUE(observed.telemetry.is_object());
  EXPECT_EQ(observed.telemetry.find("scope")->as_string(), "all");
  ASSERT_NE(observed.telemetry.find("metrics"), nullptr);

  // Whole-report byte identity once the (legitimately different)
  // telemetry blocks are equalized: deterministic_view() of both runs
  // must serialize to the same bytes.
  runner::RunResult a = plain;
  runner::RunResult b = observed;
  a.telemetry = runner::json::Value();
  b.telemetry = runner::json::Value();
  runner::BatchOptions opts;
  opts.master_seed = 20061025;
  const auto report_a = runner::make_report("obs-test", opts, {a}, 0.0);
  const auto report_b = runner::make_report("obs-test", opts, {b}, 0.0);
  EXPECT_EQ(runner::json::dump(runner::deterministic_view(report_a)),
            runner::json::dump(runner::deterministic_view(report_b)));
}

// The sampled scope attaches to the local peer plus the first K spawned
// — equally passive, and the telemetry advertises the cap.
TEST(DigestUnderObservation, SampledScopeIsEquallyPassive) {
  const runner::RunResult plain =
      run_observed(Scope::kLocal);
  const runner::RunResult sampled =
      run_observed(Scope::kSampled);
  EXPECT_EQ(plain.events_executed, sampled.events_executed);
  EXPECT_EQ(plain.text, sampled.text);
  ASSERT_TRUE(sampled.telemetry.is_object());
  EXPECT_EQ(sampled.telemetry.find("scope")->as_string(), "sampled");
  ASSERT_NE(sampled.telemetry.find("sample_k"), nullptr);
}

// The figure configuration — kLocal scope, a probe bound to the swarm
// with the local peer as focus, a forced t = 0 sample — is equally
// passive: the trajectory matches the unobserved batch job's.
TEST(DigestUnderObservation, FocusBoundLocalProbeIsEquallyPassive) {
  const runner::RunResult plain =
      run_observed(Scope::kLocal);

  swarm::ScenarioConfig cfg = swarm::scenario_from_table1(3, tiny_limits());
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, cfg.num_pieces);
  swarm::ScenarioRunner runner(cfg, sim::fork_seed(20061025, 1), nullptr,
                               &probe);
  swarm::bind_probe(probe, runner);
  probe.force_sample(0.0);
  const double end = runner.run_until_local_complete(200.0);
  probe.finalize(end);

  const sim::Simulation& sim = runner.simulation();
  EXPECT_EQ(plain.end_time, end);
  EXPECT_EQ(plain.local_completion, runner.local_peer().completion_time());
  EXPECT_EQ(plain.events_executed, sim.events_executed());
  EXPECT_EQ(plain.events_scheduled, sim.events_scheduled());
  EXPECT_EQ(plain.events_cancelled, sim.events_cancelled());
  EXPECT_EQ(plain.peak_pending, sim.peak_pending_events());
  EXPECT_EQ(plain.events_fastpath, sim.events_fastpath());
  EXPECT_EQ(plain.queue_compactions, sim.queue_compactions());

  // The probe did observe: the focus series hold samples from t = 0 on
  // and dropped none.
  const instrument::MetricId copies = registry.find("copies_min");
  const auto samples = registry.samples(copies);
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().time, 0.0);
  EXPECT_EQ(registry.dropped(copies), 0u);
}

}  // namespace
}  // namespace swarmlab
