// ObserverHub / ObserverList / SwarmObserver wiring tests, plus the
// digest-under-observation passivity check: attaching a record-only
// all-peers observer must not change any simulated trajectory.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "instrument/trace.h"
#include "peer/observer.h"
#include "runner/batch_runner.h"
#include "swarm/observer_hub.h"
#include "swarm/scenario.h"
#include "swarm/swarm.h"

namespace swarmlab {
namespace {

/// Appends "<tag>" to a shared journal on every on_start; optionally
/// mutates the list it lives in mid-dispatch.
struct TagObserver final : peer::PeerObserver {
  TagObserver(std::string tag, std::vector<std::string>& journal)
      : tag(std::move(tag)), journal(&journal) {}
  void on_start(sim::SimTime) override {
    journal->push_back(tag);
    if (action) action();
  }
  std::string tag;
  std::vector<std::string>* journal;
  std::function<void()> action;
};

TEST(ObserverList, DispatchFollowsAttachOrder) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal), c("c", journal);
  instrument::ObserverList list;
  list.add(&b);
  list.add(&a);
  list.add(&c);
  list.on_start(0.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(list.size(), 3u);
}

TEST(ObserverList, SelfRemovalMidDispatchKeepsLaterObservers) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal), c("c", journal);
  instrument::ObserverList list;
  list.add(&a);
  list.add(&b);
  list.add(&c);
  b.action = [&] { EXPECT_TRUE(list.remove(&b)); };
  list.on_start(0.0);
  // b fires once (its own callback was already in flight), c still runs.
  EXPECT_EQ(journal, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(list.size(), 2u);
  journal.clear();
  b.action = nullptr;
  list.on_start(1.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a", "c"}));
}

TEST(ObserverList, RemovingALaterObserverSuppressesItsInFlightEvent) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal);
  instrument::ObserverList list;
  list.add(&a);
  list.add(&b);
  a.action = [&] { EXPECT_TRUE(list.remove(&b)); };
  list.on_start(0.0);
  // b was removed before its slot was reached: no callback at all.
  EXPECT_EQ(journal, (std::vector<std::string>{"a"}));
  EXPECT_EQ(list.size(), 1u);
}

TEST(ObserverList, AddMidDispatchStartsWithTheNextEvent) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), late("late", journal);
  instrument::ObserverList list;
  list.add(&a);
  a.action = [&] { list.add(&late); };
  list.on_start(0.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a"}));
  a.action = nullptr;
  journal.clear();
  list.on_start(1.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a", "late"}));
}

TEST(ObserverList, RemoveUnknownReturnsFalse) {
  std::vector<std::string> journal;
  TagObserver a("a", journal);
  instrument::ObserverList list;
  EXPECT_FALSE(list.remove(&a));
  list.add(&a);
  EXPECT_TRUE(list.remove(&a));
  EXPECT_FALSE(list.remove(&a));
  EXPECT_EQ(list.size(), 0u);
}

/// Counts SwarmObserver callbacks per observed peer — the "record-only
/// all-peers observer" of the passivity requirement.
struct CountingSwarmObserver final : peer::SwarmObserver {
  void on_start(peer::PeerId self, sim::SimTime) override {
    ++starts[self];
  }
  void on_piece_complete(peer::PeerId self, sim::SimTime,
                         wire::PieceIndex) override {
    ++pieces[self];
  }
  void on_message_sent(peer::PeerId self, sim::SimTime, peer::PeerId,
                       const wire::Message&) override {
    ++messages[self];
  }
  std::map<peer::PeerId, int> starts, pieces, messages;
};

swarm::Swarm& make_seeded_swarm(sim::Simulation& sim,
                                const wire::ContentGeometry& geo,
                                std::unique_ptr<swarm::Swarm>& out) {
  out = std::make_unique<swarm::Swarm>(sim, geo);
  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 50e3;
  out->start_peer(out->add_peer(std::move(seed_cfg)));
  return *out;
}

TEST(ObserverHub, SingleObserverKeepsTheRawPointerFastPath) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  swarm::Swarm sw(sim, geo);
  instrument::TraceWriter trace;
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId id = sw.add_peer(std::move(cfg), &trace);
  // One observer: the peer dispatches straight through the observer
  // pointer, no fan-out in between (the pre-hub local-peer wiring).
  EXPECT_EQ(sw.find_peer(id)->observer(), &trace);
  EXPECT_EQ(sw.observers().observers_on(id), 1u);
}

TEST(ObserverHub, AttachAndDetachOnALivePeer) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  std::unique_ptr<swarm::Swarm> own;
  swarm::Swarm& sw = make_seeded_swarm(sim, geo, own);

  instrument::TraceWriter first, second;
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId l = sw.add_peer(std::move(cfg), &first);
  sw.start_peer(l);
  sim.run_until(200.0);
  const std::size_t at_attach = first.events().size();
  EXPECT_GT(at_attach, 0u);

  // A second observer mid-run promotes the hook to a fan-out; both see
  // the stream from here on.
  sw.observers().attach(l, &second);
  EXPECT_EQ(sw.observers().observers_on(l), 2u);
  sim.run_until(2000.0);
  EXPECT_TRUE(sw.find_peer(l)->is_seed());
  EXPECT_GT(first.events().size(), at_attach);
  EXPECT_GT(second.events().size(), 0u);

  // Detaching the original leaves the late subscriber running.
  EXPECT_TRUE(sw.observers().detach(l, &first));
  EXPECT_FALSE(sw.observers().detach(l, &first));
  EXPECT_EQ(sw.observers().observers_on(l), 1u);
}

TEST(ObserverHub, AttachAllCoversCurrentAndFuturePeers) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  swarm::Swarm sw(sim, geo);
  CountingSwarmObserver counter;
  sw.observers().attach_all(&counter);

  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 50e3;
  const peer::PeerId s = sw.add_peer(std::move(seed_cfg));
  sw.start_peer(s);
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId l = sw.add_peer(std::move(cfg));  // after attach_all
  sw.start_peer(l);
  sim.run_until(2000.0);

  // Both peers (the one added after attach_all included) reported their
  // start and their traffic, each under its own id.
  EXPECT_EQ(counter.starts[s], 1);
  EXPECT_EQ(counter.starts[l], 1);
  EXPECT_EQ(counter.pieces[l], 4);
  EXPECT_GT(counter.messages[s], 0);
  EXPECT_GT(counter.messages[l], 0);

  EXPECT_TRUE(sw.observers().detach_all(&counter));
  EXPECT_FALSE(sw.observers().detach_all(&counter));
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

runner::RunResult run_observed(swarm::ObservationPlan::Scope scope) {
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
      run_observed(swarm::ObservationPlan::Scope::kLocal);
  const runner::RunResult observed =
      run_observed(swarm::ObservationPlan::Scope::kAll);

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
      run_observed(swarm::ObservationPlan::Scope::kLocal);
  const runner::RunResult sampled =
      run_observed(swarm::ObservationPlan::Scope::kSampled);
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
      run_observed(swarm::ObservationPlan::Scope::kLocal);

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
