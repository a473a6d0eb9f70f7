// Swarm-wide entropy: the bird's-eye complement to the paper's
// peer-oriented Fig. 1. The paper defines ideal entropy as "each leecher
// is always interested in any other leecher"; with the simulator's global
// view we can measure the instantaneous fraction of ordered leecher pairs
// (a, b) where a is interested in b — no sampling through one peer's lens.
//
// This is the paper's *pairwise-interest* entropy. It is a different
// quantity from the SwarmProbe's `replication_entropy` series
// (instrument/swarm_probe.h), which is the normalized Shannon entropy of
// the piece-copy counts: two swarms can have equal copy counts yet very
// different pair interest, and vice versa.
//
// Two evaluation strategies, one definition:
//  * pairwise_interest_entropy() — exact: the brute-force
//    O(active-leechers² × pieces / 64) pair walk.
//  * pairwise_interest_entropy_sampled() — estimator for mega swarms,
//    where the pair walk is unaffordable: measures the pair fraction over a
//    uniform sample of K leechers drawn from a private Rng (never the
//    simulation's — sampling cannot perturb a trajectory).
//
// Neither schedules anything: callers read them between
// Simulation::run_until steps (see bench_ablation_piece_selection).
#pragma once

#include <cstddef>

#include "sim/rng.h"
#include "swarm/swarm.h"

namespace swarmlab::swarm {

/// Instantaneous swarm entropy: over all ordered pairs of active
/// leechers (a, b), the fraction where a is interested in b (b has a
/// piece a lacks). 1.0 = ideal entropy. Returns 1.0 when fewer than two
/// leechers are active (vacuously ideal).
double pairwise_interest_entropy(const Swarm& swarm);

/// Sampled estimator: swarm entropy measured over min(sample_k, active
/// leechers) leechers chosen uniformly by `rng`. Pass a PRIVATE Rng
/// (e.g. seeded with sim::fork_seed(seed, tick)) — drawing from the
/// simulation's Rng would change the trajectory. Exact (and equal to
/// pairwise_interest_entropy) whenever sample_k covers every active
/// leecher.
double pairwise_interest_entropy_sampled(const Swarm& swarm,
                                         std::size_t sample_k, sim::Rng& rng);

}  // namespace swarmlab::swarm
