#include "swarm/entropy.h"

#include <vector>

#include "sim/rng.h"

namespace swarmlab::swarm {

namespace {

/// Active leechers' bitfields, in ascending peer-id order. O(active).
std::vector<const core::Bitfield*> active_leecher_bitfields(
    const Swarm& swarm) {
  std::vector<const core::Bitfield*> leechers;
  for (const peer::PeerId id : swarm.active_peer_ids()) {
    const peer::Peer* p = swarm.find_peer(id);
    if (p == nullptr || !p->active() || p->is_seed()) continue;
    leechers.push_back(&p->have());
  }
  return leechers;
}

/// Ordered-pair interest fraction over a set of bitfields.
double pair_entropy(const std::vector<const core::Bitfield*>& leechers) {
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

}  // namespace

double pairwise_interest_entropy(const Swarm& swarm) {
  return pair_entropy(active_leecher_bitfields(swarm));
}

double pairwise_interest_entropy_sampled(const Swarm& swarm,
                                         std::size_t sample_k, sim::Rng& rng) {
  std::vector<const core::Bitfield*> leechers =
      active_leecher_bitfields(swarm);
  if (sample_k == 0 || leechers.size() <= sample_k) {
    // The sample covers everyone: the estimator degenerates to the exact
    // value (no draws needed, matching sample_indices' n == k case
    // consuming draws we would simply discard).
    return pair_entropy(leechers);
  }
  std::vector<const core::Bitfield*> sample;
  sample.reserve(sample_k);
  for (const std::size_t i : rng.sample_indices(leechers.size(), sample_k)) {
    sample.push_back(leechers[i]);
  }
  return pair_entropy(sample);
}

}  // namespace swarmlab::swarm
