#include "instrument/choke_market.h"

#include <algorithm>

namespace swarmlab::instrument {

void ChokeMarketLog::flush(RemoteState& state, double t) {
  const double dt = t - state.last_flush;
  if (dt <= 0.0) return;
  state.last_flush = t;
  if (!state.in_set || local_seed_) return;
  state.in_set_time += dt;
  if (state.unchokes_us) state.unchokes_us_time += dt;
}

void ChokeMarketLog::on_start(peer::PeerId /*self*/, sim::SimTime /*t*/) {}

void ChokeMarketLog::on_peer_joined(peer::PeerId /*self*/, sim::SimTime t,
                                    peer::PeerId remote) {
  RemoteState& s = remotes_[remote];
  flush(s, t);
  s.in_set = true;
  s.unchokes_us = false;
  s.last_flush = t;
}

void ChokeMarketLog::on_peer_left(peer::PeerId /*self*/, sim::SimTime t,
                                  peer::PeerId remote) {
  RemoteState& s = remotes_[remote];
  flush(s, t);
  s.in_set = false;
  s.unchokes_us = false;
  if (s.tenure > 0) {
    stats_.tenures.push_back(static_cast<double>(s.tenure));
    s.tenure = 0;
  }
}

void ChokeMarketLog::on_remote_choke_change(peer::PeerId /*self*/,
                                            sim::SimTime t, peer::PeerId remote,
                                            bool unchoked) {
  RemoteState& s = remotes_[remote];
  flush(s, t);
  s.unchokes_us = unchoked;
}

void ChokeMarketLog::on_choke_round(peer::PeerId /*self*/, sim::SimTime t,
                                    bool seed_state,
                                    const std::vector<peer::PeerId>& unchoked) {
  if (seed_state) return;  // the market analysis targets leecher state
  ++stats_.rounds;
  const std::set<peer::PeerId> selected(unchoked.begin(), unchoked.end());
  for (auto& [remote, s] : remotes_) {
    flush(s, t);
    const bool held = s.in_set && selected.contains(remote);
    if (held) {
      ++s.tenure;
      ++stats_.slot_rounds;
      if (s.unchokes_us) ++mutual_slot_rounds_;
    } else if (s.tenure > 0) {
      stats_.tenures.push_back(static_cast<double>(s.tenure));
      s.tenure = 0;
    }
  }
}

void ChokeMarketLog::on_became_seed(peer::PeerId /*self*/, sim::SimTime t) {
  for (auto& [remote, s] : remotes_) {
    flush(s, t);
    if (s.tenure > 0) {
      stats_.tenures.push_back(static_cast<double>(s.tenure));
      s.tenure = 0;
    }
  }
  local_seed_ = true;
}

MarketStats ChokeMarketLog::finalize(double t) {
  double in_set_total = 0.0;
  double unchoked_us_total = 0.0;
  for (auto& [remote, s] : remotes_) {
    flush(s, t);
    if (s.tenure > 0) {
      stats_.tenures.push_back(static_cast<double>(s.tenure));
      s.tenure = 0;
    }
    in_set_total += s.in_set_time;
    unchoked_us_total += s.unchokes_us_time;
  }
  MarketStats out = stats_;
  if (!out.tenures.empty()) {
    double sum = 0.0;
    for (const double v : out.tenures) {
      sum += v;
      out.max_tenure = std::max(out.max_tenure, v);
    }
    out.mean_tenure = sum / static_cast<double>(out.tenures.size());
  }
  out.mutuality = out.slot_rounds > 0
                      ? static_cast<double>(mutual_slot_rounds_) /
                            static_cast<double>(out.slot_rounds)
                      : 0.0;
  out.null_mutuality =
      in_set_total > 0.0 ? unchoked_us_total / in_set_total : 0.0;
  return out;
}

}  // namespace swarmlab::instrument
