#include "sim/simulation.h"

#include <cassert>
#include <utility>

namespace swarmlab::sim {

EventId Simulation::schedule_in(SimTime delay, EventFn fn) {
  assert(delay >= 0.0);
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventId Simulation::schedule_at(SimTime at, EventFn fn) {
  assert(at >= now_);
  return queue_.schedule(at, std::move(fn));
}

SimTime Simulation::run_until(SimTime deadline) {
  stopped_ = false;
  // A tripped monitor is sticky: the run was terminated for liveness
  // reasons and re-entering the loop would just spin it again.
  if (halted()) return now_;
  EventQueue::Fired fired;
  while (!stopped_ && queue_.pop_until(deadline, &fired)) {
    assert(fired.time >= now_);
    now_ = fired.time;
    ++executed_;
    if (fired.channel == 0) {
      fired.fn();
    } else {
      assert(fired.channel <= channels_.size());
      ++fastpath_;
      const FastChannel& ch = channels_[fired.channel - 1];
      ch.fn(ch.ctx, fired.payload);
    }
    if (monitor_ != nullptr && monitor_->on_event(now_)) return now_;
  }
  // When the deadline cuts the run short, report the deadline as "now" so
  // a caller stepping on a fixed grid reads state exactly at each step.
  if (!stopped_ && now_ < deadline &&
      deadline < std::numeric_limits<SimTime>::max()) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace swarmlab::sim
