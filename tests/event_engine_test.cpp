// Event-engine equivalence: the indexed-heap EventQueue, which removes
// cancelled entries from the middle of the heap, must pop in exactly the
// (time, seq) order of a naive reference model under tie-heavy
// randomized workloads, and the fast-path channel must share that order
// with closure events.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace swarmlab::sim {
namespace {

constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

/// Reference model: a plain list keyed by (time, insertion seq).
/// Deliberately naive — correctness oracle, not a performance peer.
class ReferenceQueue {
 public:
  std::uint64_t add(double time) {
    items_.push_back({time, next_seq_++, next_token_});
    return next_token_++;
  }

  bool cancel(std::uint64_t token) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->token == token) {
        items_.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  /// Time of the (time, seq) minimum. Precondition: !empty().
  [[nodiscard]] double min_time() const { return min()->time; }

  /// Pops the (time, seq) minimum and returns its token.
  std::uint64_t pop() {
    const auto best = min();
    const std::uint64_t token = best->token;
    items_.erase(best);
    return token;
  }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    std::uint64_t token;
  };

  [[nodiscard]] std::vector<Item>::const_iterator min() const {
    auto best = items_.begin();
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->time < best->time ||
          (it->time == best->time && it->seq < best->seq)) {
        best = it;
      }
    }
    return best;
  }

  std::vector<Item> items_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_token_ = 1;
};

/// Drives EventQueue and ReferenceQueue through one interleaved
/// schedule / cancel / stale-cancel / pop_until script and asserts
/// identical pop order and size after every operation. Times are drawn
/// from a tiny set of quantized values so equal-time ties are the norm,
/// and pop deadlines fall both on those times and between them.
void run_equivalence_script(std::uint64_t seed, int ops) {
  Rng rng(seed);
  EventQueue queue;
  ReferenceQueue ref;
  // token (reference) <-> id (queue) for the same logical event; the
  // fired closure records which token ran.
  std::vector<std::uint64_t> popped_tokens;
  std::vector<std::pair<std::uint64_t, EventId>> live;  // token -> id
  std::vector<EventId> dead;  // ids already fired or cancelled
  int stale_on_reused_slot = 0;
  int refused_pops = 0;

  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(0.0, 1.0) * n) % n;
  };
  const auto retire = [&live, &dead](std::uint64_t token) {
    const auto it = std::find_if(live.begin(), live.end(), [&](const auto& p) {
      return p.first == token;
    });
    ASSERT_NE(it, live.end());
    dead.push_back(it->second);
    live.erase(it);
  };

  double now = 0.0;
  for (int op = 0; op < ops; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.50 || queue.empty()) {
      // Schedule at a coarsely quantized future time: 16 distinct
      // offsets 0.75 s apart, so collisions are constant.
      const double offset = std::floor(rng.uniform(0.0, 1.0) * 16.0) * 0.75;
      const double at = now + offset;
      const std::uint64_t token = ref.add(at);
      const EventId id = queue.schedule(at, [token, &popped_tokens] {
        popped_tokens.push_back(token);
      });
      live.emplace_back(token, id);
    } else if (dice < 0.62 && !live.empty()) {
      // Cancel a random live event in both models.
      const auto [token, id] = live[pick(live.size())];
      EXPECT_TRUE(queue.cancel(id));
      EXPECT_TRUE(ref.cancel(token));
      retire(token);
    } else if (dice < 0.70 && !dead.empty()) {
      // Cancel an id that already fired or was cancelled. Slots are
      // reused, so this often names a slot a live event now holds; the
      // generation check must refuse it and leave that tenant alone.
      const EventId stale = dead[pick(dead.size())];
      for (const auto& [token, id] : live) {
        if ((id & 0xffffffffu) == (stale & 0xffffffffu)) {
          ++stale_on_reused_slot;
          break;
        }
      }
      EXPECT_FALSE(queue.cancel(stale));
    } else {
      // Pop with a deadline on a tied time (even multiple of 0.375 s) or
      // between two of them (odd multiple); order must agree exactly.
      const double deadline =
          now + std::floor(rng.uniform(0.0, 1.0) * 32.0) * 0.375;
      const std::size_t before = queue.size();
      EventQueue::Fired fired;
      if (ref.min_time() > deadline) {
        // A refused pop disturbs nothing: same size, and the next pop
        // (checked by the following pop ops) still matches the reference.
        EXPECT_FALSE(queue.pop_until(deadline, &fired));
        EXPECT_EQ(queue.size(), before);
        ++refused_pops;
      } else {
        ASSERT_TRUE(queue.pop_until(deadline, &fired));
        EXPECT_GE(fired.time, now);
        EXPECT_LE(fired.time, deadline);
        EXPECT_EQ(fired.time, ref.min_time());
        now = fired.time;
        ASSERT_EQ(fired.channel, 0);
        fired.fn();
        ASSERT_FALSE(popped_tokens.empty());
        const std::uint64_t expect = ref.pop();
        EXPECT_EQ(popped_tokens.back(), expect)
            << "divergence at op " << op << " seed " << seed;
        retire(popped_tokens.back());
      }
    }
    ASSERT_EQ(queue.size(), ref.size()) << "op " << op << " seed " << seed;
  }
  EXPECT_GT(stale_on_reused_slot, 0);
  EXPECT_GT(refused_pops, 0);
  // Drain: the full remaining order must match too.
  EventQueue::Fired fired;
  while (queue.pop_until(kNoDeadline, &fired)) {
    fired.fn();
    EXPECT_EQ(popped_tokens.back(), ref.pop());
    EXPECT_EQ(queue.size(), ref.size());
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(ref.empty());
}

TEST(EventEngineEquivalence, TieHeavyRandomizedPopOrderMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_equivalence_script(seed, 4000);
  }
}

TEST(EventEngineEquivalence, MassCancelPreservesOrder) {
  EventQueue queue;
  std::vector<int> order;
  // 3000 events on 37 tied times; cancel 2/3 of them, scattered through
  // the heap, so most cancels remove an entry from its middle.
  std::vector<EventId> ids;
  for (int i = 0; i < 3000; ++i) {
    const double at = (i % 37) * 0.1;
    ids.push_back(queue.schedule(at, [i, &order] { order.push_back(i); }));
  }
  for (int i = 0; i < 3000; ++i) {
    if (i % 3 != 0) {
      EXPECT_TRUE(queue.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_EQ(queue.size(), 1000u);
  double last = -1.0;
  int popped = 0;
  EventQueue::Fired fired;
  while (queue.pop_until(kNoDeadline, &fired)) {
    EXPECT_GE(fired.time, last);
    last = fired.time;
    fired.fn();
    ++popped;
  }
  EXPECT_EQ(popped, 1000);
  // Survivors fire in (time, seq) order: within one time value,
  // ascending schedule order (i % 37 equal => ascending i).
  for (std::size_t i = 1; i < order.size(); ++i) {
    const int a = order[i - 1];
    const int b = order[i];
    if (a % 37 == b % 37) {
      EXPECT_LT(a, b);
    }
  }
}

struct FastRecorder {
  std::vector<std::uint64_t> seen;
  static void fire(void* ctx, const FastPayload& p) {
    static_cast<FastRecorder*>(ctx)->seen.push_back(p.a);
  }
};

TEST(EventEngineFastPath, SharesFireOrderWithClosures) {
  Simulation sim(42);
  FastRecorder rec;
  const std::uint16_t ch = sim.add_fast_channel(&FastRecorder::fire, &rec);
  std::vector<std::uint64_t> merged;  // records both flavours in order
  // Alternate closure/fast at identical times: fire order must be exact
  // schedule order (shared time, same seq counter).
  for (std::uint64_t i = 0; i < 200; ++i) {
    const double at = static_cast<double>(i % 10);
    if (i % 2 == 0) {
      sim.schedule_at(at, [i, &merged] { merged.push_back(i); });
    } else {
      sim.schedule_fast_at(at, ch, {i, 0});
    }
  }
  sim.run();
  // Rebuild the merged order from the fast recorder + closure log.
  EXPECT_EQ(sim.events_executed(), 200u);
  EXPECT_EQ(sim.events_fastpath(), 100u);
  EXPECT_EQ(rec.seen.size(), 100u);
  // Within one time value, schedule order is ascending i; fast events
  // are the odd i. Check the fast stream is sorted by (time, i).
  for (std::size_t i = 1; i < rec.seen.size(); ++i) {
    const std::uint64_t a = rec.seen[i - 1];
    const std::uint64_t b = rec.seen[i];
    if (a % 10 == b % 10) {
      EXPECT_LT(a, b);
    }
  }
}

TEST(EventEngineFastPath, CancelFastEventNeverFires) {
  Simulation sim(7);
  FastRecorder rec;
  const std::uint16_t ch = sim.add_fast_channel(&FastRecorder::fire, &rec);
  const EventId keep = sim.schedule_fast_in(1.0, ch, {1, 0});
  const EventId gone = sim.schedule_fast_in(1.0, ch, {2, 0});
  EXPECT_TRUE(sim.cancel(gone));
  EXPECT_FALSE(sim.cancel(gone));  // stale id
  (void)keep;
  sim.run();
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0], 1u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
}

TEST(EventEngineFastPath, PopUntilRespectsDeadlineBoundary) {
  Simulation sim(7);
  int fired = 0;
  sim.schedule_at(1.0, [&fired] { ++fired; });
  sim.schedule_at(2.0, [&fired] { ++fired; });
  sim.schedule_at(2.0 + 1e-9, [&fired] { ++fired; });
  // Events exactly at the deadline run; later ones wait.
  EXPECT_EQ(sim.run_until(2.0), 2.0);
  EXPECT_EQ(fired, 2);
  sim.run();
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace swarmlab::sim
