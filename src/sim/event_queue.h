// A cancellable priority queue of timed events.
//
// Events fire in (time, schedule-sequence) order, so simultaneous events
// run in the order they were scheduled — a requirement for deterministic
// replay of a simulation given a fixed RNG seed.
//
// EventIds are generation-checked slot handles: the low half encodes a
// slot (biased by 1 so no valid id is 0, the "no event" sentinel used by
// callers), the high half the slot's generation. Cancelling or firing an
// event bumps the generation, so a stale id held past its event's
// lifetime can never cancel the slot's next tenant. Fire-order ties are
// broken by a separate monotonic sequence carried in the heap entry —
// slot reuse makes ids non-monotonic, so ids cannot order the heap.
//
// Storage is one indexed binary min-heap: every slot records where its
// entry sits, so cancel() removes the entry at once and the heap holds
// live events only. See docs/performance.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.h"

namespace swarmlab::sim {

/// Callback invoked when an event fires.
using EventFn = std::function<void()>;

/// Payload of a fast-path event: 16 opaque bytes interpreted by the
/// channel handler (e.g. {node, direction} or {flow id, count}).
struct FastPayload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Priority queue of timed events with O(log n) cancellation and slot
/// reuse.
///
/// Events come in two flavours sharing one id space and one fire order:
/// closure events carry an EventFn, fast-path events carry a channel tag
/// plus a 16-byte POD payload and never touch std::function — hot
/// callers (the packet backend) schedule and fire without allocating.
class EventQueue {
 public:
  /// Schedules `fn` to fire at absolute time `at`. Returns an id usable
  /// with `cancel()`; never 0.
  EventId schedule(SimTime at, EventFn fn);

  /// Schedules a fast-path event at absolute time `at`. `channel` is an
  /// opaque nonzero tag handed back in Fired; dispatching it is the
  /// caller's business (Simulation keeps the handler table).
  EventId schedule_fast(SimTime at, std::uint16_t channel,
                        FastPayload payload);

  /// Cancels a pending event, removing it from the heap. Returns true if
  /// the event was still pending (not yet fired and not already
  /// cancelled).
  bool cancel(EventId id);

  /// True when no event is pending.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// A fired event. `channel` == 0 means a closure event (`fn` holds the
  /// callback); nonzero means a fast-path event (`payload` holds the
  /// data, `fn` is empty).
  struct Fired {
    SimTime time;
    FastPayload payload;
    std::uint16_t channel;
    EventFn fn;
  };

  /// Pops the earliest pending event into `*out` iff the queue is
  /// non-empty and that event's time is <= `deadline`. Returns false
  /// (leaving the queue and `*out` untouched) otherwise.
  bool pop_until(SimTime deadline, Fired* out);

  /// Events ever scheduled.
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }

  /// Events cancelled before firing.
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }

  /// High-water mark of pending events.
  [[nodiscard]] std::size_t peak_pending() const { return peak_; }

 private:
  /// Heap entries are 24-byte PODs: sift moves are plain copies instead
  /// of std::function move-constructor calls. The callback (or payload)
  /// lives in the slot.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // schedule order; breaks equal-time ties
    std::uint32_t slot;

    bool operator<(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;      // index of this slot's entry in heap_
    std::uint16_t channel = 0;  // 0 = closure event, else fast-path tag
    FastPayload payload;
    EventFn fn;
  };

  /// Allocates a slot and pushes its entry onto the heap.
  std::uint32_t place(SimTime at);

  /// Removes the entry at heap index `i`: the last entry fills the hole
  /// and sifts whichever way restores the heap order.
  void remove_at(std::size_t i);

  /// Fills the hole at index `i` with `e`, moving the hole up (towards
  /// the root) or down until `e` fits there.
  void sift_up(std::size_t i, Entry e);
  void sift_down(std::size_t i, Entry e);

  /// Stores `e` at heap index `i` and records that index in its slot.
  void put(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }

  /// Retires a slot: invalidates outstanding ids, frees the callback's
  /// captured resources, allows reuse.
  void release(std::uint32_t slot) {
    ++slots_[slot].gen;
    slots_[slot].fn = nullptr;
    free_.push_back(slot);
  }

  std::vector<Entry> heap_;  // binary min-heap by (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // retired slots awaiting reuse
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace swarmlab::sim
