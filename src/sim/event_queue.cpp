#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace swarmlab::sim {

namespace {

constexpr EventId pack(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
}

}  // namespace

std::uint32_t EventQueue::place(SimTime at) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, slot});
  ++scheduled_;
  peak_ = std::max(peak_, heap_.size());
  return slot;
}

EventId EventQueue::schedule(SimTime at, EventFn fn) {
  const std::uint32_t slot = place(at);
  Slot& s = slots_[slot];
  s.channel = 0;
  s.fn = std::move(fn);
  return pack(s.gen, slot);
}

EventId EventQueue::schedule_fast(SimTime at, std::uint16_t channel,
                                  FastPayload payload) {
  assert(channel != 0);
  const std::uint32_t slot = place(at);
  Slot& s = slots_[slot];
  s.channel = channel;
  s.payload = payload;
  return pack(s.gen, slot);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t biased = id & 0xffffffffu;
  if (biased == 0 || biased > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(biased - 1);
  if (slots_[slot].gen != static_cast<std::uint32_t>(id >> 32)) return false;
  remove_at(slots_[slot].pos);
  release(slot);
  ++cancelled_;
  return true;
}

bool EventQueue::pop_until(SimTime deadline, Fired* out) {
  if (heap_.empty() || heap_.front().time > deadline) return false;
  const std::uint32_t slot = heap_.front().slot;
  Slot& s = slots_[slot];
  *out = Fired{heap_.front().time, s.payload, s.channel,
               s.channel == 0 ? std::move(s.fn) : EventFn{}};
  remove_at(0);
  release(slot);
  return true;
}

void EventQueue::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (i > 0 && last < heap_[(i - 1) / 2]) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void EventQueue::sift_up(std::size_t i, Entry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e < heap_[parent])) break;
    put(i, heap_[parent]);
    i = parent;
  }
  put(i, e);
}

void EventQueue::sift_down(std::size_t i, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < e)) break;
    put(i, heap_[child]);
    i = child;
  }
  put(i, e);
}

}  // namespace swarmlab::sim
