#include "iqb/netsim/sim.hpp"

#include <cassert>
#include <utility>

namespace iqb::netsim {

TimerId Simulator::schedule_at(SimTime time, Callback callback) {
  if (time < now_) time = now_;
  return push(time, next_seq_++, std::move(callback));
}

TimerId Simulator::schedule_in(SimTime delay, Callback callback) {
  assert(delay >= 0.0 && "negative delay");
  return schedule_at(now_ + delay, std::move(callback));
}

TimerId Simulator::schedule_reserved(SimTime time, std::uint64_t seq,
                                     Callback callback) {
  assert(reserved_ > 0 && "schedule_reserved without reserve_seq");
  assert(time >= now_ && "reserved event in the past");
  --reserved_;
  return push(time, seq, std::move(callback));
}

TimerId Simulator::push(SimTime time, std::uint64_t seq, Callback callback) {
  std::uint32_t slot = free_slot_;
  if (slot != kNoSlot) {
    free_slot_ = slots_[slot].link;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].callback = std::move(callback);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{time, seq, slot});
  return (TimerId{slots_[slot].generation} << 32) | slot;
}

bool Simulator::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != id >> 32) {
    return false;
  }
  // Only a made-up id can match a free slot's generation; a free slot
  // is in no heap entry, and its `link` is a free-list index.
  const std::uint32_t pos = slots_[slot].link;
  if (pos >= heap_.size() || heap_[pos].slot != slot) return false;
  remove_at(pos);
  release(slot);
  return true;
}

void Simulator::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Simulator::sift_up(std::size_t pos, Entry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::sift_down(std::size_t pos, Entry entry) {
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.callback = nullptr;
  if (++s.generation == 0) s.generation = 1;
  s.link = free_slot_;
  free_slot_ = slot;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  remove_at(0);
  // Move the callback out and free its slot first: the callback may
  // schedule (reusing the slot or growing the slab) or cancel its own,
  // now stale, id.
  Callback callback = std::move(slots_[top.slot].callback);
  release(top.slot);
  assert(top.time >= now_ && "event queue went backwards");
  now_ = top.time;
  ++executed_;
  callback();
  return true;
}

std::size_t Simulator::run(SimTime until) {
  std::size_t executed = 0;
  while (!stop_requested_ && !heap_.empty() && heap_.front().time <= until) {
    step();
    ++executed;
  }
  if (stop_requested_) {
    stop_requested_ = false;
    return executed;
  }
  // If we stopped because of `until`, advance the clock to it so
  // callers can interleave run() windows with external logic.
  if (until != kSimTimeInfinity && now_ < until) now_ = until;
  return executed;
}

}  // namespace iqb::netsim
