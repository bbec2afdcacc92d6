// Discrete-event simulation core.
//
// A single-threaded event loop with a virtual clock. Determinism is a
// hard requirement (every IQB experiment must be reproducible), so
// ties in event time are broken by insertion order and all randomness
// lives in explicitly seeded Rng instances owned by the components.
//
// Events live in slab slots that a free list reuses. A TimerId names a
// slot and the slot's generation, which moves on whenever the event
// fires or is cancelled, so a stale id never touches the slot's next
// event. The queue is a binary min-heap on (time, seq) whose slots
// know their heap position: cancel() takes the entry out in
// O(log n), and the heap holds only events that will run.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace iqb::netsim {

/// Simulated time in seconds since simulation start.
using SimTime = double;

constexpr SimTime kSimTimeInfinity = std::numeric_limits<double>::infinity();

/// Handle for a scheduled event that may be cancelled (e.g. a TCP
/// retransmission timer, cancelled and scheduled afresh on every ACK
/// that advances the window). Never 0, so 0 can mean "no event".
using TimerId = std::uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedule at an absolute time >= now(). Scheduling in the past is
  /// clamped to now() (a zero-delay event).
  TimerId schedule_at(SimTime time, Callback callback);

  /// Schedule after a non-negative delay.
  TimerId schedule_in(SimTime delay, Callback callback);

  /// Take the tie-break that a schedule_at() call would take now, for
  /// an event whose time is known now but which is queued later with
  /// schedule_reserved(). The event then runs exactly where one
  /// scheduled now would have run. It counts as pending from this call.
  std::uint64_t reserve_seq() noexcept {
    ++reserved_;
    return next_seq_++;
  }

  /// Queue the event for a reserve_seq() tie-break; `time` must be
  /// >= now().
  TimerId schedule_reserved(SimTime time, std::uint64_t seq, Callback callback);

  /// Cancel a pending event. Cancelling an already-fired, cancelled or
  /// unknown id is a no-op (returns false).
  bool cancel(TimerId id);

  /// Run events until the queue empties, the clock passes `until` or a
  /// callback calls stop(). Returns the number of events executed.
  /// Unless stopped, the clock then advances to a finite `until`.
  std::size_t run(SimTime until = kSimTimeInfinity);

  /// Make run() return after the current event, with now() at that
  /// event's time and later events left pending. Called outside run(),
  /// the next run() returns at once without executing an event.
  void stop() noexcept { stop_requested_ = true; }

  /// Execute the single next event, if any. Returns false when empty.
  bool step();

  /// Events that will still run: the queued ones plus those reserved
  /// with reserve_seq() and not yet queued (deliveries waiting in a
  /// link's in-flight FIFO).
  std::size_t pending() const noexcept { return heap_.size() + reserved_; }

  /// Total events executed since construction (for benches).
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break for equal times
    std::uint32_t slot;
  };
  struct Slot {
    Callback callback;
    std::uint32_t generation = 1;  // never 0, so TimerId 0 is never issued
    std::uint32_t link = 0;  // heap position while queued, next free slot while free
  };

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  TimerId push(SimTime time, std::uint64_t seq, Callback callback);
  void remove_at(std::size_t pos);
  void sift_up(std::size_t pos, Entry entry);
  void sift_down(std::size_t pos, Entry entry);
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].link = static_cast<std::uint32_t>(pos);
  }
  void release(std::uint32_t slot);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t reserved_ = 0;
  bool stop_requested_ = false;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNoSlot;
};

}  // namespace iqb::netsim
