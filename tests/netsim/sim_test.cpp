#include "iqb/netsim/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#include "iqb/util/rng.hpp"

namespace iqb::netsim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  const std::size_t executed = sim.run(2.0);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const TimerId id = sim.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelUnknownIdIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, CancelFromInsideCallback) {
  Simulator sim;
  int fired = 0;
  const TimerId later = sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(1.0, [&] { sim.cancel(later); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(0.001, recurse);
  };
  sim.schedule_in(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.executed(), 100u);
}

TEST(Simulator, ZeroDelayEventsPreserveOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(0.0, [&] {
    order.push_back(1);
    sim.schedule_in(0.0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, PendingCountsNonCancelled) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const TimerId id = sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CancelledSlotReuseIgnoresStaleId) {
  Simulator sim;
  int first = 0, second = 0;
  const TimerId stale = sim.schedule_at(1.0, [&] { ++first; });
  ASSERT_TRUE(sim.cancel(stale));
  // The freed slot is reused; the stale id must not reach its new event.
  const TimerId fresh = sim.schedule_at(1.0, [&] { ++second; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(sim.cancel(fresh));  // fired
  EXPECT_FALSE(sim.cancel(0));
}

TEST(Simulator, CancelOwnIdInsideCallbackIsFalse) {
  Simulator sim;
  TimerId self = 0;
  bool cancelled = true;
  self = sim.schedule_at(1.0, [&] { cancelled = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, ReservedEventRunsWhereItWasReserved) {
  Simulator sim;
  std::vector<int> order;
  // Reserved first at t=1, queued after a later-scheduled tie at t=1:
  // it still runs first, as if scheduled when reserved.
  const std::uint64_t seq = sim.reserve_seq();
  EXPECT_EQ(sim.pending(), 1u);
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_reserved(1.0, seq, [&] { order.push_back(1); });
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StopReturnsAfterTheCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] {
    order.push_back(2);
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_at(4.0, [&] { order.push_back(4); });
  EXPECT_EQ(sim.run(10.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // A stopped run leaves the clock at the stopping event, not `until`.
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.executed(), 2u);
  // The stop is spent: the next run carries on.
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, StopBeforeRunReturnsAtOnce) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(0.0, [&] { ++fired; });
  sim.stop();
  EXPECT_EQ(sim.run(5.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, StopFromSteppedEventHoldsForTheNextRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { sim.stop(); });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

// ---------------- differential test against a reference queue -------

/// The documented contract written as plainly as possible: every event
/// ever scheduled stays in a list, and each step scans it for the
/// smallest live (time, seq). Ids are list positions + 1.
class ReferenceQueue {
 public:
  double now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  std::size_t pending() const {
    return static_cast<std::size_t>(std::count_if(
        events_.begin(), events_.end(), [](const Event& e) { return e.live; }));
  }

  std::uint64_t schedule_at(double time, std::function<void()> callback) {
    events_.push_back(
        Event{std::max(time, now_), next_seq_++, true, std::move(callback)});
    return events_.size();
  }

  bool cancel(std::uint64_t id) {
    if (id == 0 || id > events_.size() || !events_[id - 1].live) return false;
    events_[id - 1].live = false;
    events_[id - 1].callback = nullptr;
    return true;
  }

  bool step() {
    Event* next = earliest();
    if (next == nullptr) return false;
    next->live = false;
    now_ = next->time;
    ++executed_;
    auto callback = std::move(next->callback);  // the list may grow
    callback();
    return true;
  }

  std::size_t run(double until = kSimTimeInfinity) {
    std::size_t executed = 0;
    for (Event* next = earliest(); next != nullptr && next->time <= until;
         next = earliest()) {
      step();
      ++executed;
    }
    if (until != kSimTimeInfinity && now_ < until) now_ = until;
    return executed;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    bool live;
    std::function<void()> callback;
  };

  Event* earliest() {
    Event* best = nullptr;
    for (Event& e : events_) {
      if (!e.live) continue;
      if (best == nullptr || e.time < best->time ||
          (e.time == best->time && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best;
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> events_;
};

/// One seeded scenario, played against either queue. Each event has a
/// label; firing logs it and performs more operations drawn from a
/// stream seeded by the label, so both queues see the same operations
/// for as long as they fire the same events in the same order. A
/// "lane" mimics a link's in-flight FIFO: on the Simulator only its
/// head is queued, with reserved tie-breaks; the reference schedules
/// each arrival outright when it is reserved.
template <typename Queue>
class Scenario {
 public:
  Scenario(Queue& queue, std::uint64_t seed) : queue_(queue), seed_(seed) {}

  std::vector<std::string> play() {
    util::Rng rng(seed_);
    for (int round = 0; round < 60; ++round) {
      for (auto k = rng.uniform_int(0, 4); k > 0; --k) act(rng);
      switch (rng.uniform_int(0, 3)) {
        case 0: {
          const double until =
              queue_.now() + 0.25 * static_cast<double>(rng.uniform_int(0, 6));
          note("run(" + format(until) + ")=" +
               std::to_string(queue_.run(until)));
          break;
        }
        case 1:
          note("step=" + std::to_string(queue_.step()));
          break;
        default:
          note("idle");
      }
    }
    note("run()=" + std::to_string(queue_.run()));
    return trace_;
  }

 private:
  static constexpr bool kSimulator = std::is_same_v<Queue, Simulator>;
  static constexpr std::size_t kMaxEvents = 400;

  struct Arrival {
    double time;
    std::uint64_t seq;
    std::size_t label;
  };

  static std::string format(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
  }

  void note(const std::string& what) {
    trace_.push_back(what + " now=" + format(queue_.now()) +
                     " executed=" + std::to_string(queue_.executed()) +
                     " pending=" + std::to_string(queue_.pending()));
  }

  std::function<void()> fire(std::size_t label) {
    return [this, label] {
      note("fire " + std::to_string(label));
      util::Rng rng(seed_ * 7919 + label);
      for (auto k = rng.uniform_int(0, 2); k > 0; --k) act(rng);
      if (rng.bernoulli(0.1)) {
        note("cancel self " + std::to_string(label) + "=" +
             std::to_string(cancel(label)));
      }
    };
  }

  bool cancel(std::size_t label) {
    return cancellable_[label] && queue_.cancel(ids_[label]);
  }

  void act(util::Rng& rng) {
    switch (rng.uniform_int(0, 5)) {
      case 0:
      case 1: {
        if (ids_.size() >= kMaxEvents) return;
        // A coarse grid of times makes ties common; negative steps
        // land in the past and are clamped to now().
        const double time =
            std::floor(queue_.now() * 4.0) / 4.0 +
            0.25 * static_cast<double>(rng.uniform_int(-2, 6));
        const std::size_t label = ids_.size();
        cancellable_.push_back(true);
        ids_.push_back(queue_.schedule_at(time, fire(label)));
        note("schedule " + std::to_string(label) + " at " + format(time));
        return;
      }
      case 2: {
        if (ids_.size() >= kMaxEvents) return;
        lane_last_ = std::max(lane_last_, queue_.now()) +
                     0.25 * static_cast<double>(rng.uniform_int(0, 2));
        const std::size_t label = ids_.size();
        cancellable_.push_back(false);
        if constexpr (kSimulator) {
          ids_.push_back(0);
          lane_.push_back(Arrival{lane_last_, queue_.reserve_seq(), label});
          if (lane_.size() == 1) queue_head();
        } else {
          ids_.push_back(queue_.schedule_at(lane_last_, fire(label)));
        }
        note("reserve " + std::to_string(label) + " at " + format(lane_last_));
        return;
      }
      case 3:
      case 4: {
        // Any earlier event: pending, fired, cancelled, or (on the
        // Simulator) one whose slot now holds another event.
        if (ids_.empty()) return;
        const auto label = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
        note("cancel " + std::to_string(label) + "=" +
             std::to_string(cancel(label)));
        return;
      }
      default:
        note("cancel unknown=" + std::to_string(queue_.cancel(0)) +
             std::to_string(queue_.cancel(~std::uint64_t{0})));
    }
  }

  void queue_head() {
    if constexpr (kSimulator) {
      const Arrival& head = lane_.front();
      queue_.schedule_reserved(head.time, head.seq, [this] {
        const std::size_t label = lane_.front().label;
        lane_.pop_front();
        if (!lane_.empty()) queue_head();
        fire(label)();
      });
    }
  }

  Queue& queue_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> ids_;  // by label
  std::vector<bool> cancellable_;   // lane arrivals are not
  std::deque<Arrival> lane_;
  double lane_last_ = 0.0;
  std::vector<std::string> trace_;
};

TEST(Simulator, MatchesReferenceQueueOnSeededScenarios) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulator sim;
    ReferenceQueue reference;
    const auto got = Scenario<Simulator>(sim, seed).play();
    const auto want = Scenario<ReferenceQueue>(reference, seed).play();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "at trace line " << i;
    }
    EXPECT_EQ(sim.pending(), 0u);
  }
}

}  // namespace
}  // namespace iqb::netsim
