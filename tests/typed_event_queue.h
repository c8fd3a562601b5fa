// Typed binary-heap event queue: the reference scheduler for POD event
// payloads and the test oracle the calendar queue (sim::CalendarQueue) is
// pinned against.  Both implement exactly the contract below — the same
// (time, seq) FIFO total order, the same past-time clamp, the same
// resumable run() — and the randomized adversarial test
// (tests/test_calendar_queue.cpp) drives them in lockstep.  Kept beside the
// tests, like serial_reference.h, because nothing in the library runs it.
//
// Non-finite timestamps are rejected outright (schedule_at returns false
// and enqueues nothing): a NaN breaks the comparator's strict weak
// ordering, turning the heap invariant — and with it the determinism
// contract — into silent garbage.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace eefei::sim {

template <class P>
class TypedEventQueue {
 public:
  /// Current simulated time (the timestamp of the event being processed,
  /// or the last processed event after run() returns).
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `payload` at absolute simulated time `at`.  Time is
  /// monotonic: a past timestamp is clamped to now().  Non-finite
  /// timestamps are rejected (nothing is enqueued, returns false).
  bool schedule_at(Seconds at, const P& payload) {
    if (!std::isfinite(at.value())) return false;
    if (at < now_) at = now_;  // never schedule into the past
    heap_.push_back(Event{at, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (heap_.size() > high_water_) high_water_ = heap_.size();
    return true;
  }

  bool schedule_in(Seconds delay, const P& payload) {
    return schedule_at(now_ + delay, payload);
  }

  /// Processes events in (time, seq) order until the queue is empty or
  /// `max_events` fires, invoking `dispatch(payload, at)` for each.
  /// Handlers may schedule more events (including at the current
  /// timestamp); a stopped run resumes exactly where it left off.
  template <class Dispatch>
  std::size_t run(Dispatch&& dispatch, std::size_t max_events = SIZE_MAX) {
    std::size_t processed = 0;
    while (!heap_.empty() && processed < max_events) {
      // Re-entrancy: the event is copied OUT and popped before dispatch, so
      // a handler that schedules — growing and possibly reallocating the
      // heap vector — cannot invalidate the event being dispatched.
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Event ev = heap_.back();
      heap_.pop_back();
      now_ = ev.at;
      dispatch(ev.payload, ev.at);
      ++processed;
    }
    return processed;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Deepest the queue has been since construction / the last
  /// reset_high_water().
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  void reset_high_water() { high_water_ = heap_.size(); }

  /// Drops all pending events but keeps the clock and the FIFO sequence
  /// counter.  Re-arms the high-water mark at the (now empty) depth.
  void clear() {
    heap_.clear();
    high_water_ = 0;
  }

  /// Returns the queue to its freshly-constructed state (clock, sequence
  /// counter and high-water mark all rewound), retaining capacity.
  void reset() {
    heap_.clear();
    now_ = Seconds{0.0};
    next_seq_ = 0;
    high_water_ = 0;
  }

  /// Pre-sizes the backing store so a warmed-up queue schedules and runs
  /// without growing the heap vector.
  void reserve(std::size_t events) { heap_.reserve(events); }

 private:
  struct Event {
    Seconds at{0.0};
    std::uint64_t seq = 0;  // tie-break: FIFO among equal times
    P payload{};
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at.value() != b.at.value()) return a.at.value() > b.at.value();
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace eefei::sim
