// Minimal discrete-event simulation engine.  Events are closures ordered by
// simulated time (FIFO within equal timestamps).  AsyncFeiSystem schedules
// its per-server task completions through this queue; the round engine
// (EventFleetEngine) runs on the typed CalendarQueue instead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"

namespace eefei::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time (the timestamp of the event being processed,
  /// or the last processed event after run() returns).
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `handler` at absolute simulated time `at`.  Time is
  /// monotonic: a timestamp in the past is clamped to `now()` (it fires as
  /// the next event at the current time, never "before" events that were
  /// already processed, and `now()` can never move backwards mid-run).
  /// Non-finite timestamps are rejected — nothing is enqueued and false is
  /// returned: a NaN would break the Later comparator's strict weak
  /// ordering and silently corrupt the heap invariant.
  bool schedule_at(Seconds at, Handler handler);

  /// Schedules `handler` `delay` after the current time.
  bool schedule_in(Seconds delay, Handler handler);

  /// Processes events until the queue is empty or `max_events` fires.
  /// Returns the number of events processed.  Handlers may schedule more
  /// events (including at the current timestamp); a stopped run resumes
  /// exactly where it left off on the next call.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Deepest the queue has been since construction / the last
  /// reset_high_water(), clear() or reset().  One compare per schedule;
  /// telemetry reads this per round to report queue-depth pressure without
  /// touching the run.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  /// Re-arms the mark at the current depth (per-round windows).
  void reset_high_water() { high_water_ = heap_.size(); }

  /// Drops all pending events but keeps the clock (and the FIFO sequence
  /// counter): the next phase of the same simulation continues from the
  /// time already reached.  This is the semantic AsyncFeiSystem's stop path
  /// wants — `request_stop` cancels in-flight work *at* the stop time.  Use
  /// reset() to also rewind the clock for a fresh, unrelated simulation.
  void clear();

  /// Clears pending events AND rewinds the clock to zero (also resetting
  /// the FIFO tie-break counter), returning the queue to its
  /// freshly-constructed state.  clear() alone leaves `now()` at the last
  /// processed timestamp, which silently time-shifts a reused queue.
  void reset();

  /// Pre-sizes the backing store so a warmed-up queue schedules and runs
  /// without growing the heap vector.
  void reserve(std::size_t events) { heap_.reserve(events); }

 private:
  struct Event {
    Seconds at{0.0};
    std::uint64_t seq = 0;  // tie-break: FIFO among equal times
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at.value() != b.at.value()) return a.at.value() > b.at.value();
      return a.seq > b.seq;
    }
  };

  // A plain vector managed with std::push_heap/pop_heap instead of
  // std::priority_queue: pop_heap moves the earliest event to the back,
  // where its handler can be moved out without copying the std::function
  // (priority_queue::top() is const, forcing a heap-allocating copy).
  std::vector<Event> heap_;
  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace eefei::sim
