#include "sim/edge_server_sim.h"

#include <cassert>

#include "obs/telemetry.h"

namespace eefei::sim {

void EdgeServerSim::run_phase(energy::EdgeState state, Seconds start,
                              Seconds duration) {
  const Seconds end = timeline_.total_duration();
  assert(start.value() + 1e-12 >= end.value() &&
         "phase starts before the previous one ended");
  if (start > end) {
    timeline_.push(energy::EdgeState::kWaiting, start - end);
  }
  timeline_.push(state, duration);
  // One sim-time span per timeline segment on this server's track, so the
  // exported trace renders the Fig. 3 state machine: waiting gaps appear as
  // explicit "waiting" spans between download/train/upload.
  if (obs::Tracer* tr = obs::tracer()) {
    const std::int32_t pid = obs::Tracer::server_pid(id_);
    if (start > end) {
      tr->sim_span(energy::to_string(energy::EdgeState::kWaiting), "sim.phase",
                   pid, end, start - end);
    }
    tr->sim_span(energy::to_string(state), "sim.phase", pid, start, duration);
  }
}

void EdgeServerSim::idle_until(Seconds until) {
  const Seconds end = timeline_.total_duration();
  if (until > end) {
    timeline_.push(energy::EdgeState::kWaiting, until - end);
    if (obs::Tracer* tr = obs::tracer()) {
      tr->sim_span(energy::to_string(energy::EdgeState::kWaiting), "sim.phase",
                   obs::Tracer::server_pid(id_), end, until - end);
    }
  }
}

}  // namespace eefei::sim
