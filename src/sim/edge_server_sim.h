// Edge-server hardware simulation: the Raspberry-Pi stand-in.  It owns the
// server's power-state timeline and exposes phase transitions; waiting gaps
// between phases are filled automatically, exactly like the idle stretches
// visible in the paper's Fig. 3 trace.
#pragma once

#include <cstddef>

#include "common/units.h"
#include "energy/ledger.h"
#include "energy/power_model.h"
#include "energy/timeline.h"

namespace eefei::sim {

class EdgeServerSim {
 public:
  EdgeServerSim(std::size_t id, energy::DevicePowerProfile profile)
      : id_(id), timeline_(profile) {}

  /// Records a phase [start, start+duration) in `state`.  Any gap since the
  /// previous phase is recorded as Waiting.  `start` must not precede the
  /// end of the previous phase.
  void run_phase(energy::EdgeState state, Seconds start, Seconds duration);

  /// Extends the timeline with Waiting up to `until` (round barrier).
  void idle_until(Seconds until);

  [[nodiscard]] std::size_t id() const { return id_; }

  [[nodiscard]] Seconds busy_until() const {
    return timeline_.total_duration();
  }
  [[nodiscard]] const energy::PowerStateTimeline& timeline() const {
    return timeline_;
  }

  /// Energy of one state so far (exact integral, no meter quantization).
  [[nodiscard]] Joules energy_in(energy::EdgeState state) const {
    return timeline_.energy_in_state(state);
  }
  [[nodiscard]] Joules total_energy() const {
    return timeline_.total_energy();
  }

 private:
  std::size_t id_;
  energy::PowerStateTimeline timeline_;
};

}  // namespace eefei::sim
