// Network topology of the FEI system: N edge servers, each with a fleet of
// IoT devices, all connected to one coordinator through a shared WiFi LAN
// (Fig. 1 / Fig. 2 of the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/iot_device.h"

namespace eefei::net {

struct TopologyConfig {
  std::size_t num_edge_servers = 20;  // the prototype's N
  std::size_t devices_per_edge = 8;
  IotDeviceConfig device;
  WifiLanConfig lan;
  /// Fault injection on the edge↔coordinator LAN: per-attempt loss and
  /// outage windows with retransmission + exponential backoff (all off by
  /// default).  Consumed by the simulation layer, which charges failed
  /// attempts to EnergyCategory::kRetry/kAborted.
  LinkFaultConfig link_faults;
  std::uint64_t seed = 7;

  /// Validates the three channel/fault configs in one place; every
  /// simulation entry point (Population::build) calls this so degenerate
  /// configs are rejected before they silently skew results.
  [[nodiscard]] Status validate() const;
};

class Topology {
 public:
  explicit Topology(TopologyConfig config);

  [[nodiscard]] std::size_t num_edge_servers() const {
    return fleets_.size();
  }
  [[nodiscard]] DeviceFleet& fleet(std::size_t edge) {
    return fleets_.at(edge);
  }
  [[nodiscard]] const DeviceFleet& fleet(std::size_t edge) const {
    return fleets_.at(edge);
  }
  /// The edge↔coordinator LAN link of edge server `edge`.
  [[nodiscard]] WifiLan& lan(std::size_t edge) { return lans_.at(edge); }

  [[nodiscard]] const TopologyConfig& config() const { return config_; }

 private:
  TopologyConfig config_;
  std::vector<DeviceFleet> fleets_;
  std::vector<WifiLan> lans_;
};

}  // namespace eefei::net
