// Typed fleet events: the POD payload the event-driven fleet engine
// schedules on its calendar queue.
//
// Every event is a kind, one or two integer ids and three Seconds frozen at
// schedule time — 40 trivially-copyable bytes, so scheduling never
// allocates.  The engine dispatches through one switch over `kind` and
// reads everything else (the ledger, the FCFS chain, tier tables) from its
// round state at fire time.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace eefei::sim {

enum class FleetEventKind : std::uint32_t {
  // Tier completion chain.
  kRootDone = 0,  // at = aggregation done time
  kRegionDone,    // a = region id
  kGatewayDone,   // a = gateway id
  kHopArrival,    // a = graph node, b = server id (multi-hop backhaul)

  // Per-server round chain: a = server id, t0 = phase start, t1 = time the
  // phase ran (air time for a transfer), t2 = retransmitted share of t1.
  kDownloadDone,  // b = update index; books reception
  kEpochDone,     // b = update index; books training, runs the upload leg
  kUploadDone,    // b = update index; books transmission, resolves the tier
  kDropped,       // b = drop_code(); books t1 as kAborted if a phase ran,
                  // then resolves the tier without an upload
};

/// Why a selected server resolves its gateway without uploading.
enum class DropReason : std::uint32_t {
  kServerDown = 0,  // down (rebooting) at round start
  kDeadline,        // the round deadline pre-empted or cut a phase
  kLost,            // a transfer exhausted its attempts
  kCrash,           // crashed mid-training
};

/// kDropped's `b`: the reason in the high bits, the interrupted phase's
/// energy::EdgeState in the low byte.
[[nodiscard]] constexpr std::uint32_t drop_code(DropReason reason,
                                                std::uint32_t state) {
  return (static_cast<std::uint32_t>(reason) << 8) | state;
}

struct FleetEvent {
  FleetEventKind kind = FleetEventKind::kRootDone;
  /// Primary id: server, gateway, region or graph node, depending on
  /// `kind`.  32 bits bound the fleet at 2^32 servers — two
  /// thousand times the engine's N = 1M design point — and keep the event
  /// at 40 bytes.
  std::uint32_t a = 0;
  /// Secondary id or code, depending on `kind`.
  std::uint32_t b = 0;
  Seconds t0{0.0};
  Seconds t1{0.0};
  Seconds t2{0.0};
};

static_assert(sizeof(FleetEvent) <= 40);

}  // namespace eefei::sim
