// Typed fleet events: the POD payload the event-driven fleet engine
// schedules instead of capturing lambdas.
//
// The closure-based sim::EventQueue boxes every handler into a
// std::function — a heap allocation whenever the capture list outgrows the
// small-buffer slot, plus an indirect call per dispatch.  The fleet engine's
// handlers all follow the same shape: a kind (download-done, epoch-done,
// upload-done, a tier completion, a hop arrival, a fault outcome), one or
// two integer ids (server / gateway / graph node / update index) and a few
// Seconds that were frozen at schedule time.  FleetEvent stores exactly
// that — 40 trivially-copyable bytes — and the engine dispatches through
// one switch over `kind`, reading everything else from its per-round state.
//
// Everything a handler used to capture by reference (the ledger, the FCFS
// lan_free chain, telemetry handles, tier completion tables) lives on the
// engine's round state and is read AT FIRE TIME, exactly as the reference
// closures did; values the closures captured by value ride in t0/t1/t2.
// The mapping per kind is documented next to the engine's switch
// (event_fleet.cpp).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace eefei::sim {

enum class FleetEventKind : std::uint32_t {
  // Tier completion chain (all round paths).
  kRootDone = 0,     // at = aggregation done time
  kRegionDone,       // a = region id
  kGatewayDone,      // a = gateway id
  kHopArrival,       // a = graph node, b = server id (multi-hop backhaul)

  // Fault-free shared-LAN / CSMA observer.
  kDownloadDone,     // a = sid, t0 = download_start, t1 = d, t2 = dw
  kEpochDone,        // a = sid, t0 = train_start, t1 = t
  kUploadDone,       // a = sid, t0 = upload_start, t1 = u, t2 = uw

  // Fault path (crashes, deadlines, lossy links).
  kFaultServerDown,    // a = sid; fires at round start
  kFaultDeadlineDrop,  // a = sid; fires at the deadline, trace + resolve
  kFaultDownloadCut,   // a = sid, t0 = download_start, t1 = cut air time
  kFaultDownloadLost,  // a = sid, t0 = download_start, t1 = air time
  kFaultDownloadDone,  // a = sid, t0 = download_start, t1 = wasted, t2 = air
  kFaultTrainCrash,    // a = sid, t0 = train_start; fires at the crash
  kFaultTrainDeadline, // a = sid, t0 = train_start; fires at the deadline
  kFaultEpochDone,     // a = sid, b = update index, t0 = train_start, t1 = t
  kFaultUploadCut,     // a = sid, t0 = upload_start, t1 = cut air time
  kFaultUploadLost,    // a = sid, t0 = upload_start, t1 = air time
  kFaultUploadDone,    // a = sid, t0 = upload_start, t1 = wasted, t2 = air
};

struct FleetEvent {
  FleetEventKind kind = FleetEventKind::kRootDone;
  /// Primary id: server, gateway, region or graph node, depending on
  /// `kind`.  32 bits bound the fleet at 2^32 servers — two
  /// thousand times the engine's N = 1M design point — and keep the event
  /// at 40 bytes.
  std::uint32_t a = 0;
  /// Secondary id (hop arrivals: server; fault epoch-done: update index).
  std::uint32_t b = 0;
  /// Values the reference closures captured by value (durations and phase
  /// start times frozen at schedule time).
  Seconds t0{0.0};
  Seconds t1{0.0};
  Seconds t2{0.0};
};

static_assert(sizeof(FleetEvent) <= 40);

}  // namespace eefei::sim
