// Exporters: Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and a metrics snapshot dump.
//
// Trace layout: pid 0 is the coordinator track, pids 1..N are the simulated
// edge servers (one pseudo-process each, so the Fig. 3 Waiting → Download →
// Train → Upload state machine shows as one lane per server), and pid 9999
// carries host-side wall-clock work with one tid per recording thread.
// Timestamps are microseconds: simulated seconds × 1e6 on sim tracks, time
// since tracer birth on the host track.
//
// Events are written one per line so the schema checker
// (tools/trace_check.py) and grep both work; the whole file is still a
// single valid JSON document.
#pragma once

#include <string>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace eefei::obs {

/// Schema version stamped into every exported artifact (trace, metrics
/// dump, manifest, BENCH json) and enforced by tools/trace_check.py.
inline constexpr int kTelemetrySchemaVersion = 1;

struct TraceExportOptions {
  /// Drop wall-clock events (host track + every Clock::kWall record).
  /// Sim-time events are deterministic per seed; wall ones are not — the
  /// determinism tests compare exports with include_wall = false.
  bool include_wall = true;
};

/// The full Chrome trace-event document for `tracer`'s recorded events.
[[nodiscard]] std::string chrome_trace_json(const Tracer& tracer,
                                            const TraceExportOptions& options =
                                                {});

/// Writes chrome_trace_json() to `path`.
[[nodiscard]] Status write_chrome_trace(const Tracer& tracer,
                                        const std::string& path,
                                        const TraceExportOptions& options =
                                            {});

/// JSON dump of a metrics snapshot (counters, gauges, sketches).
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snapshot);

[[nodiscard]] Status write_metrics_json(const MetricsSnapshot& snapshot,
                                        const std::string& path);

}  // namespace eefei::obs
