#include "obs/trace_export.h"

#include <fstream>
#include <sstream>

#include "obs/build_info.h"
#include "obs/json.h"

namespace eefei::obs {

namespace {

void append_args(std::ostringstream& out, const TraceEvent& e) {
  out << ", \"args\": {";
  bool first = true;
  for (std::uint8_t a = 0; a < e.n_args; ++a) {
    if (!first) out << ", ";
    first = false;
    out << json_quote(e.args[a].key) << ": " << json_number(e.args[a].value);
  }
  if (e.str_key != nullptr) {
    if (!first) out << ", ";
    out << json_quote(e.str_key) << ": " << json_quote(e.str_value);
  }
  out << "}";
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer,
                              const TraceExportOptions& options) {
  std::ostringstream out;
  out << "{\"schema_version\": " << kTelemetrySchemaVersion
      << ", \"displayTimeUnit\": \"ms\",\n"
      << " \"otherData\": {\"git_sha\": " << json_quote(git_sha())
      << ", \"build_type\": " << json_quote(build_type()) << "},\n"
      << " \"traceEvents\": [";

  bool first = true;
  const auto emit_sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };

  // Track metadata first, pid-sorted: one pseudo-process per sim track.
  for (const auto& [pid, name] : tracer.track_names()) {
    if (!options.include_wall && pid == Tracer::kHostPid) continue;
    emit_sep();
    out << "  {\"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": "
        << json_quote(name) << "}}";
  }

  for (const TraceEvent& e : tracer.events()) {
    if (!options.include_wall && e.clock == Clock::kWall) continue;
    emit_sep();
    out << "  {\"ph\": \"" << e.ph << "\", \"pid\": " << e.pid
        << ", \"tid\": " << e.tid << ", \"name\": " << json_quote(e.name)
        << ", \"cat\": " << json_quote(e.cat)
        << ", \"ts\": " << json_number(e.ts_us);
    if (e.ph == 'X') out << ", \"dur\": " << json_number(e.dur_us);
    if (e.ph == 'i') out << ", \"s\": \"t\"";  // thread-scoped instant
    if (e.n_args > 0 || e.str_key != nullptr) append_args(out, e);
    out << "}";
  }

  out << "\n]}\n";
  return out.str();
}

Status write_chrome_trace(const Tracer& tracer, const std::string& path,
                          const TraceExportOptions& options) {
  std::ofstream file(path);
  if (!file) return Error::io_error("trace export: cannot open " + path);
  file << chrome_trace_json(tracer, options);
  if (!file) return Error::io_error("trace export: write failed: " + path);
  return Status::success();
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"schema_version\": " << kTelemetrySchemaVersion
      << ", \"kind\": \"metrics\", \"git_sha\": " << json_quote(git_sha())
      << ",\n \"counters\": [";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": "
        << json_quote(snapshot.counters[i].first)
        << ", \"value\": " << json_number(snapshot.counters[i].second) << "}";
  }
  out << "\n ],\n \"gauges\": [";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": "
        << json_quote(snapshot.gauges[i].first)
        << ", \"value\": " << json_number(snapshot.gauges[i].second) << "}";
  }
  out << "\n ],\n \"sketches\": [";
  for (std::size_t i = 0; i < snapshot.sketches.size(); ++i) {
    const SketchSnapshot& s = snapshot.sketches[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": " << json_quote(s.name)
        << ", \"relative_accuracy\": " << json_number(s.relative_accuracy)
        << ", \"gamma\": " << json_number(s.gamma)
        << ", \"count\": " << s.count << ", \"zero_count\": " << s.zero_count
        << ", \"sum\": " << json_number(s.sum)
        << ", \"min\": " << json_number(s.min)
        << ", \"max\": " << json_number(s.max)
        << ", \"first_index\": " << s.first_index;
    if (s.count > 0) {
      out << ", \"quantiles\": {\"p50\": " << json_number(s.quantile(0.50))
          << ", \"p90\": " << json_number(s.quantile(0.90))
          << ", \"p95\": " << json_number(s.quantile(0.95))
          << ", \"p99\": " << json_number(s.quantile(0.99))
          << ", \"p999\": " << json_number(s.quantile(0.999)) << "}";
    }
    out << ", \"buckets\": [";
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << s.buckets[b];
    }
    out << "]}";
  }
  out << "\n ]}\n";
  return out.str();
}

Status write_metrics_json(const MetricsSnapshot& snapshot,
                          const std::string& path) {
  std::ofstream file(path);
  if (!file) return Error::io_error("metrics export: cannot open " + path);
  file << metrics_json(snapshot);
  if (!file) return Error::io_error("metrics export: write failed: " + path);
  return Status::success();
}

}  // namespace eefei::obs
