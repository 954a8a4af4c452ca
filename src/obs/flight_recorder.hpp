// Flight recorder (ISSUE 8 tentpole): dumps a postmortem diagnostic
// bundle — the last-N wall-clock trace events as validated Chrome JSON,
// the full metrics snapshot, and any registered provider documents
// (health verdicts, serve metrics) — to a directory, on demand or when
// an SLO starts firing.
//
// Bundle layout (one directory per dump, pruned to max_bundles):
//
//   <directory>/bundle_<seq>_<reason>/
//     MANIFEST.txt     reason, sequence, wall time, trace event counts,
//                      file list
//     trace.json       last max_events of obs::global_trace(), Chrome
//                      trace-event format (passes validate_chrome_trace)
//     metrics.prom     obs::registry().to_prometheus() snapshot
//     build.txt        compiler / platform / build-mode provenance
//     <provider files> e.g. health.txt, serve_metrics.prom
//
// Lost events are reported, not hidden: MANIFEST's `trace_dropped: N`
// and trace.json's "dropped_events" marker both count the events the
// ring recorded that the bundle lacks (overwritten by the ring, trimmed
// to max_events, or mid-write during the snapshot).
//
// Concurrency: dump() is serialized by a mutex and does not stop
// recording. Traffic may keep recording while it runs: the ring's
// seqlocked snapshot() returns only whole events. To freeze the ring
// first, turn the trace hooks off with obs::set_enabled(false).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace mirage::obs {

struct FlightRecorderConfig {
  std::string directory = "flight";  ///< bundles land under this directory
  std::size_t max_events = 4096;     ///< last-N trace events per bundle
  std::size_t max_bundles = 8;       ///< oldest bundles pruned past this
};

class FlightRecorder {
 public:
  /// Produces one bundle file's contents on demand at dump() time.
  using Provider = std::function<std::string()>;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void configure(FlightRecorderConfig config);
  FlightRecorderConfig config() const;

  /// Attach/detach a named document source (e.g. the serve tier registers
  /// "health.txt" -> health_text()). A provider that throws contributes
  /// an error note instead of killing the dump.
  void register_provider(const std::string& filename, Provider provider);
  void unregister_provider(const std::string& filename);

  /// Write one bundle now; returns its directory path ("" when the
  /// filesystem refused). `reason` is sanitized into the directory name.
  std::string dump(const std::string& reason);

  std::uint64_t dumps() const;

  /// Validate a dumped bundle: MANIFEST.txt present with its reason and
  /// trace_dropped lines, trace.json passes validate_chrome_trace,
  /// metrics.prom passes lint_prometheus_exposition, build.txt non-empty.
  static bool validate_bundle(const std::string& bundle_dir, std::string* error = nullptr);

 private:
  void prune_locked();

  mutable std::mutex mutex_;
  FlightRecorderConfig config_;
  std::map<std::string, Provider> providers_;
  std::uint64_t seq_ = 0;
  std::uint64_t dumps_ = 0;
};

/// Process-wide recorder (the SLO fire hook uses it).
FlightRecorder& flight_recorder();

}  // namespace mirage::obs
