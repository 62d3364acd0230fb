// Streaming trace writers — the production emission path for run
// traces, simulator traces and registry snapshots (DESIGN.md §13).
//
// emit_run_trace / emit_window_metrics drive a JsonEmitter through the
// row's field schema (sim/window_schema.h, common/telemetry.h): the
// same key order, block conditions and number formatting as every other
// codec.  The emitter shares Json::dump's formatters, so a streamed
// document equals `Json::parse(streamed).dump(indent)` byte for byte —
// pinned by tests/test_trace_golden.cpp and the trace_io bench gate.
//
// SimTraceWriter is the incremental form: the simulators hand it one
// WindowMetrics at a time (via set_window_sink) and it flushes each
// window straight to disk, so a million-window run holds one window of
// trace text in memory instead of the whole horizon.  Its throughput
// counters land in telemetry::Registry::global() at finish().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.h"
#include "io/emit.h"
#include "sim/simulator.h"

namespace iaas {

// Shrink threshold for reusable emission scratch buffers: one oversized
// document must not pin its peak capacity for the owner's lifetime.
inline constexpr std::size_t kTraceScratchRetainBytes = 1u << 20;  // 1 MiB

// Release a scratch buffer's memory if it grew past the retain
// threshold (keeps the common small-trace capacity warm).
void shrink_scratch(std::string& scratch);

// {"label", "seed", "columns", "rows"} / one window object / a registry
// snapshot {"counters": {...}, "phase_seconds": {...}}.
void emit_run_trace(JsonEmitter& emitter, const telemetry::RunTrace& trace);
void emit_window_metrics(JsonEmitter& emitter, const WindowMetrics& row);
void emit_registry(JsonEmitter& emitter, const telemetry::Registry& registry);

// Buffered FILE* sink with common/csv failure rules: unopenable paths
// and write errors abort via IAAS_EXPECT instead of silently truncating
// a results file.
class JsonFileSink {
 public:
  explicit JsonFileSink(const std::string& path);
  ~JsonFileSink();
  JsonFileSink(const JsonFileSink&) = delete;
  JsonFileSink& operator=(const JsonFileSink&) = delete;

  void write(std::string_view chunk);
  void flush();  // fflush — makes partial traces visible mid-run
  void close();  // idempotent; checks the final flush

  [[nodiscard]] std::size_t bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t bytes_written_ = 0;
};

// Adds one trace writer's totals to the trace-IO counters of
// telemetry::Registry::global() (shared by the JSON and binary writers).
void flush_trace_counters(std::size_t windows, std::size_t bytes,
                          std::size_t peak_buffer_bytes);

// Incremental {"windows": [...]} writer.  append() emits one window and
// drains the buffer to disk; finish() closes the document (trailing
// newline included) and flushes the trace-IO telemetry counters.
class SimTraceWriter {
 public:
  explicit SimTraceWriter(const std::string& path, int indent = 2);
  ~SimTraceWriter();  // finishes if the caller forgot
  SimTraceWriter(const SimTraceWriter&) = delete;
  SimTraceWriter& operator=(const SimTraceWriter&) = delete;

  void append(const WindowMetrics& row);
  void finish();

  [[nodiscard]] std::size_t windows_written() const { return windows_; }
  [[nodiscard]] std::size_t bytes_written() const {
    return sink_.bytes_written();
  }
  // High-water mark of the in-memory emission buffer — O(one window)
  // by construction, independent of horizon length.
  [[nodiscard]] std::size_t peak_buffer_bytes() const {
    return emitter_.peak_buffer_bytes();
  }

 private:
  std::string buffer_;
  JsonFileSink sink_;
  JsonEmitter emitter_;
  std::size_t windows_ = 0;
  bool finished_ = false;
};

// The canonical trace-file text (pretty indent 2 + trailing newline) in
// memory — exactly the bytes the file writers below produce.
std::string sim_trace_json_text(const std::vector<WindowMetrics>& metrics);
std::string run_trace_json_text(const telemetry::RunTrace& trace);

// One-shot streaming writers (pretty indent 2 + trailing newline, the
// repo's canonical trace-file form); fail loudly (IAAS_EXPECT) on an
// unopenable path or a failed write, mirroring common/csv rules.
void write_sim_trace_json(const std::vector<WindowMetrics>& metrics,
                          const std::string& path);
void write_trace_json(const telemetry::RunTrace& trace,
                      const std::string& path);
void write_registry_json(const telemetry::Registry& registry,
                         const std::string& path);

}  // namespace iaas
