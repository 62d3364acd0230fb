// Compact binary trace format (DESIGN.md §13) — the disk-efficient twin
// of the JSON trace files, for million-window runs where pretty JSON is
// ~10× the bytes and most of the emission time.
//
// Layout (all little-endian):
//   magic   8 bytes  "IAASTRCB"
//   version u32      format version (currently 1)
//   kind    u8       0 = RunTrace, 1 = SimTrace
//   payload          the row's field schema in order (sim/window_schema.h,
//                    common/telemetry.h)
//
// Integers are LEB128 varints (window counters are mostly small);
// doubles are raw IEEE-754 bit patterns (8 bytes LE), so every value —
// including negative zero and 17-digit mantissas — round-trips
// bit-exactly.  A SimTrace payload is a stream of tagged window records
// (0x01 ... record, 0x00 end), so the writer never needs the window
// count up front and a truncated file is detected by the missing end
// marker.  Each window record starts with a flags byte gating its
// optional blocks under the schema's presence predicates — the same
// ones the JSON writer uses — so binary -> JSON conversion reproduces
// the JSON file byte-for-byte.
//
// Malformed or truncated input throws std::runtime_error (parse-error
// contract, like Json::parse); I/O failures abort via IAAS_EXPECT
// (fail-loud writer contract, like common/csv).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"

namespace iaas {

inline constexpr char kBinaryTraceMagic[8] = {'I', 'A', 'A', 'S',
                                              'T', 'R', 'C', 'B'};
inline constexpr std::uint32_t kBinaryTraceVersion = 1;

enum class BinaryTraceKind : std::uint8_t { kRunTrace = 0, kSimTrace = 1 };

// Magic sniff: true iff the file starts with the binary trace magic.
// Missing/short files simply return false.
bool is_binary_trace_file(const std::string& path);

// Header read (magic + version validated); throws on a non-binary file.
BinaryTraceKind binary_trace_kind(const std::string& path);

void write_binary_run_trace(const telemetry::RunTrace& trace,
                            const std::string& path);
telemetry::RunTrace read_binary_run_trace(const std::string& path);

void write_binary_sim_trace(const std::vector<WindowMetrics>& metrics,
                            const std::string& path);
std::vector<WindowMetrics> read_binary_sim_trace(const std::string& path);

// Streaming SimTrace writer: header up front, one tagged record drained
// to disk per append, end marker at finish.  Mirrors SimTraceWriter and
// flushes the same trace-IO telemetry counters at finish().
class BinaryTraceWriter {
 public:
  explicit BinaryTraceWriter(const std::string& path);
  ~BinaryTraceWriter();  // finishes if the caller forgot
  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void append(const WindowMetrics& row);
  void finish();

  [[nodiscard]] std::size_t windows_written() const { return windows_; }
  [[nodiscard]] std::size_t bytes_written() const {
    return sink_.bytes_written();
  }
  [[nodiscard]] std::size_t peak_buffer_bytes() const { return peak_; }

 private:
  std::string buffer_;
  JsonFileSink sink_;  // generic fail-loud byte sink despite the name
  std::size_t windows_ = 0;
  std::size_t peak_ = 0;
  bool finished_ = false;
};

}  // namespace iaas
