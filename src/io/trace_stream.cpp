#include "io/trace_stream.h"

#include <type_traits>
#include <vector>

#include "common/expect.h"
#include "common/schema.h"
#include "sim/window_schema.h"

namespace iaas {

void shrink_scratch(std::string& scratch) {
  if (scratch.capacity() > kTraceScratchRetainBytes) {
    scratch.clear();
    scratch.shrink_to_fit();
  }
}

// ------------------------------------------------------ emitters ------

namespace {

// JSON writer over the field schema (common/schema.h).  Inside a table
// row the fields are positional: values only, no keys.
class JsonWriter {
 public:
  explicit JsonWriter(JsonEmitter& e) : e_(e) {}

  template <class T>
  void object(const T& row) {
    e_.begin_object();
    visit_fields(*this, row);
    e_.end_object();
  }

  template <class T>
  void count(std::string_view k, T v, Fp) {
    scalar(k, static_cast<std::uint64_t>(v));
  }
  void real(std::string_view k, double v, Fp) { scalar(k, v); }
  void flag(std::string_view k, bool v, Fp) { scalar(k, v); }
  template <class E>
  void enumeration(std::string_view k, E v, const EnumSpec<E>& spec, Fp) {
    scalar(k, spec.name(v));
  }
  void text(std::string_view k, const std::string& v, Fp) {
    scalar(k, std::string_view(v));
  }
  void vec3(std::string_view k, const ObjectiveVector& v, Fp) {
    key(k);
    e_.begin_array();
    e_.value(v.usage_cost);
    e_.value(v.downtime_cost);
    e_.value(v.migration_cost);
    e_.end_array();
  }
  template <class T>
  void list(std::string_view k, const std::vector<T>& items, Fp) {
    key(k);
    e_.begin_array();
    for (const T& item : items) {
      if constexpr (std::is_arithmetic_v<T>) {
        e_.value(static_cast<std::uint64_t>(item));
      } else {
        object(item);
      }
    }
    e_.end_array();
  }
  template <class T>
  void table(std::string_view columns_key, std::string_view rows_key,
             const std::vector<T>& rows, Fp) {
    key(columns_key);
    e_.begin_array();
    for_each_column<T>([this](std::string_view name) { e_.value(name); });
    e_.end_array();
    key(rows_key);
    e_.begin_array();
    for (const T& row : rows) {
      e_.begin_array();
      positional_ = true;
      visit_fields(*this, row);
      positional_ = false;
      e_.end_array();
    }
    e_.end_array();
  }
  template <class Body>
  void block(const BlockSpec& spec, bool present, Body&& body) {
    if (!present) {
      return;
    }
    if (!spec.nested) {
      body(*this);
      return;
    }
    e_.key(spec.key);
    e_.begin_object();
    body(*this);
    e_.end_object();
  }

 private:
  void key(std::string_view k) {
    if (!positional_) {
      e_.key(k);
    }
  }
  template <class T>
  void scalar(std::string_view k, T v) {
    key(k);
    e_.value(v);
  }

  JsonEmitter& e_;
  bool positional_ = false;
};

}  // namespace

void emit_run_trace(JsonEmitter& e, const telemetry::RunTrace& trace) {
  JsonWriter(e).object(trace);
}

void emit_window_metrics(JsonEmitter& e, const WindowMetrics& row) {
  JsonWriter(e).object(row);
}

void emit_registry(JsonEmitter& e, const telemetry::Registry& registry) {
  e.begin_object();
  e.key("counters");
  e.begin_object();
  const telemetry::CounterBlock block = registry.counters();
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    const auto c = static_cast<telemetry::Counter>(i);
    e.key(telemetry::counter_name(c));
    e.value(block[c]);
  }
  e.end_object();
  e.key("phase_seconds");
  e.begin_object();
  const auto seconds = registry.phase_seconds();
  for (std::size_t i = 0; i < telemetry::kPhaseCount; ++i) {
    const auto p = static_cast<telemetry::Phase>(i);
    e.key(telemetry::phase_name(p));
    e.value(seconds[i]);
  }
  e.end_object();
  e.end_object();
}

// -------------------------------------------------------- file sink ---

JsonFileSink::JsonFileSink(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  IAAS_EXPECT(file_ != nullptr,
              ("trace_stream: cannot open " + path).c_str());
}

JsonFileSink::~JsonFileSink() { close(); }

void JsonFileSink::write(std::string_view chunk) {
  if (chunk.empty()) {
    return;
  }
  IAAS_EXPECT(file_ != nullptr, "trace_stream: write after close");
  const std::size_t written =
      std::fwrite(chunk.data(), 1, chunk.size(), file_);
  IAAS_EXPECT(written == chunk.size(),
              ("trace_stream: write error on " + path_).c_str());
  bytes_written_ += written;
}

void JsonFileSink::flush() {
  if (file_ != nullptr) {
    IAAS_EXPECT(std::fflush(file_) == 0,
                ("trace_stream: flush error on " + path_).c_str());
  }
}

void JsonFileSink::close() {
  if (file_ == nullptr) {
    return;
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  IAAS_EXPECT(rc == 0, ("trace_stream: close error on " + path_).c_str());
}

// ------------------------------------------------- SimTraceWriter -----

SimTraceWriter::SimTraceWriter(const std::string& path, int indent)
    : sink_(path), emitter_(buffer_, indent) {
  emitter_.begin_object();
  emitter_.key("windows");
  emitter_.begin_array();
  sink_.write(buffer_);
  buffer_.clear();
}

SimTraceWriter::~SimTraceWriter() {
  if (!finished_) {
    finish();
  }
}

void SimTraceWriter::append(const WindowMetrics& row) {
  IAAS_EXPECT(!finished_, "trace_stream: append after finish");
  emit_window_metrics(emitter_, row);
  sink_.write(buffer_);
  buffer_.clear();
  sink_.flush();  // window visible on disk before the next one starts
  ++windows_;
}

void SimTraceWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  emitter_.end_array();
  emitter_.end_object();
  buffer_ += '\n';
  sink_.write(buffer_);
  buffer_.clear();
  sink_.close();
  flush_trace_counters(windows_, sink_.bytes_written(),
                       emitter_.peak_buffer_bytes());
}

void flush_trace_counters(std::size_t windows, std::size_t bytes,
                          std::size_t peak_buffer_bytes) {
  // Emission happens outside the sim loop (no thread-local sink), so the
  // counters go straight to the global registry.  PeakBuffer merges
  // additively like every counter: with one writer per run it reads as
  // the high-water mark; with several it bounds their sum.
  telemetry::CounterBlock block;
  block[telemetry::Counter::kTraceWindowsStreamed] = windows;
  block[telemetry::Counter::kTraceBytesStreamed] = bytes;
  block[telemetry::Counter::kTracePeakBufferBytes] = peak_buffer_bytes;
  telemetry::Registry::global().flush_counters(block);
}

// ------------------------------------------------ one-shot writers ----

namespace {

// Appends the canonical trace-file text to `out`: one pretty (indent 2)
// document plus a trailing newline.
template <class Emit>
void append_document(std::string& out, const Emit& emit) {
  JsonEmitter emitter(out, 2);
  emit(emitter);
  out += '\n';
}

// Writes one document through a reusable per-thread scratch buffer,
// shrunk back after an oversized document so one huge run cannot pin
// its capacity.
template <class Emit>
void write_document(const std::string& path, const Emit& emit) {
  static thread_local std::string scratch;
  scratch.clear();
  append_document(scratch, emit);
  JsonFileSink sink(path);
  sink.write(scratch);
  sink.close();
  shrink_scratch(scratch);
}

}  // namespace

std::string sim_trace_json_text(const std::vector<WindowMetrics>& metrics) {
  std::string out;
  append_document(out, [&](JsonEmitter& e) {
    e.begin_object();
    JsonWriter(e).list("windows", metrics, Fp::kHash);
    e.end_object();
  });
  return out;
}

std::string run_trace_json_text(const telemetry::RunTrace& trace) {
  std::string out;
  append_document(out, [&](JsonEmitter& e) { emit_run_trace(e, trace); });
  return out;
}

void write_sim_trace_json(const std::vector<WindowMetrics>& metrics,
                          const std::string& path) {
  SimTraceWriter writer(path);
  for (const WindowMetrics& row : metrics) {
    writer.append(row);
  }
  writer.finish();
}

void write_trace_json(const telemetry::RunTrace& trace,
                      const std::string& path) {
  write_document(path, [&](JsonEmitter& e) { emit_run_trace(e, trace); });
}

void write_registry_json(const telemetry::Registry& registry,
                         const std::string& path) {
  write_document(path, [&](JsonEmitter& e) { emit_registry(e, registry); });
}

}  // namespace iaas
