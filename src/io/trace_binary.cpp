#include "io/trace_binary.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/expect.h"
#include "common/schema.h"
#include "sim/window_schema.h"

namespace iaas {
namespace {

[[noreturn]] void parse_error(const std::string& what) {
  throw std::runtime_error("trace_binary: " + what);
}

constexpr std::uint8_t kRecordWindow = 0x01;
constexpr std::uint8_t kRecordEnd = 0x00;

// The flags byte of a record: which of its optional blocks the schema
// declares, and which are present (bit = BlockSpec::flag).
struct BlockFlags : NullVisitor {
  std::uint8_t declared = 0;
  std::uint8_t present = 0;
  template <class Body>
  void block(const BlockSpec& spec, bool is_present, Body&&) {
    declared = static_cast<std::uint8_t>(declared | spec.flag);
    present = static_cast<std::uint8_t>(present | (is_present ? spec.flag : 0));
  }
};

// Binary encoder over the field schema (common/schema.h).  A record
// whose schema declares optional blocks starts with their flags byte.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  void header(BinaryTraceKind kind) {
    out_.append(kBinaryTraceMagic, sizeof(kBinaryTraceMagic));
    little_endian(kBinaryTraceVersion, 4);
    u8(static_cast<std::uint8_t>(kind));
  }
  template <class T>
  void record(const T& row) {
    BlockFlags flags;
    visit_fields(flags, row);
    if (flags.declared != 0) {
      u8(flags.present);
    }
    visit_fields(*this, row);
  }
  void u8(std::uint8_t v) { out_ += static_cast<char>(v); }

  template <class T>
  void count(std::string_view, T v, Fp) { varint(v); }
  void real(std::string_view, double v, Fp) { f64(v); }
  void flag(std::string_view, bool v, Fp) { u8(v ? 1 : 0); }
  template <class E>
  void enumeration(std::string_view, E v, const EnumSpec<E>&, Fp) {
    u8(static_cast<std::uint8_t>(v));
  }
  void text(std::string_view, const std::string& v, Fp) {
    varint(v.size());
    out_ += v;
  }
  void vec3(std::string_view, const ObjectiveVector& v, Fp) {
    f64(v.usage_cost);
    f64(v.downtime_cost);
    f64(v.migration_cost);
  }
  template <class T>
  void list(std::string_view, const std::vector<T>& items, Fp) {
    varint(items.size());
    for (const T& item : items) {
      if constexpr (std::is_arithmetic_v<T>) {
        varint(item);
      } else {
        record(item);
      }
    }
  }
  // The column count pins the schema: a reader built against a
  // different row shape rejects the file instead of misaligning rows.
  template <class T>
  void table(std::string_view, std::string_view, const std::vector<T>& rows,
             Fp) {
    varint(column_count<T>());
    list({}, rows, Fp::kHash);
  }
  template <class Body>
  void block(const BlockSpec&, bool present, Body&& body) {
    if (present) {
      body(*this);
    }
  }

 private:
  // LEB128: integers are mostly small window counters.
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) {
      u8(static_cast<std::uint8_t>((v & 0x7F) | 0x80));
    }
    u8(static_cast<std::uint8_t>(v));
  }
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    little_endian(bits, 8);
  }
  void little_endian(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      u8(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string& out_;
};

// Decoder twin of BinaryWriter; malformed or truncated input throws.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  BinaryTraceKind header() {
    if (data_.substr(0, sizeof(kBinaryTraceMagic)) !=
        std::string_view(kBinaryTraceMagic, sizeof(kBinaryTraceMagic))) {
      parse_error("bad magic (not a binary trace file)");
    }
    pos_ = sizeof(kBinaryTraceMagic);
    const std::uint64_t version = little_endian(4);
    if (version != kBinaryTraceVersion) {
      parse_error("unsupported version " + std::to_string(version));
    }
    const std::uint8_t kind = u8();
    if (kind > static_cast<std::uint8_t>(BinaryTraceKind::kSimTrace)) {
      parse_error("unknown trace kind " + std::to_string(kind));
    }
    return static_cast<BinaryTraceKind>(kind);
  }
  template <class T>
  void record(T& row) {
    BlockFlags flags;
    visit_fields(flags, row);
    if (flags.declared != 0) {
      flags_ = u8();
      if ((flags_ & ~flags.declared) != 0) {
        parse_error("unknown window flags");
      }
    }
    visit_fields(*this, row);
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  template <class T>
  void count(std::string_view, T& v, Fp) { v = static_cast<T>(varint()); }
  void real(std::string_view, double& v, Fp) { v = f64(); }
  void flag(std::string_view, bool& v, Fp) { v = u8() != 0; }
  template <class E>
  void enumeration(std::string_view, E& v, const EnumSpec<E>& spec, Fp) {
    const std::uint8_t raw = u8();
    if (raw > static_cast<std::uint8_t>(spec.last)) {
      parse_error(std::string("unknown ") + spec.noun);
    }
    v = static_cast<E>(raw);
  }
  void text(std::string_view, std::string& v, Fp) {
    const std::uint64_t len = varint();
    need(len);
    v.assign(data_.substr(pos_, len));
    pos_ += len;
  }
  void vec3(std::string_view, ObjectiveVector& v, Fp) {
    v.usage_cost = f64();
    v.downtime_cost = f64();
    v.migration_cost = f64();
  }
  template <class T>
  void list(std::string_view, std::vector<T>& items, Fp) {
    const auto n = static_cast<std::size_t>(varint());
    items.reserve(std::min(n, data_.size() - pos_));  // >= 1 byte each
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (std::is_arithmetic_v<T>) {
        items.push_back(static_cast<T>(varint()));
      } else {
        record(items.emplace_back());
      }
    }
  }
  template <class T>
  void table(std::string_view, std::string_view, std::vector<T>& rows, Fp) {
    if (varint() != column_count<T>()) {
      parse_error("run-trace column count mismatch");
    }
    list({}, rows, Fp::kHash);
  }
  template <class Body>
  void block(const BlockSpec& spec, bool, Body&& body) {
    if ((flags_ & spec.flag) != 0) {
      body(*this);
    }
  }

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      parse_error("truncated input");
    }
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
    }
    parse_error("varint too long");
  }
  double f64() {
    const std::uint64_t bits = little_endian(8);
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  std::uint64_t little_endian(int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint8_t flags_ = 0;
};

// ------------------------------------------------------ whole files ---

std::string load_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    parse_error("cannot open " + path);
  }
  std::string data;
  char chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    data.append(chunk, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    parse_error("read error on " + path);
  }
  return data;
}

}  // namespace

bool is_binary_trace_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  char magic[sizeof(kBinaryTraceMagic)];
  const std::size_t got = std::fread(magic, 1, sizeof(magic), file);
  std::fclose(file);
  return got == sizeof(magic) &&
         std::memcmp(magic, kBinaryTraceMagic, sizeof(magic)) == 0;
}

BinaryTraceKind binary_trace_kind(const std::string& path) {
  const std::string data = load_file(path);
  return BinaryReader(data).header();
}

void write_binary_run_trace(const telemetry::RunTrace& trace,
                            const std::string& path) {
  std::string out;
  BinaryWriter writer(out);
  writer.header(BinaryTraceKind::kRunTrace);
  writer.record(trace);
  JsonFileSink sink(path);
  sink.write(out);
  sink.close();
}

telemetry::RunTrace read_binary_run_trace(const std::string& path) {
  const std::string data = load_file(path);
  BinaryReader in(data);
  if (in.header() != BinaryTraceKind::kRunTrace) {
    parse_error("not a run trace: " + path);
  }
  telemetry::RunTrace trace;
  in.record(trace);
  if (!in.at_end()) {
    parse_error("trailing bytes after run trace");
  }
  return trace;
}

void write_binary_sim_trace(const std::vector<WindowMetrics>& metrics,
                            const std::string& path) {
  BinaryTraceWriter writer(path);
  for (const WindowMetrics& row : metrics) {
    writer.append(row);
  }
  writer.finish();
}

std::vector<WindowMetrics> read_binary_sim_trace(const std::string& path) {
  const std::string data = load_file(path);
  BinaryReader in(data);
  if (in.header() != BinaryTraceKind::kSimTrace) {
    parse_error("not a sim trace: " + path);
  }
  std::vector<WindowMetrics> metrics;
  for (;;) {
    const std::uint8_t tag = in.u8();
    if (tag == kRecordEnd) {
      break;
    }
    if (tag != kRecordWindow) {
      parse_error("unknown record tag");
    }
    in.record(metrics.emplace_back());
  }
  if (!in.at_end()) {
    parse_error("trailing bytes after end marker");
  }
  return metrics;
}

BinaryTraceWriter::BinaryTraceWriter(const std::string& path)
    : sink_(path) {
  BinaryWriter(buffer_).header(BinaryTraceKind::kSimTrace);
  sink_.write(buffer_);
  buffer_.clear();
}

BinaryTraceWriter::~BinaryTraceWriter() {
  if (!finished_) {
    finish();
  }
}

void BinaryTraceWriter::append(const WindowMetrics& row) {
  IAAS_EXPECT(!finished_, "trace_binary: append after finish");
  BinaryWriter writer(buffer_);
  writer.u8(kRecordWindow);
  writer.record(row);
  peak_ = buffer_.size() > peak_ ? buffer_.size() : peak_;
  sink_.write(buffer_);
  buffer_.clear();
  sink_.flush();
  ++windows_;
}

void BinaryTraceWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  buffer_ += static_cast<char>(kRecordEnd);
  sink_.write(buffer_);
  buffer_.clear();
  sink_.close();
  flush_trace_counters(windows_, sink_.bytes_written(), peak_);
}

}  // namespace iaas
