// Field-schema vocabulary for trace rows (DESIGN.md §13).
//
// Each trace row struct (WindowMetrics and its nested blocks in
// sim/window_schema.h, telemetry::GenerationRow and RunTrace in
// common/telemetry.h) lists its fields exactly once, in one
// `visit_fields(visitor, row)` template.  Every codec — the fingerprint,
// the streaming JSON emitter, the JSON reader, the binary encoder and
// decoder, the CSV columns — is a visitor over that list, resolved at
// compile time: no per-field heap allocation, std::function or virtual
// call.  A visitor provides these members (row may be const for writers,
// mutable for readers):
//
//   count(key, unsigned&, Fp)           JSON integer lexeme, binary varint
//   real(key, double&, Fp)              JSON number, binary raw IEEE bits
//   flag(key, bool&, Fp)                JSON bool, binary u8
//   enumeration(key, E&, EnumSpec, Fp)  JSON by name, binary u8
//   text(key, std::string&, Fp)         JSON string, binary varint + bytes
//   vec3(key, ObjectiveVector&, Fp)     JSON 3-array, binary 3 doubles
//   list(key, std::vector<T>&, Fp)      JSON array of objects/integers,
//                                       binary varint count + elements
//   table(columns_key, rows_key, std::vector<T>&, Fp)
//                                       JSON column names + positional
//                                       row arrays, binary column count +
//                                       row count + rows
//   block(BlockSpec, present, body)     optional group of fields; body is
//                                       a generic lambda taking the
//                                       visitor to use inside the block
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace iaas {

// Whether (and how) the deterministic fingerprint hashes a field.
enum class Fp : std::uint8_t {
  kSkip,       // never hashed: wall clock, labels, telemetry-only counters
  kHash,       // always hashed, also while its block is absent
  kIfPresent,  // hashed only while its enclosing block is present
  kNoSize,     // lists only: elements hashed, the element count is not
};

// JSON spelling and valid range of an enum field.
template <class E>
struct EnumSpec {
  const char* noun;          // "degrade level": names it in parse errors
  const char* (*name)(E);    // JSON spelling of each enumerator
  E last;                    // largest valid enumerator (u8 range check)
};

// An optional group of fields.  Absent blocks are omitted from both the
// JSON (so legacy traces keep their exact shape) and the binary record
// (gated by `flag` in the record's flags byte).
struct BlockSpec {
  std::string_view key;  // JSON object key; for an inline block the key
                         // of its first field, whose presence marks it
  std::uint8_t flag;     // binary flags-byte bit
  bool nested;           // true: {key: {...}}; false: fields inline
};

// `R` is the row type T, const or not — lets one visit_fields template
// serve both writers (const rows) and readers (mutable rows).
template <class R, class T>
concept RowOf = std::same_as<std::remove_const_t<R>, T>;

// Visitor that ignores every field; derived visitors override (hide) the
// members they care about.
struct NullVisitor {
  template <class... A> void count(A&&...) {}
  template <class... A> void real(A&&...) {}
  template <class... A> void flag(A&&...) {}
  template <class... A> void enumeration(A&&...) {}
  template <class... A> void text(A&&...) {}
  template <class... A> void vec3(A&&...) {}
  template <class... A> void list(A&&...) {}
  template <class... A> void table(A&&...) {}
  template <class... A> void block(A&&...) {}
};

namespace schema_detail {

template <class Fn>
struct Columns : NullVisitor {
  Fn& fn;
  explicit Columns(Fn& f) : fn(f) {}
  template <class V> void count(std::string_view key, V&, Fp) { fn(key); }
  template <class V> void real(std::string_view key, V&, Fp) { fn(key); }
};

}  // namespace schema_detail

// Calls fn(key) for each field of the flat numeric row type T (a table
// row), in schema order — the column names.
template <class T, class Fn>
void for_each_column(Fn&& fn) {
  schema_detail::Columns<Fn> columns(fn);
  const T row{};
  visit_fields(columns, row);
}

template <class T>
std::size_t column_count() {
  std::size_t n = 0;
  for_each_column<T>([&n](std::string_view) { ++n; });
  return n;
}

}  // namespace iaas
