#include "io/trace_json.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/schema.h"
#include "sim/window_schema.h"

namespace iaas {

namespace {

[[noreturn]] void shape_error(const std::string& what) {
  throw std::runtime_error("trace_json: " + what);
}

// JSON reader over the field schema (common/schema.h): reads each field
// from a parsed object by key, or — inside a table row — from an array
// by position.
class JsonReader {
 public:
  explicit JsonReader(const Json& node) : node_(node) {}

  template <class T>
  void count(std::string_view k, T& v, Fp) {
    v = static_cast<T>(next(k).as_uint64());
  }
  void real(std::string_view k, double& v, Fp) { v = next(k).as_number(); }
  void flag(std::string_view k, bool& v, Fp) { v = next(k).as_bool(); }
  template <class E>
  void enumeration(std::string_view k, E& v, const EnumSpec<E>& spec, Fp) {
    const std::string& name = next(k).as_string();
    for (int i = 0; i <= static_cast<int>(spec.last); ++i) {
      if (name == spec.name(static_cast<E>(i))) {
        v = static_cast<E>(i);
        return;
      }
    }
    shape_error(std::string("unknown ") + spec.noun + " " + name);
  }
  void text(std::string_view k, std::string& v, Fp) {
    v = next(k).as_string();
  }
  void vec3(std::string_view k, ObjectiveVector& v, Fp) {
    const Json& terms = next(k);
    if (terms.size() != 3) {
      shape_error(std::string(k) + " must have three terms");
    }
    v.usage_cost = terms.at(0).as_number();
    v.downtime_cost = terms.at(1).as_number();
    v.migration_cost = terms.at(2).as_number();
  }
  template <class T>
  void list(std::string_view k, std::vector<T>& items, Fp) {
    const Json& array = next(k);
    items.reserve(array.size());
    for (std::size_t i = 0; i < array.size(); ++i) {
      if constexpr (std::is_arithmetic_v<T>) {
        items.push_back(static_cast<T>(array.at(i).as_uint64()));
      } else {
        JsonReader element(array.at(i));
        visit_fields(element, items.emplace_back());
      }
    }
  }
  template <class T>
  void table(std::string_view columns_key, std::string_view rows_key,
             std::vector<T>& rows, Fp) {
    const Json& columns = next(columns_key);
    const std::size_t width = column_count<T>();
    if (columns.size() != width) {
      shape_error("trace column count mismatch");
    }
    std::size_t c = 0;
    for_each_column<T>([&](std::string_view name) {
      const std::string& found = columns.at(c++).as_string();
      if (found != name) {
        shape_error("unknown trace column " + found);
      }
    });
    const Json& array = next(rows_key);
    rows.reserve(array.size());
    for (std::size_t r = 0; r < array.size(); ++r) {
      if (array.at(r).size() != width) {
        shape_error("trace row width mismatch");
      }
      JsonReader row(array.at(r));
      row.positional_ = true;
      visit_fields(row, rows.emplace_back());
    }
  }
  template <class Body>
  void block(const BlockSpec& spec, bool, Body&& body) {
    if (!node_.contains(spec.key)) {
      return;
    }
    if (!spec.nested) {
      body(*this);
      return;
    }
    JsonReader inner(node_.at(spec.key));
    body(inner);
  }

 private:
  const Json& next(std::string_view k) {
    return positional_ ? node_.at(index_++) : node_.at(k);
  }

  const Json& node_;
  bool positional_ = false;
  std::size_t index_ = 0;
};

}  // namespace

telemetry::RunTrace trace_from_json(const Json& json) {
  telemetry::RunTrace trace;
  JsonReader reader(json);
  visit_fields(reader, trace);
  return trace;
}

std::vector<WindowMetrics> sim_trace_from_json(const Json& json) {
  std::vector<WindowMetrics> metrics;
  JsonReader(json).list("windows", metrics, Fp::kHash);
  return metrics;
}

}  // namespace iaas
