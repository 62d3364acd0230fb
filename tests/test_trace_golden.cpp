// Golden trace fixture: the committed JSON, binary and fingerprint of
// hand-built rows (tests/trace_golden_rows.h), frozen from the original
// hand-written codecs.  Every codec generated from the field schema must
// reproduce them byte for byte, and the schema's fingerprint marks are
// checked field by field.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/json.h"
#include "io/trace_binary.h"
#include "io/trace_json.h"
#include "io/trace_stream.h"
#include "sim/window_schema.h"
#include "tests/trace_golden_rows.h"

namespace iaas {
namespace {

constexpr std::uint64_t kGoldenFingerprint = 0xfd4fa985b396c211ULL;

std::string load_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fixture(const std::string& name) {
  return load_bytes(std::string(IAAS_TEST_FIXTURE_DIR) + "/trace_golden/" +
                    name);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string binary_sim_bytes(const std::vector<WindowMetrics>& rows) {
  const std::string path = temp_path("iaas_golden_sim.trc");
  write_binary_sim_trace(rows, path);
  std::string bytes = load_bytes(path);
  std::filesystem::remove(path);
  return bytes;
}

std::string binary_run_bytes(const telemetry::RunTrace& trace) {
  const std::string path = temp_path("iaas_golden_run.trc");
  write_binary_run_trace(trace, path);
  std::string bytes = load_bytes(path);
  std::filesystem::remove(path);
  return bytes;
}

TEST(TraceGolden, SimTraceWritersReproduceTheFixture) {
  const std::vector<WindowMetrics> rows = test::golden_window_rows();
  const std::string json = fixture("sim_trace.json");
  EXPECT_EQ(sim_trace_json_text(rows), json);
  const std::string path = temp_path("iaas_golden_sim.json");
  write_sim_trace_json(rows, path);
  EXPECT_EQ(load_bytes(path), json);
  std::filesystem::remove(path);
  EXPECT_EQ(binary_sim_bytes(rows), fixture("sim_trace.trc"));
  EXPECT_EQ(deterministic_fingerprint(rows), kGoldenFingerprint);
}

TEST(TraceGolden, SimTraceFixturesReadBackToTheSameBytes) {
  const std::string json = fixture("sim_trace.json");
  const std::string binary = fixture("sim_trace.trc");
  const std::vector<WindowMetrics> from_json =
      sim_trace_from_json(Json::parse(json));
  const std::string path = temp_path("iaas_golden_fixture.trc");
  {
    std::ofstream out(path, std::ios::binary);
    out << binary;
  }
  const std::vector<WindowMetrics> from_binary = read_binary_sim_trace(path);
  std::filesystem::remove(path);
  for (const auto* rows : {&from_json, &from_binary}) {
    EXPECT_EQ(sim_trace_json_text(*rows), json);
    EXPECT_EQ(binary_sim_bytes(*rows), binary);
    EXPECT_EQ(deterministic_fingerprint(*rows), kGoldenFingerprint);
  }
}

TEST(TraceGolden, RunTraceFixturesRoundTrip) {
  const telemetry::RunTrace trace = test::golden_run_trace();
  const std::string json = fixture("run_trace.json");
  const std::string binary = fixture("run_trace.trc");
  EXPECT_EQ(run_trace_json_text(trace), json);
  EXPECT_EQ(binary_run_bytes(trace), binary);

  const telemetry::RunTrace from_json = trace_from_json(Json::parse(json));
  const std::string path = temp_path("iaas_golden_fixture_run.trc");
  {
    std::ofstream out(path, std::ios::binary);
    out << binary;
  }
  const telemetry::RunTrace from_binary = read_binary_run_trace(path);
  std::filesystem::remove(path);
  for (const auto* back : {&from_json, &from_binary}) {
    EXPECT_EQ(back->seed, trace.seed);
    EXPECT_EQ(run_trace_json_text(*back), json);
    EXPECT_EQ(binary_run_bytes(*back), binary);
  }
}

// --- per-field fingerprint marks -------------------------------------

// Schema visitor that walks every leaf field of a row in order and
// perturbs the one numbered `target`, recording its key path and
// whether the schema says the fingerprint sees it there.
class FieldProbe {
 public:
  explicit FieldProbe(std::size_t target) : target_(target) {}

  [[nodiscard]] std::size_t fields() const { return index_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool expect_hashed() const { return expect_hashed_; }

  template <class T>
  void count(std::string_view k, T& v, Fp fp) {
    if (hit(k, fp)) {
      v = static_cast<T>(v + 1);
    }
  }
  void real(std::string_view k, double& v, Fp fp) {
    if (hit(k, fp)) {
      v = std::nextafter(v, std::numeric_limits<double>::infinity());
    }
  }
  void flag(std::string_view k, bool& v, Fp fp) {
    if (hit(k, fp)) {
      v = !v;
    }
  }
  template <class E>
  void enumeration(std::string_view k, E& v, const EnumSpec<E>& spec,
                   Fp fp) {
    if (hit(k, fp)) {
      const int n = static_cast<int>(spec.last) + 1;
      v = static_cast<E>((static_cast<int>(v) + 1) % n);
    }
  }
  void text(std::string_view k, std::string& v, Fp fp) {
    if (hit(k, fp)) {
      v += '~';
    }
  }
  void vec3(std::string_view k, ObjectiveVector& v, Fp fp) {
    const std::string key(k);
    real(key + "[0]", v.usage_cost, fp);
    real(key + "[1]", v.downtime_cost, fp);
    real(key + "[2]", v.migration_cost, fp);
  }
  template <class T>
  void list(std::string_view k, std::vector<T>& items, Fp fp) {
    const bool outer = hashed_;
    hashed_ = hashed_ && counts(fp);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string key = std::string(k) + "[" + std::to_string(i) + "]";
      if constexpr (std::is_arithmetic_v<T>) {
        count(key, items[i], Fp::kHash);
      } else {
        const std::string saved = prefix_;
        prefix_ += key + ".";
        visit_fields(*this, items[i]);
        prefix_ = saved;
      }
    }
    hashed_ = outer;
  }
  template <class T>
  void table(std::string_view, std::string_view rows_key,
             std::vector<T>& rows, Fp fp) {
    list(rows_key, rows, fp);
  }
  template <class Body>
  void block(const BlockSpec& spec, bool present, Body&& body) {
    const bool outer = present_;
    const std::string saved = prefix_;
    present_ = present_ && present;
    if (spec.nested) {
      prefix_ += std::string(spec.key) + ".";
    }
    body(*this);
    present_ = outer;
    prefix_ = saved;
  }

 private:
  [[nodiscard]] bool counts(Fp fp) const {
    return fp != Fp::kSkip && (fp != Fp::kIfPresent || present_);
  }
  bool hit(std::string_view k, Fp fp) {
    if (index_++ != target_) {
      return false;
    }
    path_ = prefix_ + std::string(k);
    expect_hashed_ = hashed_ && counts(fp);
    return true;
  }

  std::size_t target_;
  std::size_t index_ = 0;
  bool hashed_ = true;   // every enclosing list is hashed
  bool present_ = true;  // every enclosing block is present
  std::string prefix_;
  std::string path_;
  bool expect_hashed_ = false;
};

TEST(TraceGolden, FingerprintChangesIffTheSchemaHashesTheField) {
  const std::vector<WindowMetrics> golden = test::golden_window_rows();
  const std::uint64_t base = deterministic_fingerprint(golden);
  std::set<std::string> unhashed_in_full_window;
  std::size_t probed = 0;
  for (std::size_t w = 0; w < golden.size(); ++w) {
    for (std::size_t target = 0;; ++target) {
      std::vector<WindowMetrics> rows = golden;
      FieldProbe probe(target);
      visit_fields(probe, rows[w]);
      if (target >= probe.fields()) {
        break;
      }
      ++probed;
      const bool changed = deterministic_fingerprint(rows) != base;
      EXPECT_EQ(changed, probe.expect_hashed())
          << "window " << w << " field " << probe.path();
      if (w == 0 && !probe.expect_hashed()) {
        unhashed_in_full_window.insert(probe.path());
      }
    }
  }
  EXPECT_GT(probed, 150u);

  // Window 0 sets every block, so its unhashed fields are exactly the
  // ones the determinism contract excludes: wall clock (solve_seconds,
  // the trace's seconds columns), telemetry-only counters (zero in
  // IAAS_TELEMETRY=OFF builds) and the trace's label and seed.
  std::set<std::string> expected = {"solve_seconds",
                                    "allocator_trace.label",
                                    "allocator_trace.seed"};
  for (const char* row : {"allocator_trace.rows[0].",
                          "allocator_trace.rows[1]."}) {
    for (const char* column :
         {"full_rebuilds", "delta_moves", "rebases", "repair_invocations",
          "repaired", "unrepairable", "tabu_moves_tried",
          "tabu_moves_accepted", "seconds_tournament", "seconds_variation",
          "seconds_repair", "seconds_evaluate", "seconds_selection"}) {
      expected.insert(std::string(row) + column);
    }
  }
  EXPECT_EQ(unhashed_in_full_window, expected);
}

}  // namespace
}  // namespace iaas
