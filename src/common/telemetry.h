// Cross-layer telemetry & run-trace subsystem (DESIGN.md §9).
//
// Three pieces, all deliberately tiny:
//
//   * a fixed set of named **counters** (enum-indexed — no hashing on the
//     hot path).  Increments go through a thread-local `CounterBlock*`
//     sink installed with `ScopedSink`; with no sink installed the
//     increment is a single load + branch (the null-sink fast path), and
//     with `IAAS_TELEMETRY` defined to 0 every call compiles away
//     entirely.  Per-thread accumulation means no atomics and no
//     ordering dependence: a parallel driver gives each task its own
//     block and merges them serially, so tallies are bit-identical for
//     any thread count.
//   * a process-wide **Registry** of counter totals and per-phase wall
//     times, fed by explicit `flush_counters` / scoped phase timers at
//     coarse granularity (per allocation, per simulation window).
//   * a structured **RunTrace**: one row per EA generation recording
//     what the search actually did — evaluations, delta moves vs full
//     rebuilds, repair outcomes, tabu move counts, front size, best
//     objective vector, and phase wall times.  Its columns are one field
//     schema (visit_fields below) shared by the CSV emitter here
//     (reusing common/csv) and the JSON/binary codecs in io.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"

#ifndef IAAS_TELEMETRY
#define IAAS_TELEMETRY 1
#endif

namespace iaas::telemetry {

// Hot-path counters.  Kept to one small fixed enum so a CounterBlock is
// a plain array and merging is a handful of adds.
enum class Counter : std::size_t {
  kEvaluations,              // objective evaluations (any path)
  kStateRebuilds,            // full PlacementState rebuilds
  kDeltaMoves,               // incremental apply_move updates
  kRepairInvocations,        // repair walks entered
  kRepairedIndividuals,      // entered infeasible, left feasible
  kUnrepairableIndividuals,  // left with violations after all passes
  kTabuMovesTried,           // candidate relocations examined
  kTabuMovesAccepted,        // relocations actually applied
  kTabuCandidatesScanned,    // servers offered to the repair's move test
  // Simulator failure/degradation lifecycle (flushed once per window).
  kSimFaultEvents,           // failure/repair/decommission events
  kSimEvictions,             // running VMs forced off the platform
  kSimRetries,               // queued VMs re-entering a later window
  kSimPermanentRejections,   // retry budget exhausted, VM dropped
  kSimDegradedWindows,       // windows served by the fallback chain
  // Sharded allocator (cross-shard rebalance + admission control).
  kShardPreRejections,       // VMs unplaced after the merge (shard-
                             // rejected or never offered to a shard)
  kShardRebalancePlacements, // rejected VMs the global rebalance placed
  kSimAdmissionDeferrals,    // arrival units pushed to a later window
  kSimAdmissionDrops,        // arrival units shed at the queue cap
  // Streaming trace I/O (flushed by SimTraceWriter/BinaryTraceWriter at
  // finish(), directly to the global registry — emission happens outside
  // the sim loop, so no thread-local sink is installed).
  kTraceWindowsStreamed,     // window records flushed incrementally
  kTraceBytesStreamed,       // bytes handed to the trace sink
  kTracePeakBufferBytes,     // high-water mark of the reusable buffer
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

const char* counter_name(Counter c);

struct CounterBlock {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t& operator[](Counter c) {
    return values[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
  void merge(const CounterBlock& other) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      values[i] += other.values[i];
    }
  }
  void reset() { values.fill(0); }
  [[nodiscard]] bool empty() const {
    for (std::uint64_t v : values) {
      if (v != 0) {
        return false;
      }
    }
    return true;
  }
};

// Coarse phases for the registry's wall-time totals.
enum class Phase : std::size_t {
  kTournament,
  kVariation,
  kRepair,
  kEvaluate,
  kSelection,
  kAllocate,          // one Allocator::allocate call
  kFallbackAllocate,  // greedy fallback after a deadline/allocator failure
  kSimWindow,         // one simulator window
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

const char* phase_name(Phase p);

// Process-wide aggregate.  Everything is explicit-push (flush_counters /
// add_phase_seconds), so the mutex is only ever taken at coarse
// granularity, never per increment.
class Registry {
 public:
  static Registry& global();

  void flush_counters(const CounterBlock& block);
  void add_phase_seconds(Phase p, double seconds);

  [[nodiscard]] CounterBlock counters() const;
  [[nodiscard]] std::array<double, kPhaseCount> phase_seconds() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  CounterBlock counters_;
  std::array<double, kPhaseCount> seconds_{};
};

#if IAAS_TELEMETRY

// Increment counter `c` on the calling thread's installed sink; dropped
// when no sink is installed.
void count(Counter c, std::uint64_t n = 1);

// Installs `block` as the calling thread's counter sink for the scope;
// restores the previous sink on exit (sinks nest).  The block is NOT
// flushed to the Registry automatically — the owner decides when its
// per-task tallies become globally visible.
class ScopedSink {
 public:
  explicit ScopedSink(CounterBlock& block);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  CounterBlock* previous_;
};

#else  // IAAS_TELEMETRY == 0: everything compiles away.

inline void count(Counter, std::uint64_t = 1) {}

class ScopedSink {
 public:
  explicit ScopedSink(CounterBlock&) {}
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
};

#endif  // IAAS_TELEMETRY

// Adds the scope's wall time to `*target` on destruction; a null target
// disables the clock calls entirely (how tracing-off runs skip the
// per-offspring timer cost).
class ScopedTimer {
 public:
  explicit ScopedTimer(double* target)
      : target_(target),
        start_(target != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (target_ != nullptr) {
      *target_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* target_;
  std::chrono::steady_clock::time_point start_;
};

// Adds the scope's wall time to the global registry's phase total.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase)
      : phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer() {
    Registry::global().add_phase_seconds(
        phase_, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

// One EA generation as observed by the engine.  Generation 0 is the
// initial population (no tournament/variation).  The counter fields are
// summed serially from per-task blocks, so they are deterministic for a
// given seed at any thread count; the seconds fields are per-task wall
// times summed over tasks (CPU-seconds on the parallel phases) and are
// *not* deterministic.
struct GenerationRow {
  std::size_t generation = 0;
  std::size_t evaluations = 0;
  std::size_t full_rebuilds = 0;
  std::size_t delta_moves = 0;
  // Always 0: the gene-diff rebase it counted is gone.  Kept so the trace
  // formats and the golden fixtures stay unchanged.
  std::size_t rebases = 0;
  std::size_t repair_invocations = 0;
  std::size_t repaired = 0;
  std::size_t unrepairable = 0;
  std::size_t tabu_moves_tried = 0;
  std::size_t tabu_moves_accepted = 0;
  std::size_t front_size = 0;  // rank-0 members after selection
  std::array<double, 3> best_objectives{};  // min-aggregate survivor
  double seconds_tournament = 0.0;
  double seconds_variation = 0.0;
  double seconds_repair = 0.0;
  double seconds_evaluate = 0.0;
  double seconds_selection = 0.0;
};

struct RunTrace {
  std::string label;       // algorithm / experiment tag
  std::uint64_t seed = 0;  // the run's printed seed
  std::vector<GenerationRow> rows;

  [[nodiscard]] bool empty() const { return rows.empty(); }

  // Column names in schema order, shared by the CSV and JSON emitters.
  static const std::vector<std::string>& columns();
  static std::vector<std::string> row_values(const GenerationRow& row);

  // Sum of a counter field over all rows (e.g. total evaluations).
  [[nodiscard]] std::size_t total(std::size_t GenerationRow::*field) const;

  // One CSV file, header + one line per generation (common/csv rules:
  // fails loudly on an unopenable path).
  void write_csv(const std::string& path) const;
};

// The generation-row schema (common/schema.h): one column per field, in
// CSV / JSON positional order.  The fingerprint hashes only the columns
// every build mode and thread count agrees on: the per-generation
// counter columns are zero in IAAS_TELEMETRY=OFF builds and the seconds
// columns are wall clock.
template <class V, RowOf<GenerationRow> R>
void visit_fields(V& v, R& row) {
  v.count("generation", row.generation, Fp::kHash);
  v.count("evaluations", row.evaluations, Fp::kHash);
  v.count("full_rebuilds", row.full_rebuilds, Fp::kSkip);
  v.count("delta_moves", row.delta_moves, Fp::kSkip);
  v.count("rebases", row.rebases, Fp::kSkip);
  v.count("repair_invocations", row.repair_invocations, Fp::kSkip);
  v.count("repaired", row.repaired, Fp::kSkip);
  v.count("unrepairable", row.unrepairable, Fp::kSkip);
  v.count("tabu_moves_tried", row.tabu_moves_tried, Fp::kSkip);
  v.count("tabu_moves_accepted", row.tabu_moves_accepted, Fp::kSkip);
  v.count("front_size", row.front_size, Fp::kHash);
  v.real("best_usage", row.best_objectives[0], Fp::kHash);
  v.real("best_downtime", row.best_objectives[1], Fp::kHash);
  v.real("best_migration", row.best_objectives[2], Fp::kHash);
  v.real("seconds_tournament", row.seconds_tournament, Fp::kSkip);
  v.real("seconds_variation", row.seconds_variation, Fp::kSkip);
  v.real("seconds_repair", row.seconds_repair, Fp::kSkip);
  v.real("seconds_evaluate", row.seconds_evaluate, Fp::kSkip);
  v.real("seconds_selection", row.seconds_selection, Fp::kSkip);
}

// {"label", "seed", "columns", "rows"}; rows are positional arrays.
template <class V, RowOf<RunTrace> R>
void visit_fields(V& v, R& trace) {
  v.text("label", trace.label, Fp::kSkip);
  v.count("seed", trace.seed, Fp::kSkip);
  v.table("columns", "rows", trace.rows, Fp::kHash);
}

}  // namespace iaas::telemetry
