// Hand-built simulator trace rows for the golden trace fixture
// (tests/fixtures/trace_golden/).  Every field of every optional block
// carries a distinct, deterministic value — no wall clock enters — so
// the committed JSON, binary and fingerprint pin each codec field by
// field.  Window 0 sets every block; window 1 sets none; window 2 sets
// only the fairness block and a best-effort degrade.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/telemetry.h"
#include "sim/simulator.h"

namespace iaas::test {

inline telemetry::GenerationRow golden_generation_row(std::size_t base) {
  telemetry::GenerationRow g;
  g.generation = base + 1;
  g.evaluations = base + 2;
  g.full_rebuilds = base + 3;
  g.delta_moves = base + 4;
  g.rebases = base + 5;
  g.repair_invocations = base + 6;
  g.repaired = base + 7;
  g.unrepairable = base + 8;
  g.tabu_moves_tried = base + 9;
  g.tabu_moves_accepted = base + 10;
  g.front_size = base + 11;
  g.best_objectives = {0.1 * static_cast<double>(base + 1), -0.0,
                       1.0 / 3.0 + static_cast<double>(base)};
  g.seconds_tournament = 0.015625 + static_cast<double>(base);
  g.seconds_variation = 2.0 / 3.0;
  g.seconds_repair = 1e-300;
  g.seconds_evaluate = 123456789.123456789;
  g.seconds_selection = 5e-324;  // smallest denormal
  return g;
}

inline telemetry::RunTrace golden_run_trace() {
  telemetry::RunTrace trace;
  trace.label = "nsga3+tabu \"golden\"\tw0";
  trace.seed = (std::uint64_t{1} << 53) + 12345;  // not a double
  trace.rows = {golden_generation_row(0), golden_generation_row(100)};
  return trace;
}

inline std::vector<WindowMetrics> golden_window_rows() {
  std::vector<WindowMetrics> rows(3);

  WindowMetrics& full = rows[0];
  full.window = 7;
  full.arrived = 11;
  full.departed = 12;
  full.running = 13;
  full.rejected = 14;
  full.boots = 15;
  full.migrations = 16;
  full.migration_cost = 17.25;
  full.failed_servers = 18;
  full.repaired_servers = 19;
  full.decommissioned_servers = 20;
  full.displaced_vms = 21;
  full.vms_on_down_servers = 22;
  FaultEvent rack;
  rack.window = 7;
  rack.kind = FaultEventKind::kLeafFailure;
  rack.index = 3;
  rack.servers = {24, 25, 26};
  rack.mttr_windows = 4;
  FaultEvent loss;
  loss.window = 6;
  loss.kind = FaultEventKind::kDecommission;
  loss.index = 41;
  loss.servers = {41};
  loss.mttr_windows = 0;
  full.fault_events = {rack, loss};
  full.evicted = 23;
  full.retried = 27;
  full.permanently_rejected = 28;
  full.retry_queue_depth = 29;
  ProviderWindowMetrics alpha;
  alpha.provider = 0;
  alpha.online = true;
  alpha.price_multiplier = 1.1;
  alpha.running = 31;
  alpha.routed = 32;
  alpha.rejected = 33;
  alpha.evicted = 34;
  alpha.redirects_in = 35;
  alpha.failed_servers = 36;
  alpha.migrations = 37;
  alpha.migration_cost = 38.5;
  alpha.objectives = {39.0625, -0.0, 0.30000000000000004};
  ProviderWindowMetrics beta;
  beta.provider = 1;
  beta.online = false;
  beta.price_multiplier = 0.6;
  beta.running = 42;
  beta.routed = 43;
  beta.rejected = 44;
  beta.evicted = 45;
  beta.redirects_in = 46;
  beta.failed_servers = 47;
  beta.migrations = 48;
  beta.migration_cost = 49.75;
  beta.objectives = {1e300, 2.5e-8, 51.0};
  full.providers = {alpha, beta};
  full.redirects = 52;
  full.offline_providers = 1;
  full.cross_cloud_migration_cost = 53.125;
  full.admitted = 54;
  full.admission_deferred = 55;
  full.admission_dropped = 56;
  full.admission_queue_depth = 57;
  full.shard.shard_count = 2;
  full.shard.pre_rejections = 58;
  full.shard.rebalance_placements = 59;
  full.shard.migrations = 60;
  full.shard.max_shard_vms = 61;
  full.shard.min_shard_vms = 62;
  full.fairness.consumers = 63;
  full.fairness.strategic_consumers = 64;
  full.fairness.strategic_vms = 65;
  full.fairness.jain_index = 0.8125;
  full.fairness.long_term_jain = 0.7109375;
  full.fairness.envy = 0.123456789012345678;
  full.fairness.utilization_efficiency = 0.96875;
  full.fairness.honest_welfare = 0.4375;
  full.fairness.strategic_welfare = -0.0;
  full.fairness.energy_cost = 66.0078125;
  full.degrade = DegradeLevel::kFallback;
  full.fallback_algorithm = "greedy-first-fit";
  full.objectives = {67.5, 68.25, 69.125};
  full.solve_seconds = 0.5;
  full.allocator_trace = golden_run_trace();

  WindowMetrics& bare = rows[1];
  bare.window = 8;
  bare.arrived = 70;
  bare.departed = 71;
  bare.running = 72;
  bare.rejected = 73;
  bare.boots = 74;
  bare.migrations = 75;
  bare.migration_cost = -0.0;
  bare.evicted = 76;
  bare.retried = 77;
  bare.permanently_rejected = 78;
  bare.retry_queue_depth = 79;
  bare.objectives = {0.1, 0.2, 0.7};
  bare.solve_seconds = 0.25;

  WindowMetrics& fair = rows[2];
  fair.window = 9;
  fair.arrived = 80;
  fair.running = std::numeric_limits<std::uint32_t>::max();
  FaultEvent fail;
  fail.window = 9;
  fail.kind = FaultEventKind::kServerFailure;
  fail.index = 81;
  fail.servers = {81};
  fail.mttr_windows = 2;
  FaultEvent repair;
  repair.window = 9;
  repair.kind = FaultEventKind::kRepair;
  repair.index = 26;
  repair.servers = {26};
  repair.mttr_windows = 0;
  fair.fault_events = {fail, repair};
  fair.fairness.consumers = 1;
  fair.fairness.jain_index = 1.0;
  fair.fairness.long_term_jain = 0.9990234375;
  fair.fairness.honest_welfare = 1.0 / 7.0;
  fair.fairness.energy_cost = 82.5;
  fair.degrade = DegradeLevel::kBestEffort;
  fair.objectives = {83.0, 0.0, 84.0};
  fair.solve_seconds = 0.125;
  return rows;
}

}  // namespace iaas::test
