// The field schema of one simulator window (WindowMetrics) and the
// structs nested in it — the single list every trace codec and the
// deterministic fingerprint visit (common/schema.h, DESIGN.md §13).
//
// Order is the JSON key order and the binary record order.  Fingerprint
// quirks kept from the original hand-written digest:
//   * fault_events hash without a count prefix (every other list hashes
//     its size);
//   * the provider, admission and shard fields are hashed even while
//     their block is absent (zeros), so "no market" and "a market of
//     silent providers" stay distinct;
//   * fairness hashes `consumers` always and the rest only while the
//     block is present;
//   * solve_seconds and the allocator trace's label, seed, counter and
//     seconds columns are never hashed (wall clock / telemetry-only).
#pragma once

#include "common/schema.h"
#include "common/telemetry.h"
#include "sim/simulator.h"

namespace iaas {

inline constexpr EnumSpec<FaultEventKind> kFaultEventKinds{
    "fault event kind", fault_event_kind_name, FaultEventKind::kDecommission};
inline constexpr EnumSpec<DegradeLevel> kDegradeLevels{
    "degrade level", degrade_level_name, DegradeLevel::kFallback};

// Optional blocks; the flag bits are binary format version 1's layout.
inline constexpr BlockSpec kProvidersBlock{"providers", 1u << 0, false};
inline constexpr BlockSpec kAdmissionBlock{"admission", 1u << 1, true};
inline constexpr BlockSpec kShardBlock{"shard", 1u << 2, true};
inline constexpr BlockSpec kAllocatorTraceBlock{"allocator_trace", 1u << 3,
                                                true};
inline constexpr BlockSpec kFairnessBlock{"fairness", 1u << 4, true};

template <class V, RowOf<FaultEvent> R>
void visit_fields(V& v, R& event) {
  v.count("window", event.window, Fp::kHash);
  v.enumeration("kind", event.kind, kFaultEventKinds, Fp::kHash);
  v.count("index", event.index, Fp::kHash);
  v.list("servers", event.servers, Fp::kHash);
  v.count("mttr_windows", event.mttr_windows, Fp::kHash);
}

template <class V, RowOf<ProviderWindowMetrics> R>
void visit_fields(V& v, R& p) {
  v.count("provider", p.provider, Fp::kHash);
  v.flag("online", p.online, Fp::kHash);
  v.real("price_multiplier", p.price_multiplier, Fp::kHash);
  v.count("running", p.running, Fp::kHash);
  v.count("routed", p.routed, Fp::kHash);
  v.count("rejected", p.rejected, Fp::kHash);
  v.count("evicted", p.evicted, Fp::kHash);
  v.count("redirects_in", p.redirects_in, Fp::kHash);
  v.count("failed_servers", p.failed_servers, Fp::kHash);
  v.count("migrations", p.migrations, Fp::kHash);
  v.real("migration_cost", p.migration_cost, Fp::kHash);
  v.vec3("objectives", p.objectives, Fp::kHash);
}

template <class V, RowOf<ShardRunStats> R>
void visit_fields(V& v, R& shard) {
  v.count("shard_count", shard.shard_count, Fp::kHash);
  v.count("pre_rejections", shard.pre_rejections, Fp::kHash);
  v.count("rebalance_placements", shard.rebalance_placements, Fp::kHash);
  v.count("migrations", shard.migrations, Fp::kHash);
  v.count("max_shard_vms", shard.max_shard_vms, Fp::kHash);
  v.count("min_shard_vms", shard.min_shard_vms, Fp::kHash);
}

template <class V, RowOf<FairnessWindowMetrics> R>
void visit_fields(V& v, R& f) {
  v.count("consumers", f.consumers, Fp::kHash);
  v.count("strategic_consumers", f.strategic_consumers, Fp::kIfPresent);
  v.count("strategic_vms", f.strategic_vms, Fp::kIfPresent);
  v.real("jain_index", f.jain_index, Fp::kIfPresent);
  v.real("long_term_jain", f.long_term_jain, Fp::kIfPresent);
  v.real("envy", f.envy, Fp::kIfPresent);
  v.real("utilization_efficiency", f.utilization_efficiency,
         Fp::kIfPresent);
  v.real("honest_welfare", f.honest_welfare, Fp::kIfPresent);
  v.real("strategic_welfare", f.strategic_welfare, Fp::kIfPresent);
  v.real("energy_cost", f.energy_cost, Fp::kIfPresent);
}

template <class V, RowOf<WindowMetrics> R>
void visit_fields(V& v, R& row) {
  v.count("window", row.window, Fp::kHash);
  v.count("arrived", row.arrived, Fp::kHash);
  v.count("departed", row.departed, Fp::kHash);
  v.count("running", row.running, Fp::kHash);
  v.count("rejected", row.rejected, Fp::kHash);
  v.count("boots", row.boots, Fp::kHash);
  v.count("migrations", row.migrations, Fp::kHash);
  v.real("migration_cost", row.migration_cost, Fp::kHash);
  v.count("failed_servers", row.failed_servers, Fp::kHash);
  v.count("repaired_servers", row.repaired_servers, Fp::kHash);
  v.count("decommissioned_servers", row.decommissioned_servers, Fp::kHash);
  v.count("displaced_vms", row.displaced_vms, Fp::kHash);
  v.count("vms_on_down_servers", row.vms_on_down_servers, Fp::kHash);
  v.list("fault_events", row.fault_events, Fp::kNoSize);
  v.count("evicted", row.evicted, Fp::kHash);
  v.count("retried", row.retried, Fp::kHash);
  v.count("permanently_rejected", row.permanently_rejected, Fp::kHash);
  v.count("retry_queue_depth", row.retry_queue_depth, Fp::kHash);
  v.block(kProvidersBlock, !row.providers.empty(), [&](auto& b) {
    b.list("providers", row.providers, Fp::kHash);
    b.count("redirects", row.redirects, Fp::kHash);
    b.count("offline_providers", row.offline_providers, Fp::kHash);
    b.real("cross_cloud_migration_cost", row.cross_cloud_migration_cost,
           Fp::kHash);
  });
  v.block(kAdmissionBlock,
          row.admitted != 0 || row.admission_deferred != 0 ||
              row.admission_dropped != 0 || row.admission_queue_depth != 0,
          [&](auto& b) {
            b.count("admitted", row.admitted, Fp::kHash);
            b.count("deferred", row.admission_deferred, Fp::kHash);
            b.count("dropped", row.admission_dropped, Fp::kHash);
            b.count("queue_depth", row.admission_queue_depth, Fp::kHash);
          });
  v.block(kShardBlock, row.shard.shard_count != 0,
          [&](auto& b) { visit_fields(b, row.shard); });
  v.block(kFairnessBlock, row.fairness.consumers != 0,
          [&](auto& b) { visit_fields(b, row.fairness); });
  v.enumeration("degrade", row.degrade, kDegradeLevels, Fp::kHash);
  v.text("fallback_algorithm", row.fallback_algorithm, Fp::kHash);
  v.vec3("objectives", row.objectives, Fp::kHash);
  v.real("solve_seconds", row.solve_seconds, Fp::kSkip);
  v.block(kAllocatorTraceBlock, !row.allocator_trace.empty(),
          [&](auto& b) { visit_fields(b, row.allocator_trace); });
}

}  // namespace iaas
