// Tabu list and the Fig. 5/6 repair operator.
#include <gtest/gtest.h>

#include "algo/nsga_allocators.h"
#include "common/telemetry.h"
#include "model/constraint_checker.h"
#include "model/objectives.h"
#include "tabu/repair.h"
#include "tabu/tabu_list.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

TEST(TabuList, ForbidsAndExpires) {
  TabuList tabu(2);
  tabu.forbid(1, 10);
  tabu.forbid(2, 20);
  EXPECT_TRUE(tabu.is_tabu(1, 10));
  EXPECT_TRUE(tabu.is_tabu(2, 20));
  EXPECT_FALSE(tabu.is_tabu(1, 20));
  tabu.forbid(3, 30);  // evicts the oldest (1,10)
  EXPECT_FALSE(tabu.is_tabu(1, 10));
  EXPECT_TRUE(tabu.is_tabu(3, 30));
  EXPECT_EQ(tabu.size(), 2u);
}

TEST(TabuList, DuplicateForbidDoesNotGrow) {
  TabuList tabu(4);
  tabu.forbid(1, 1);
  tabu.forbid(1, 1);
  EXPECT_EQ(tabu.size(), 1u);
}

TEST(TabuList, ZeroTenureNeverForbids) {
  TabuList tabu(0);
  tabu.forbid(1, 1);
  EXPECT_FALSE(tabu.is_tabu(1, 1));
  EXPECT_EQ(tabu.size(), 0u);
}

TEST(TabuList, ClearEmpties) {
  TabuList tabu(4);
  tabu.forbid(1, 1);
  tabu.clear();
  EXPECT_FALSE(tabu.is_tabu(1, 1));
  EXPECT_EQ(tabu.size(), 0u);
}

TEST(TabuRepair, FixesOverloadedServer) {
  // Both VMs crammed onto server 0 (16 cpu > 10); a neighbour is free.
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{8.0, 2.0, 2.0}, {8.0, 2.0, 2.0}});
  TabuRepair repair(inst);
  Rng rng(1);
  std::vector<std::int32_t> genes = {0, 0};
  const std::uint32_t remaining = repair.repair(genes, rng);
  EXPECT_EQ(remaining, 0u);
  EXPECT_TRUE(
      ConstraintChecker(inst).check(Placement(genes)).feasible());
  // One VM moved, one stayed (the refinement: shed only until it fits).
  EXPECT_NE(genes[0], genes[1]);
}

TEST(TabuRepair, FixesSameServerGroup) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}}});
  TabuRepair repair(inst);
  Rng rng(2);
  std::vector<std::int32_t> genes = {0, 2};
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes[0], genes[1]);
}

TEST(TabuRepair, FixesDifferentServersGroup) {
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentServers, {0, 1, 2}}});
  TabuRepair repair(inst);
  Rng rng(3);
  std::vector<std::int32_t> genes = {1, 1, 1};
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_NE(genes[0], genes[1]);
  EXPECT_NE(genes[1], genes[2]);
  EXPECT_NE(genes[0], genes[2]);
}

TEST(TabuRepair, FixesDifferentDatacentersGroup) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentDatacenters, {0, 1}}});
  TabuRepair repair(inst);
  Rng rng(4);
  std::vector<std::int32_t> genes = {0, 1};  // both DC 0
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  const auto dc0 = inst.infra.datacenter_of(static_cast<std::size_t>(genes[0]));
  const auto dc1 = inst.infra.datacenter_of(static_cast<std::size_t>(genes[1]));
  EXPECT_NE(dc0, dc1);
}

TEST(TabuRepair, FixesSameDatacenterGroup) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameDatacenter, {0, 1, 2}}});
  TabuRepair repair(inst);
  Rng rng(5);
  std::vector<std::int32_t> genes = {0, 1, 3};  // VM 2 in DC 1
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  const auto dc = inst.infra.datacenter_of(static_cast<std::size_t>(genes[0]));
  for (std::int32_t g : genes) {
    EXPECT_EQ(inst.infra.datacenter_of(static_cast<std::size_t>(g)), dc);
  }
}

TEST(TabuRepair, ReassemblesScatteredSameServerGroup) {
  // Regression: a 3-member same-server group scattered over three hosts
  // cannot be fixed by member-at-a-time moves (the first mover is always
  // invalid against its unmoved peers) — the repair must relocate the
  // group atomically.
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0},
      {{2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}},
      {{RelationKind::kSameServer, {0, 1, 2}}});
  TabuRepair repair(inst);
  Rng rng(41);
  std::vector<std::int32_t> genes = {0, 1, 2};  // fully scattered
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes[0], genes[1]);
  EXPECT_EQ(genes[1], genes[2]);
}

TEST(TabuRepair, MovesSatisfiedGroupOffTooSmallServer) {
  // Regression: a *satisfied* same-server group overloading a small host
  // deadlocks individual shedding (each member's solo move would break
  // the relation) — the capacity repair must relocate the whole group.
  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 2;
  std::vector<Server> servers = {
      test::make_server(0, {10.0, 10.0, 10.0}),   // too small for the pair
      test::make_server(0, {30.0, 30.0, 30.0})};  // big enough
  RequestSet requests;
  requests.vms = {test::make_vm({8.0, 8.0, 8.0}),
                  test::make_vm({8.0, 8.0, 8.0})};
  requests.constraints.push_back({RelationKind::kSameServer, {0, 1}});
  Instance inst(Infrastructure(fc, std::move(servers)),
                std::move(requests));

  TabuRepair repair(inst);
  Rng rng(43);
  std::vector<std::int32_t> genes = {0, 0};  // together but overloading
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes[0], 1);  // whole group moved to the big server
  EXPECT_EQ(genes[1], 1);
}

TEST(TabuRepair, FeasibleInputUntouched) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  TabuRepair repair(inst);
  Rng rng(6);
  std::vector<std::int32_t> genes = {0, 1};
  const auto original = genes;
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes, original);
}

TEST(TabuRepair, ImpossibleInstanceReportsRemainingViolations) {
  // Total demand exceeds total capacity: full repair cannot exist.
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{8.0, 8.0, 8.0}, {8.0, 8.0, 8.0}});
  TabuRepair repair(inst);
  Rng rng(7);
  std::vector<std::int32_t> genes = {0, 0};
  EXPECT_GT(repair.repair(genes, rng), 0u);
}

// Property: repair output on generated scenarios is always at least as
// feasible as the input, and typically fully feasible.
class TabuRepairProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TabuRepairProperty, NeverIncreasesViolations) {
  const Instance inst = make_random_instance(GetParam(), 16, 48);
  const ConstraintChecker checker(inst);
  TabuRepair repair(inst);
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::int32_t> genes(inst.n());
    for (auto& g : genes) {
      g = static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    }
    const std::uint32_t before =
        checker.check(Placement(genes)).total();
    const std::uint32_t after = repair.repair(genes, rng);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, checker.check(Placement(genes)).total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabuRepairProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(TabuRepair, RepairStateMatchesGenesEntryPoint) {
  // Both entry points must walk identically for the same RNG stream: the
  // fused pipeline relies on repair_state(kFull) reproducing exactly the
  // placement that repair() produces through its private kViolationsOnly
  // state.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = make_random_instance(seed + 100, 8, 32);
    TabuRepair repair(inst);

    std::vector<std::int32_t> genes(inst.n());
    Rng gene_rng(seed);
    for (std::int32_t& g : genes) {
      g = static_cast<std::int32_t>(
          gene_rng.uniform_int(0, static_cast<std::int64_t>(inst.m()) - 1));
    }

    std::vector<std::int32_t> via_genes = genes;
    Rng rng_a(seed + 1);
    const std::uint32_t remaining_a = repair.repair(via_genes, rng_a);

    PlacementState state(inst, {}, StateTracking::kFull);
    state.rebuild(genes);
    Rng rng_b(seed + 1);
    const std::uint32_t remaining_b = repair.repair_state(state, rng_b);

    EXPECT_EQ(remaining_a, remaining_b);
    EXPECT_EQ(via_genes, state.placement().genes());
    EXPECT_EQ(state.total_violations(), remaining_b);
  }
}

TEST(TabuRepair, RepairStateAccumulatorsMatchFreshEvaluation) {
  // Fused repair-as-evaluation invariant: after the walk, the state's
  // objective accumulators agree with a from-scratch evaluation of the
  // repaired placement.
  const Instance inst = make_random_instance(222, 8, 40);
  TabuRepair repair(inst);
  PlacementState state(inst, {}, StateTracking::kFull);
  std::vector<std::int32_t> genes(inst.n(), 0);  // everything on server 0
  state.rebuild(genes);
  Rng rng(5);
  repair.repair_state(state, rng);

  Evaluator fresh(inst);
  const Evaluation full = fresh.evaluate(state.placement());
  constexpr double kTol = 1e-7;
  EXPECT_NEAR(state.objectives().usage_cost, full.objectives.usage_cost,
              kTol);
  EXPECT_NEAR(state.objectives().downtime_cost,
              full.objectives.downtime_cost, kTol);
  EXPECT_NEAR(state.objectives().migration_cost,
              full.objectives.migration_cost, kTol);
  EXPECT_EQ(state.total_violations(), full.violations.total());
}

// Golden repair outcomes, frozen from the repair that re-scanned every
// constraint of the instance for each candidate server and looked up the
// tabu list before testing the move.  The cheap candidate test (per-VM
// constraint adjacency, validity before tabu, the leaf capacity summary)
// must pick the same neighbour at every step, so 25 infeasible
// individuals per instance repair to the same genes, the same remaining
// violations and the same tried/accepted move counts.
struct RepairDigest {
  std::uint64_t outcome = 0xcbf29ce484222325ULL;  // genes + remaining
  std::uint64_t moves = 0xcbf29ce484222325ULL;    // tried + accepted
  std::uint32_t unrepairable = 0;
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
}

RepairDigest repair_digest(const Instance& inst, std::uint64_t seed) {
  const ConstraintChecker checker(inst);
  const TabuRepair repair(inst);
  Rng rng(seed);
  RepairDigest digest;
  for (int i = 0; i < 25; ++i) {
    std::vector<std::int32_t> genes(inst.n());
    for (auto& g : genes) {
      g = rng.bernoulli(0.05)
              ? Placement::kRejected
              : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    }
    EXPECT_GT(checker.check(Placement(genes)).total(), 0u)
        << "individual " << i << " is already feasible";
    telemetry::CounterBlock block;
    std::uint32_t remaining = 0;
    {
      telemetry::ScopedSink sink(block);
      remaining = repair.repair(genes, rng);
    }
    for (std::int32_t g : genes) {
      fnv_mix(digest.outcome, static_cast<std::uint32_t>(g));
    }
    fnv_mix(digest.outcome, remaining);
    fnv_mix(digest.moves, block[telemetry::Counter::kTabuMovesTried]);
    fnv_mix(digest.moves, block[telemetry::Counter::kTabuMovesAccepted]);
    digest.unrepairable += remaining > 0 ? 1u : 0u;
  }
  return digest;
}

void expect_golden(const RepairDigest& digest, std::uint64_t outcome,
                   std::uint64_t moves) {
  EXPECT_EQ(digest.outcome, outcome);
#if IAAS_TELEMETRY
  EXPECT_EQ(digest.moves, moves);
#else
  (void)moves;  // the move counters compile away
#endif
}

TEST(TabuRepair, GoldenSaturatedConstrainedFleet) {
  // scarce64-like: 64 servers in 4 DCs, half the VMs in relationship
  // groups, 24 VMs per server, so many walks find no server with room.
  ScenarioConfig cfg = ScenarioConfig::paper_scale(64, 4);
  cfg.vms = 1536;
  cfg.constrained_fraction = 0.5;
  const RepairDigest digest =
      repair_digest(ScenarioGenerator(cfg).generate(64), 640);
  EXPECT_GT(digest.unrepairable, 0u);  // the failure path is exercised
  expect_golden(digest, 0xf83a01e27a097401ULL, 0x59c3dd8f9c63d444ULL);
}

TEST(TabuRepair, GoldenTwoHundredServers) {
  const RepairDigest digest =
      repair_digest(make_random_instance(200, 200, 400), 2000);
  expect_golden(digest, 0xdc1c422d4421a224ULL, 0xa80be7751c50bdf1ULL);
}

#if IAAS_TELEMETRY
// Counter contract: every move decision (a neighbour search, a group
// relocation, a same-DC straggler search) counts one try and, when it
// applies, one accept — so accepted <= tried, while kDeltaMoves counts
// the individual VM moves (a group relocation moves several).
TEST(TabuRepair, AcceptedMovesNeverExceedTried) {
  using telemetry::Counter;
  telemetry::CounterBlock block;
  {
    telemetry::ScopedSink sink(block);
    // The scattered same-server group: one relocation moves two VMs.
    const Instance grouped = make_instance(
        1, 4, {10.0, 10.0, 10.0},
        {{2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}},
        {{RelationKind::kSameServer, {0, 1, 2}}});
    std::vector<std::int32_t> scattered = {0, 1, 2};
    Rng group_rng(41);
    EXPECT_EQ(TabuRepair(grouped).repair(scattered, group_rng), 0u);

    const Instance inst = make_random_instance(3, 16, 48);
    TabuRepair repair(inst);
    Rng rng(1003);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<std::int32_t> genes(inst.n());
      for (auto& g : genes) {
        g = static_cast<std::int32_t>(rng.uniform_index(inst.m()));
      }
      repair.repair(genes, rng);
    }
  }
  EXPECT_GT(block[Counter::kTabuMovesAccepted], 0u);
  EXPECT_LE(block[Counter::kTabuMovesAccepted],
            block[Counter::kTabuMovesTried]);
  EXPECT_GT(block[Counter::kDeltaMoves], block[Counter::kTabuMovesAccepted]);
}

TEST(TabuRepair, PrunedWalkScansNoCandidates) {
  using telemetry::Counter;
  // One server, overloaded by two VMs that fit nowhere else: the leaf
  // summary rejects every walk before a candidate is offered.
  const Instance full = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{8.0, 8.0, 8.0}, {8.0, 8.0, 8.0}});
  telemetry::CounterBlock pruned;
  {
    telemetry::ScopedSink sink(pruned);
    std::vector<std::int32_t> genes = {0, 0};
    Rng rng(7);
    EXPECT_GT(TabuRepair(full).repair(genes, rng), 0u);
  }
  EXPECT_GT(pruned[Counter::kTabuMovesTried], 0u);
  EXPECT_EQ(pruned[Counter::kTabuCandidatesScanned], 0u);

  // With a free neighbour the walk offers the host, then the neighbour.
  const Instance roomy = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{8.0, 2.0, 2.0}, {8.0, 2.0, 2.0}});
  telemetry::CounterBlock walked;
  {
    telemetry::ScopedSink sink(walked);
    std::vector<std::int32_t> genes = {0, 0};
    Rng rng(1);
    EXPECT_EQ(TabuRepair(roomy).repair(genes, rng), 0u);
  }
  EXPECT_EQ(walked[Counter::kTabuMovesTried], 1u);
  EXPECT_EQ(walked[Counter::kTabuCandidatesScanned], 2u);
}

TEST(TabuRepair, CandidatesScannedIndependentOfThreadCount) {
  // Summed from per-task counter blocks, so the registry total is the
  // same for any thread count.
  using telemetry::Counter;
  const Instance inst = make_random_instance(9, 32, 96);
  const auto scanned_with = [&](std::size_t threads) {
    EaAllocatorOptions options;
    options.nsga.population_size = 20;
    options.nsga.max_evaluations = 400;
    options.nsga.reference_divisions = 4;
    options.nsga.threads = threads;
    telemetry::Registry::global().reset();
    Nsga3TabuAllocator(options).allocate(inst, 13);
    const telemetry::CounterBlock c = telemetry::Registry::global().counters();
    return std::pair{c[Counter::kTabuCandidatesScanned],
                     c[Counter::kTabuMovesTried]};
  };
  const auto serial = scanned_with(1);
  const auto parallel = scanned_with(4);
  EXPECT_GT(serial.first, 0u);
  EXPECT_EQ(serial, parallel);
}

TEST(TabuRepair, TraceRowsNeverAcceptMoreThanTried) {
  EaAllocatorOptions options;
  options.nsga.population_size = 20;
  options.nsga.max_evaluations = 400;
  options.nsga.reference_divisions = 4;
  options.nsga.collect_trace = true;
  Nsga3TabuAllocator allocator(options);
  const AllocationResult result =
      allocator.allocate(make_random_instance(7, 16, 48), 11);
  ASSERT_FALSE(result.trace.rows.empty());
  std::size_t accepted = 0;
  for (const telemetry::GenerationRow& row : result.trace.rows) {
    EXPECT_LE(row.tabu_moves_accepted, row.tabu_moves_tried)
        << "generation " << row.generation;
    accepted += row.tabu_moves_accepted;
  }
  EXPECT_GT(accepted, 0u);
}
#endif

}  // namespace
}  // namespace iaas
