// Delta-evaluation engine (PlacementState): every accumulator must agree
// with a from-scratch Evaluator::evaluate after any sequence of moves,
// rejections, and moves back — the invariant DESIGN.md §7 promises.
#include "model/placement_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "model/objectives.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

constexpr double kTol = 1e-9;

// Asserts that the incremental state matches a full rebuild of the same
// placement, objective term by term and violation count by count.
void expect_matches_full(PlacementState& state, Evaluator& evaluator) {
  const Evaluation full = evaluator.evaluate(state.placement());
  const ObjectiveVector incremental = state.objectives();
  EXPECT_NEAR(incremental.usage_cost, full.objectives.usage_cost, kTol);
  EXPECT_NEAR(incremental.downtime_cost, full.objectives.downtime_cost, kTol);
  EXPECT_NEAR(incremental.migration_cost, full.objectives.migration_cost,
              kTol);
  EXPECT_NEAR(state.aggregate(), full.objectives.aggregate(), kTol);
  EXPECT_EQ(state.capacity_violations(), full.violations.capacity_violations);
  EXPECT_EQ(state.relation_violations(), full.violations.relation_violations);
  EXPECT_EQ(state.rejected_count(), full.violations.rejected_vms);
  EXPECT_EQ(state.violation_report().overloaded_servers,
            full.violations.overloaded_servers);
}

Instance constrained_instance(std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.vms = 48;
  cfg.constrained_fraction = 0.5;   // plenty of relationship groups
  cfg.preplaced_fraction = 0.5;     // exercise the migration term
  return ScenarioGenerator(cfg).generate(seed);
}

std::vector<std::int32_t> random_genes(const Instance& inst, Rng& rng) {
  std::vector<std::int32_t> genes(inst.n());
  for (auto& g : genes) {
    // ~10% rejected so the rejection bookkeeping is exercised too.
    g = rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
  }
  return genes;
}

TEST(PlacementState, FreshStateIsEmptyAndConsistent) {
  const Instance inst = constrained_instance(1);
  PlacementState state(inst);
  Evaluator evaluator(inst);
  EXPECT_EQ(state.rejected_count(), inst.n());
  EXPECT_DOUBLE_EQ(state.aggregate(), 0.0);
  expect_matches_full(state, evaluator);
}

TEST(PlacementState, RebuildMatchesEvaluator) {
  const Instance inst = constrained_instance(2);
  PlacementState state(inst);
  Evaluator evaluator(inst);
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    state.rebuild(random_genes(inst, rng));
    expect_matches_full(state, evaluator);
  }
}

TEST(PlacementState, TryMoveLeavesStateUntouched) {
  const Instance inst = constrained_instance(3);
  PlacementState state(inst);
  Rng rng(11);
  state.rebuild(random_genes(inst, rng));
  const ObjectiveVector before = state.objectives();
  const Placement snapshot = state.placement();
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = rng.uniform_index(inst.n());
    const auto target =
        static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    (void)state.try_move(k, target);
  }
  EXPECT_EQ(state.placement(), snapshot);
  EXPECT_DOUBLE_EQ(state.objectives().aggregate(), before.aggregate());
}

TEST(PlacementState, TryMovePredictsFullEvaluation) {
  const Instance inst = constrained_instance(4);
  PlacementState state(inst);
  Evaluator evaluator(inst);
  Rng rng(13);
  state.rebuild(random_genes(inst, rng));

  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = rng.uniform_index(inst.n());
    const std::int32_t target =
        rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    const ObjectiveDelta delta = state.try_move(k, target);

    Placement hypothetical = state.placement();
    hypothetical.assign(k, target);
    const Evaluation full = evaluator.evaluate(hypothetical);
    EXPECT_NEAR(delta.objectives.usage_cost, full.objectives.usage_cost,
                kTol);
    EXPECT_NEAR(delta.objectives.downtime_cost,
                full.objectives.downtime_cost, kTol);
    EXPECT_NEAR(delta.objectives.migration_cost,
                full.objectives.migration_cost, kTol);
    EXPECT_NEAR(delta.aggregate_delta,
                full.objectives.aggregate() - state.aggregate(), kTol);
    EXPECT_EQ(static_cast<std::int32_t>(state.total_violations()) +
                  delta.violations_delta,
              static_cast<std::int32_t>(full.violations.total()));
  }
}

TEST(PlacementState, ApplyMoveCommitsTheScoredMove) {
  const Instance inst = constrained_instance(5);
  PlacementState state(inst);
  Evaluator evaluator(inst);
  Rng rng(17);
  state.rebuild(random_genes(inst, rng));

  const std::size_t k = 0;
  const std::int32_t target =
      (state.placement().server_of(k) + 1) %
      static_cast<std::int32_t>(inst.m());
  const ObjectiveDelta delta = state.try_move(k, target);
  state.apply_move(k, target);
  EXPECT_EQ(state.placement().server_of(k), target);
  EXPECT_NEAR(state.aggregate(), delta.objectives.aggregate(), kTol);
  expect_matches_full(state, evaluator);
}

TEST(PlacementState, MovingBackRestoresEverything) {
  const Instance inst = constrained_instance(6);
  PlacementState state(inst);
  Evaluator evaluator(inst);
  Rng rng(19);
  state.rebuild(random_genes(inst, rng));
  const Placement original = state.placement();
  const double original_aggregate = state.aggregate();

  // Each move's source server, so the walk can be undone in LIFO order.
  std::vector<std::pair<std::size_t, std::int32_t>> sources;
  Rng move_rng(23);
  for (int i = 0; i < 50; ++i) {
    const std::size_t k = move_rng.uniform_index(inst.n());
    const std::int32_t target =
        move_rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(move_rng.uniform_index(inst.m()));
    sources.emplace_back(k, state.placement().server_of(k));
    state.apply_move(k, target);
  }
  EXPECT_EQ(state.applied_moves(), 50u);
  for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
    state.apply_move(it->first, it->second);
  }
  EXPECT_EQ(state.placement(), original);
  EXPECT_NEAR(state.aggregate(), original_aggregate, kTol);
  expect_matches_full(state, evaluator);
  state.rebuild(original);
  EXPECT_EQ(state.applied_moves(), 0u);
}

TEST(PlacementState, RelationViolationsTrackMoves) {
  // Two VMs bound to the same server, placed apart then together.
  PlacementConstraint c;
  c.kind = RelationKind::kSameServer;
  c.vms = {0, 1};
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}, {c});
  PlacementState state(inst);
  state.rebuild(std::vector<std::int32_t>{0, 1});
  EXPECT_EQ(state.relation_violations(), 1u);

  const ObjectiveDelta fix = state.try_move(1, 0);
  EXPECT_EQ(fix.violations_delta, -1);
  state.apply_move(1, 0);
  EXPECT_EQ(state.relation_violations(), 0u);
  state.apply_move(1, 1);
  EXPECT_EQ(state.relation_violations(), 1u);
}

TEST(PlacementState, CapacityViolationsTrackMoves) {
  // One server of capacity 10 receiving 2 x 6 demand.
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{6.0, 6.0, 6.0}, {6.0, 6.0, 6.0}});
  PlacementState state(inst);
  state.rebuild(std::vector<std::int32_t>{0, 1});
  EXPECT_EQ(state.capacity_violations(), 0u);
  EXPECT_FALSE(state.server_overloaded(0));

  const ObjectiveDelta crowd = state.try_move(1, 0);
  EXPECT_EQ(crowd.violations_delta, 3);  // all three attributes exceed
  state.apply_move(1, 0);
  EXPECT_TRUE(state.server_overloaded(0));
  EXPECT_EQ(state.capacity_violations(), 3u);
  state.apply_move(1, 1);
  EXPECT_EQ(state.capacity_violations(), 0u);
}

TEST(ConstraintChecker, IsValidMoveMatchesIsValidAllocation) {
  // is_valid_move visits only the constraints that mention k (the CSR
  // adjacency); is_valid_allocation scans every constraint.  They must
  // agree after every move, with all four relation kinds present and
  // VMs 0-3 in two groups each (the generator puts a VM in at most one).
  Instance inst = constrained_instance(8);
  auto& constraints = inst.requests.constraints;
  constraints.push_back({RelationKind::kSameServer, {0, 1}});
  constraints.push_back({RelationKind::kSameDatacenter, {1, 2, 3}});
  constraints.push_back({RelationKind::kDifferentServers, {0, 2, 4}});
  constraints.push_back({RelationKind::kDifferentDatacenters, {3, 5}});
  const ConstraintChecker checker(inst);
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  Rng rng(29);
  state.rebuild(random_genes(inst, rng));

  Matrix<double> used;
  for (int step = 0; step < 60; ++step) {
    checker.compute_used(state.placement(), used);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t k = trial < 6 ? static_cast<std::size_t>(trial)
                                      : rng.uniform_index(inst.n());
      const std::size_t j = rng.uniform_index(inst.m());
      EXPECT_EQ(checker.is_valid_move(state, k, j),
                checker.is_valid_allocation(state.placement(), used, k, j))
          << "step " << step << " vm " << k << " server " << j;
    }
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      EXPECT_EQ(state.relation_ok(c),
                checker.relation_satisfied(constraints[c], state.placement()))
          << "step " << step << " constraint " << c;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
    // Half the moves land on a grouped VM, so the groups keep changing.
    const std::size_t k = rng.bernoulli(0.5) ? rng.uniform_index(6)
                                             : rng.uniform_index(inst.n());
    state.apply_move(k, rng.bernoulli(0.1)
                            ? Placement::kRejected
                            : static_cast<std::int32_t>(
                                  rng.uniform_index(inst.m())));
  }
}

// True when some server other than k's host passes is_valid_move's
// capacity test for k (the only part the leaf summary speaks for).
bool some_server_has_room(const PlacementState& state, std::size_t k) {
  const Instance& inst = state.instance();
  for (std::size_t j = 0; j < inst.m(); ++j) {
    if (state.placement().server_of(k) == static_cast<std::int32_t>(j)) {
      continue;
    }
    bool room = true;
    for (std::size_t l = 0; l < inst.h(); ++l) {
      room = room && state.used()(j, l) + inst.requests.vms[k].demand[l] <=
                         inst.infra.server(j).effective_capacity(l) +
                             kCapacityEps;
    }
    if (room) {
      return true;
    }
  }
  return false;
}

TEST(PlacementState, LeafSummaryPrunesExactlyAtTheResidual) {
  // 2 DCs x 2 leaves x 2 servers of capacity 0.3, each holding a 0.1
  // filler, so every residual is 0.2 up to rounding (0.1 + 0.2 > 0.3 in
  // binary).  Unassigned probes ask for the residual plus offsets around
  // kCapacityEps: whenever a server passes the exact test, the summary
  // must report a fitting leaf; well past the slack it must not.
  FabricConfig fc;
  fc.datacenters = 2;
  fc.leaves_per_dc = 2;
  fc.servers_per_leaf = 2;
  std::vector<Server> servers;
  for (std::uint32_t j = 0; j < 8; ++j) {
    servers.push_back(test::make_server(j / 4, {0.3, 0.3, 0.3}));
  }
  RequestSet requests;
  for (int j = 0; j < 8; ++j) {
    requests.vms.push_back(test::make_vm({0.1, 0.1, 0.1}));
  }
  const std::vector<double> offsets = {-1e-9, 0.0,          1e-12,
                                       5e-10, kCapacityEps, 1.5e-9,
                                       1e-6,  0.1};
  for (double offset : offsets) {
    requests.vms.push_back(test::make_vm({0.2 + offset, 0.05, 0.05}));
  }
  const Instance inst(Infrastructure(fc, std::move(servers)),
                      std::move(requests));
  const ConstraintChecker checker(inst);
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  std::vector<std::int32_t> genes(inst.n(), Placement::kRejected);
  for (std::int32_t j = 0; j < 8; ++j) {
    genes[static_cast<std::size_t>(j)] = j;
  }
  state.rebuild(genes);

  for (std::size_t p = 0; p < offsets.size(); ++p) {
    const std::size_t k = 8 + p;
    const bool any_valid = some_server_has_room(state, k);
    for (std::size_t j = 0; j < inst.m(); ++j) {
      EXPECT_EQ(checker.is_valid_move(state, k, j), any_valid)
          << "offset " << offsets[p];  // all servers are alike
    }
    if (any_valid) {
      EXPECT_TRUE(state.any_leaf_fits(k)) << "offset " << offsets[p];
    }
  }
  EXPECT_TRUE(some_server_has_room(state, 8 + 1));  // exactly the residual
  EXPECT_FALSE(state.any_leaf_fits(8 + 6));         // 1e-6 over: pruned
  EXPECT_FALSE(state.any_leaf_fits(8 + 7));

  // Emptying server 5 makes its leaf fit the 0.3 probe; the summary must
  // see the move (and the move back) without a rebuild.
  state.apply_move(5, Placement::kRejected);
  EXPECT_TRUE(state.any_leaf_fits(8 + 7));
  EXPECT_TRUE(checker.is_valid_move(state, 8 + 7, 5));
  EXPECT_FALSE(checker.is_valid_move(state, 8 + 7, 4));
  state.apply_move(5, 5);
  EXPECT_FALSE(state.any_leaf_fits(8 + 7));

  // Same on a leaf of the other datacenter.
  state.apply_move(2, Placement::kRejected);
  EXPECT_TRUE(state.any_leaf_fits(8 + 7));
}

TEST(PlacementState, LeafSummaryNeverHidesAValidMove) {
  // A saturated fleet (VMs dealt round-robin, 24 per server since
  // paper-scale servers are large, ~10 % rejected) under random moves:
  // whenever the summary reports no fitting leaf for a VM, no server
  // other than its host passes is_valid_move.  The prune must also
  // actually fire.
  ScenarioConfig cfg = ScenarioConfig::paper_scale(64, 4);
  cfg.vms = 1536;
  cfg.constrained_fraction = 0.5;
  const Instance inst = ScenarioGenerator(cfg).generate(17);
  const ConstraintChecker checker(inst);
  for (const StateTracking tracking :
       {StateTracking::kViolationsOnly, StateTracking::kFull}) {
    PlacementState state(inst, {}, tracking);
    Rng rng(47);
    std::vector<std::int32_t> genes(inst.n());
    for (std::size_t k = 0; k < inst.n(); ++k) {
      genes[k] = rng.bernoulli(0.1) ? Placement::kRejected
                                    : static_cast<std::int32_t>(k % inst.m());
    }
    state.rebuild(genes);
    std::size_t pruned = 0;  // (vm, step) pairs the summary rejects
    std::size_t fitting = 0;
    for (int step = 0; step < 40; ++step) {
      for (std::size_t k = 0; k < inst.n(); ++k) {
        if (state.any_leaf_fits(k)) {
          ++fitting;
          continue;
        }
        ++pruned;
        EXPECT_FALSE(some_server_has_room(state, k)) << "vm " << k;
        for (std::size_t j = 0; j < inst.m(); ++j) {
          if (state.placement().server_of(k) != static_cast<std::int32_t>(j)) {
            EXPECT_FALSE(checker.is_valid_move(state, k, j))
                << "vm " << k << " server " << j;
          }
        }
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "summary hid a valid move at step " << step;
      }
      const std::size_t k = rng.uniform_index(inst.n());
      state.apply_move(k, rng.bernoulli(0.5)
                              ? Placement::kRejected
                              : static_cast<std::int32_t>(
                                    rng.uniform_index(inst.m())));
    }
    EXPECT_GT(pruned, 0u);
    EXPECT_GT(fitting, 0u);
  }
}

TEST(PlacementState, ViolationsOnlyModeTracksViolationsExactly) {
  // The repair operators run the state in kViolationsOnly mode; its
  // violation counters, used matrix, and VM lists must stay identical to
  // the full-tracking state through any move sequence.
  const Instance inst = constrained_instance(9);
  PlacementState full(inst);
  PlacementState lean(inst, {}, StateTracking::kViolationsOnly);
  Rng rng(31);
  const std::vector<std::int32_t> genes = random_genes(inst, rng);
  full.rebuild(genes);
  lean.rebuild(genes);

  for (int step = 0; step < 200; ++step) {
    const std::size_t k = rng.uniform_index(inst.n());
    const std::int32_t target =
        rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    const ObjectiveDelta full_delta = full.try_move(k, target);
    const std::int32_t predicted =
        static_cast<std::int32_t>(full.total_violations()) +
        full_delta.violations_delta;
    full.apply_move(k, target);
    lean.apply_move(k, target);
    EXPECT_EQ(static_cast<std::int32_t>(lean.total_violations()), predicted);
    EXPECT_EQ(lean.capacity_violations(), full.capacity_violations());
    EXPECT_EQ(lean.relation_violations(), full.relation_violations());
    EXPECT_EQ(lean.rejected_count(), full.rejected_count());
    EXPECT_EQ(lean.placement(), full.placement());
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
  }
  for (std::size_t j = 0; j < inst.m(); ++j) {
    EXPECT_EQ(lean.server_overloaded(j), full.server_overloaded(j));
  }
}

TEST(PlacementState, SharedTablesMatchPrivateTables) {
  // Several states over one immutable StateTables must behave exactly
  // like states that flattened the instance themselves.
  const Instance inst = constrained_instance(10);
  const auto tables = std::make_shared<const StateTables>(inst);
  PlacementState shared_a(inst, {}, StateTracking::kFull, tables);
  PlacementState shared_b(inst, {}, StateTracking::kViolationsOnly, tables);
  PlacementState private_state(inst);
  Evaluator evaluator(inst);
  Rng rng(37);
  const std::vector<std::int32_t> genes = random_genes(inst, rng);
  shared_a.rebuild(genes);
  shared_b.rebuild(genes);
  private_state.rebuild(genes);
  expect_matches_full(shared_a, evaluator);
  EXPECT_NEAR(shared_a.aggregate(), private_state.aggregate(), kTol);
  EXPECT_EQ(shared_b.capacity_violations(),
            private_state.capacity_violations());
  EXPECT_EQ(shared_b.relation_violations(),
            private_state.relation_violations());
  EXPECT_EQ(shared_a.tables().get(), tables.get());
}

TEST(PlacementState, MembershipListsMirrorThePlacement) {
  // vms_on(j) must enumerate exactly the VMs the placement maps to j;
  // a fresh rebuild lists them in ascending VM order (tail insertion).
  const Instance inst = constrained_instance(11);
  PlacementState state(inst);
  Rng rng(41);
  state.rebuild(random_genes(inst, rng));

  std::size_t total_members = 0;
  for (std::size_t j = 0; j < inst.m(); ++j) {
    std::vector<std::uint32_t> members(state.vms_on(j).begin(),
                                       state.vms_on(j).end());
    EXPECT_EQ(members.size(), state.vm_count_on(j));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const std::uint32_t k : members) {
      EXPECT_EQ(state.placement().server_of(k),
                static_cast<std::int32_t>(j));
    }
    total_members += members.size();
  }
  EXPECT_EQ(total_members, inst.n() - state.rejected_count());
}

// The headline property: hundreds of interleaved moves and moves back,
// cross-checked against a full rebuild at every step.
class PlacementStateProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlacementStateProperty, DeltaAgreesWithFullAtEveryStep) {
  const Instance inst = constrained_instance(GetParam());
  PlacementState state(inst);
  Evaluator evaluator(inst);
  Rng rng(GetParam() * 7919 + 1);
  state.rebuild(random_genes(inst, rng));
  expect_matches_full(state, evaluator);

  // Source server of each move not yet moved back, most recent last.
  std::vector<std::pair<std::size_t, std::int32_t>> sources;
  for (int step = 0; step < 300; ++step) {
    if (!sources.empty() && rng.bernoulli(0.25)) {
      state.apply_move(sources.back().first, sources.back().second);
      sources.pop_back();
    } else {
      const std::size_t k = rng.uniform_index(inst.n());
      const std::int32_t target =
          rng.bernoulli(0.1)
              ? Placement::kRejected
              : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
      const ObjectiveDelta delta = state.try_move(k, target);
      const std::int32_t predicted =
          static_cast<std::int32_t>(state.total_violations()) +
          delta.violations_delta;
      sources.emplace_back(k, state.placement().server_of(k));
      state.apply_move(k, target);
      EXPECT_NEAR(state.aggregate(), delta.objectives.aggregate(), kTol);
      EXPECT_EQ(static_cast<std::int32_t>(state.total_violations()),
                predicted);
    }
    expect_matches_full(state, evaluator);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementStateProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace iaas
