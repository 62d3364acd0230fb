// Delta-evaluation engine vs full rebuild: the tentpole claim is that
// scoring one single-VM relocation via PlacementState::try_move beats a
// full Evaluator::objectives pass by a wide margin (>= 5x on the
// 64-server / 512-VM reference instance, asserted in CI by
// bench/check_delta_speedup.py).  Run with
// --benchmark_filter='BM_(FullObjectivesPerMove|TryMove)/64$' to see
// exactly that pair.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "model/objectives.h"
#include "model/placement_state.h"
#include "workload/generator.h"

namespace {

using namespace iaas;

// The acceptance instance shape: m servers, 8x VMs (64 -> 512), with
// relationship groups and a previous window so every objective term and
// violation counter is live.
Instance make_instance_for(std::int64_t servers) {
  ScenarioConfig cfg =
      ScenarioConfig::paper_scale(static_cast<std::uint32_t>(servers));
  cfg.vms = static_cast<std::uint32_t>(servers) * 8;
  cfg.preplaced_fraction = 0.5;
  return ScenarioGenerator(cfg).generate(7);
}

Placement random_placement(const Instance& inst, std::uint64_t seed) {
  Rng rng(seed);
  Placement p(inst.n());
  for (std::size_t k = 0; k < inst.n(); ++k) {
    p.assign(k, static_cast<std::int32_t>(rng.uniform_index(inst.m())));
  }
  return p;
}

// Pre-drawn move stream so the timed loop measures evaluation, not RNG.
struct MovePlan {
  std::vector<std::size_t> vms;
  std::vector<std::int32_t> targets;
};

MovePlan make_moves(const Instance& inst, std::size_t count,
                    std::uint64_t seed) {
  Rng rng(seed);
  MovePlan plan;
  plan.vms.reserve(count);
  plan.targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    plan.vms.push_back(rng.uniform_index(inst.n()));
    plan.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(inst.m())));
  }
  return plan;
}

// Baseline: score each candidate move the way the pre-refactor tabu loop
// did — mutate the placement, full Evaluator::objectives, undo.
void BM_FullObjectivesPerMove(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  Evaluator evaluator(inst);
  Placement p = random_placement(inst, 1);
  const MovePlan plan = make_moves(inst, 1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = plan.vms[i];
    const std::int32_t old = p.server_of(k);
    p.assign(k, plan.targets[i]);
    benchmark::DoNotOptimize(evaluator.objectives(p));
    p.assign(k, old);
    i = (i + 1) % plan.vms.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullObjectivesPerMove)->Arg(16)->Arg(64)->Arg(256);

// The delta engine scoring the same move stream.
void BM_TryMove(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  delta_state.rebuild(random_placement(inst, 1));
  const MovePlan plan = make_moves(inst, 1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delta_state.try_move(plan.vms[i], plan.targets[i]));
    i = (i + 1) % plan.vms.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TryMove)->Arg(16)->Arg(64)->Arg(256);

// Committing a move and moving the VM back (two accepted moves of the
// tabu walk).
void BM_ApplyMove(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  delta_state.rebuild(random_placement(inst, 1));
  const MovePlan plan = make_moves(inst, 1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = plan.vms[i];
    const std::int32_t from = delta_state.placement().server_of(k);
    delta_state.apply_move(k, plan.targets[i]);
    delta_state.apply_move(k, from);
    i = (i + 1) % plan.vms.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ApplyMove)->Arg(16)->Arg(64)->Arg(256);

// Full rebuild cost for reference (what the NSGA engine pays once per
// offspring).
void BM_Rebuild(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  const Placement p = random_placement(inst, 1);
  for (auto _ : state) {
    delta_state.rebuild(p);
    benchmark::DoNotOptimize(delta_state.aggregate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Rebuild)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
