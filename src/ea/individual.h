// EA solution representation (paper §III): each individual's chromosome
// is the VM list; each gene holds the hosting server ID.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "model/objectives.h"

namespace iaas {

struct Individual {
  std::vector<std::int32_t> genes;  // VM k -> server id

  // Objective values (usage, downtime, migration — Eq. 15 terms), set by
  // evaluation; constrained modes add the violation count.
  std::array<double, ObjectiveVector::kCount> objectives{};
  std::uint32_t violations = 0;

  // Selection bookkeeping (owned by the NSGA engines).
  std::uint32_t rank = 0;
  double crowding = 0.0;
  // NSGA-III association (set by its environmental selection; consumed
  // by the U-NSGA-III niche tournament).
  std::uint32_t ref_index = 0;
  double ref_distance = 0.0;
};

using Population = std::vector<Individual>;

// Pareto dominance on raw objective values (minimisation); the kernel the
// Individual overload and the penalised comparators share.
bool dominates(std::span<const double> a, std::span<const double> b);

// Pareto dominance on the objective arrays (minimisation).
bool dominates(const Individual& a, const Individual& b);

// Deb's constrained dominance: feasible beats infeasible; among
// infeasible, fewer violations win; among feasible, Pareto dominance.
bool constrained_dominates(const Individual& a, const Individual& b);

}  // namespace iaas
