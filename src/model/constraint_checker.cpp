#include "model/constraint_checker.h"

#include <algorithm>
#include <span>

#include "model/placement_state.h"

namespace iaas {

void ConstraintChecker::compute_used(const Placement& placement,
                                     Matrix<double>& used) const {
  const Instance& inst = *instance_;
  const std::size_t m = inst.m();
  const std::size_t h = inst.h();
  if (used.rows() != m || used.cols() != h) {
    used = Matrix<double>(m, h);
  } else {
    used.fill(0.0);
  }
  for (std::size_t k = 0; k < inst.n(); ++k) {
    if (!placement.is_assigned(k)) {
      continue;
    }
    const auto j = static_cast<std::size_t>(placement.server_of(k));
    const VmRequest& vm = inst.requests.vms[k];
    for (std::size_t l = 0; l < h; ++l) {
      used(j, l) += vm.demand[l];
    }
  }
}

ViolationReport ConstraintChecker::check(const Placement& placement) const {
  const Instance& inst = *instance_;
  IAAS_EXPECT(placement.vm_count() == inst.n(),
              "placement size mismatch with instance");

  ViolationReport report;
  report.rejected_vms =
      static_cast<std::uint32_t>(placement.rejected_count());

  Matrix<double> used;
  compute_used(placement, used);

  for (std::size_t j = 0; j < inst.m(); ++j) {
    const Server& server = inst.infra.server(j);
    bool overloaded = false;
    for (std::size_t l = 0; l < inst.h(); ++l) {
      if (used(j, l) > server.effective_capacity(l) + kCapacityEps) {
        ++report.capacity_violations;
        overloaded = true;
      }
    }
    if (overloaded) {
      report.overloaded_servers.push_back(static_cast<std::uint32_t>(j));
    }
  }

  for (const PlacementConstraint& c : inst.requests.constraints) {
    if (!relation_satisfied(c, placement)) {
      ++report.relation_violations;
    }
  }
  return report;
}

bool ConstraintChecker::members_compatible(RelationKind kind, std::size_t a,
                                           std::size_t b) const {
  const Infrastructure& infra = instance_->infra;
  switch (kind) {
    case RelationKind::kSameServer:
      return a == b;
    case RelationKind::kSameDatacenter:
      return infra.datacenter_of(a) == infra.datacenter_of(b);
    case RelationKind::kDifferentServers:
      return a != b;
    case RelationKind::kDifferentDatacenters:
      return infra.datacenter_of(a) != infra.datacenter_of(b);
  }
  return true;
}

bool ConstraintChecker::relation_satisfied(const PlacementConstraint& c,
                                           const Placement& placement) const {
  // Only assigned members count; groups with < 2 placed members cannot be
  // violated.  The affinity kinds are equivalence relations, so checking
  // every member against the first placed one decides the group; the
  // anti-affinity kinds must hold for every placed pair.
  const std::vector<std::uint32_t>& vms = c.vms;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (!placement.is_assigned(vms[i])) {
      continue;
    }
    const auto a = static_cast<std::size_t>(placement.server_of(vms[i]));
    for (std::size_t p = i + 1; p < vms.size(); ++p) {
      if (!placement.is_assigned(vms[p])) {
        continue;
      }
      const auto b = static_cast<std::size_t>(placement.server_of(vms[p]));
      if (!members_compatible(c.kind, a, b)) {
        return false;
      }
    }
    if (c.is_affinity()) {
      break;
    }
  }
  return true;
}

bool ConstraintChecker::peers_allow(const PlacementConstraint& c,
                                    const Placement& placement, std::size_t k,
                                    std::size_t j) const {
  for (std::uint32_t peer : c.vms) {
    if (peer == k || !placement.is_assigned(peer)) {
      continue;
    }
    const auto b = static_cast<std::size_t>(placement.server_of(peer));
    if (!members_compatible(c.kind, j, b)) {
      return false;
    }
  }
  return true;
}

bool ConstraintChecker::is_valid_allocation(const Placement& placement,
                                            const Matrix<double>& used,
                                            std::size_t k,
                                            std::size_t j) const {
  const Instance& inst = *instance_;
  const Server& server = inst.infra.server(j);
  const VmRequest& vm = inst.requests.vms[k];

  // Capacity after adding k to j; if k is currently on j its demand is
  // already inside `used`, so only test the increment when moving in.
  const bool already_there =
      placement.is_assigned(k) &&
      static_cast<std::size_t>(placement.server_of(k)) == j;
  for (std::size_t l = 0; l < inst.h(); ++l) {
    const double add = already_there ? 0.0 : vm.demand[l];
    if (used(j, l) + add > server.effective_capacity(l) + kCapacityEps) {
      return false;
    }
  }

  // Relationship constraints involving k, against already-assigned peers.
  // Callers without a StateTables have no VM -> constraint index, so the
  // groups are found by scanning.
  for (const PlacementConstraint& c : inst.requests.constraints) {
    if (std::find(c.vms.begin(), c.vms.end(),
                  static_cast<std::uint32_t>(k)) != c.vms.end() &&
        !peers_allow(c, placement, k, j)) {
      return false;
    }
  }
  return true;
}

bool ConstraintChecker::is_valid_move(const PlacementState& state,
                                      std::size_t k, std::size_t j) const {
  IAAS_DEBUG_EXPECT(&state.instance() == instance_,
                    "state built against a different instance");
  const StateTables& tables = *state.tables();
  const Placement& placement = state.placement();

  // The same capacity test as is_valid_allocation, on the state's
  // accumulators and the flattened demand/capacity rows.
  const bool already_there =
      placement.is_assigned(k) &&
      static_cast<std::size_t>(placement.server_of(k)) == j;
  const std::span<const double> used = state.used().row(j);
  const std::span<const double> ecap = tables.effective_capacity.row(j);
  const std::span<const double> demand = tables.demand.row(k);
  for (std::size_t l = 0; l < demand.size(); ++l) {
    const double add = already_there ? 0.0 : demand[l];
    if (used[l] + add > ecap[l] + kCapacityEps) {
      return false;
    }
  }

  // Only the groups that mention k (the CSR adjacency), not every
  // constraint of the instance.
  const auto& constraints = instance_->requests.constraints;
  for (std::uint32_t c : tables.constraints_of(k)) {
    if (!peers_allow(constraints[c], placement, k, j)) {
      return false;
    }
  }
  return true;
}

}  // namespace iaas
