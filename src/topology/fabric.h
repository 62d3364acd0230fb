// Core / Spine-Leaf datacenter fabric (paper Fig. 1).
//
// The paper grounds its allocation model on the modern spine-leaf
// architecture [19][20][21]: each datacenter is a two-tier Clos fabric
// (every leaf connects to every spine), datacenters are joined through a
// core layer.  The allocator itself only needs server identities and their
// datacenter membership, but the fabric provides the physical quantities
// the cost and workload models draw on: hop distances (migration locality),
// path redundancy (availability) and bisection bandwidth.
// Server ids are datacenter-major and leaf-major: the ids are the fabric
// order, so no per-server table is kept (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <ranges>
#include <string>
#include <vector>

#include "common/expect.h"

namespace iaas {

enum class NodeKind : std::uint8_t { kCore, kSpine, kLeaf, kServer };

struct FabricNode {
  NodeKind kind;
  std::uint32_t datacenter;  // owning DC; cores use kNoDatacenter
  std::uint32_t index_in_tier;
};

struct FabricLink {
  std::uint32_t a;            // node id
  std::uint32_t b;            // node id
  double bandwidth_gbps;
};

struct FabricConfig {
  std::uint32_t datacenters = 1;
  std::uint32_t cores = 2;              // shared inter-DC core switches
  std::uint32_t spines_per_dc = 2;
  std::uint32_t leaves_per_dc = 4;
  std::uint32_t servers_per_leaf = 8;
  double core_spine_gbps = 100.0;
  double spine_leaf_gbps = 40.0;
  double leaf_server_gbps = 10.0;
};

// A contiguous run of global server ids [begin, end).
using ServerRange = std::ranges::iota_view<std::uint32_t, std::uint32_t>;

class Fabric {
 public:
  static constexpr std::uint32_t kNoDatacenter = 0xffffffffu;
  static constexpr std::uint32_t kNoServer = 0xffffffffu;

  explicit Fabric(const FabricConfig& config);

  [[nodiscard]] const FabricConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t datacenter_count() const {
    return config_.datacenters;
  }
  [[nodiscard]] std::uint32_t server_count() const { return server_count_; }
  [[nodiscard]] std::uint32_t servers_per_datacenter() const {
    return config_.leaves_per_dc * config_.servers_per_leaf;
  }

  // Global server index -> owning datacenter / leaf.
  [[nodiscard]] std::uint32_t datacenter_of_server(std::uint32_t server) const;
  [[nodiscard]] std::uint32_t leaf_of_server(std::uint32_t server) const;

  // The servers of a (datacenter, leaf) pair / of one datacenter.
  [[nodiscard]] ServerRange servers_on_leaf(std::uint32_t datacenter,
                                            std::uint32_t leaf) const;
  [[nodiscard]] ServerRange servers_in_datacenter(
      std::uint32_t datacenter) const;

  // Leaves enumerated globally (datacenter-major, matching the global
  // server order), so correlated failure domains can be indexed with one
  // integer: global leaf g hosts servers [g*servers_per_leaf,
  // (g+1)*servers_per_leaf).
  [[nodiscard]] std::uint32_t leaf_count() const {
    return config_.datacenters * config_.leaves_per_dc;
  }
  [[nodiscard]] std::uint32_t global_leaf_of_server(
      std::uint32_t server) const;
  [[nodiscard]] ServerRange servers_on_global_leaf(
      std::uint32_t global_leaf) const;

  // Network hop count between two servers: 0 same server, 2 same leaf,
  // 4 same DC (leaf-spine-leaf), 6 across DCs (via core).
  [[nodiscard]] std::uint32_t hop_distance(std::uint32_t server_a,
                                           std::uint32_t server_b) const;

  // Nearest-first walk: offers servers to `accept` in the order of
  // stable_sort(all ids, by hop_distance(source, .)) and returns the
  // first one accepted (kNoServer if none is).
  template <typename Accept>
  std::uint32_t nearest_server(std::uint32_t source, Accept&& accept) const {
    IAAS_EXPECT(source < server_count_, "server index out of range");
    const std::uint32_t per_leaf = config_.servers_per_leaf;
    const std::uint32_t per_dc = servers_per_datacenter();
    const std::uint32_t leaf_b = source / per_leaf * per_leaf;
    const std::uint32_t leaf_e = leaf_b + per_leaf;
    const std::uint32_t dc_b = source / per_dc * per_dc;
    const std::uint32_t dc_e = dc_b + per_dc;
    // Self, then the rest of its leaf, of its datacenter, of the fleet:
    // each tier ascending, split around the nearer tier it contains.  One
    // loop body over a bounds table, so `accept` is inlined once and the
    // per-candidate code stays as tight as a walk over a stored order.
    const std::uint32_t tiers[7][2] = {
        {source, source + 1}, {leaf_b, source}, {source + 1, leaf_e},
        {dc_b, leaf_b},       {leaf_e, dc_e},   {0, dc_b},
        {dc_e, server_count_}};
    for (const auto& [begin, end] : tiers) {
      for (std::uint32_t j = begin; j < end; ++j) {
        if (accept(j)) {
          return j;
        }
      }
    }
    return kNoServer;
  }

  // Number of edge-disjoint shortest paths between two servers; the
  // redundancy the spine-leaf design buys [19].
  [[nodiscard]] std::uint32_t path_redundancy(std::uint32_t server_a,
                                              std::uint32_t server_b) const;

  // Aggregate leaf-to-spine bandwidth of one datacenter (its bisection
  // ceiling under full Clos wiring).
  [[nodiscard]] double bisection_bandwidth_gbps(std::uint32_t datacenter) const;

  // Bottleneck link bandwidth along a shortest server-to-server path.
  [[nodiscard]] double path_bandwidth_gbps(std::uint32_t server_a,
                                           std::uint32_t server_b) const;

  [[nodiscard]] const std::vector<FabricNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<FabricLink>& links() const { return links_; }

  // Human-readable one-line summary ("2 DC x (2 spine, 4 leaf, 32 srv)").
  [[nodiscard]] std::string summary() const;

 private:
  FabricConfig config_;
  std::uint32_t server_count_;
  std::vector<FabricNode> nodes_;
  std::vector<FabricLink> links_;
};

}  // namespace iaas
