#include "topology/fabric.h"

#include <algorithm>
#include <sstream>

#include "common/expect.h"

namespace iaas {

Fabric::Fabric(const FabricConfig& config) : config_(config) {
  IAAS_EXPECT(config.datacenters > 0, "fabric needs at least one datacenter");
  IAAS_EXPECT(config.spines_per_dc > 0 && config.leaves_per_dc > 0 &&
                  config.servers_per_leaf > 0,
              "fabric tiers must be non-empty");
  server_count_ = config.datacenters * servers_per_datacenter();

  // Core switches first, then per datacenter: spines, leaves, servers.
  for (std::uint32_t c = 0; c < config.cores; ++c) {
    nodes_.push_back({NodeKind::kCore, kNoDatacenter, c});
  }

  for (std::uint32_t dc = 0; dc < config.datacenters; ++dc) {
    std::vector<std::uint32_t> spine_ids;
    spine_ids.reserve(config.spines_per_dc);
    for (std::uint32_t s = 0; s < config.spines_per_dc; ++s) {
      spine_ids.push_back(static_cast<std::uint32_t>(nodes_.size()));
      nodes_.push_back({NodeKind::kSpine, dc, s});
      // Every spine uplinks to every core.
      for (std::uint32_t c = 0; c < config.cores; ++c) {
        links_.push_back({c, spine_ids.back(), config.core_spine_gbps});
      }
    }
    for (std::uint32_t l = 0; l < config.leaves_per_dc; ++l) {
      const auto leaf_id = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back({NodeKind::kLeaf, dc, l});
      // Full Clos: every leaf connects to every spine in its DC.
      for (std::uint32_t spine : spine_ids) {
        links_.push_back({spine, leaf_id, config.spine_leaf_gbps});
      }
      for (std::uint32_t s = 0; s < config.servers_per_leaf; ++s) {
        const auto server_id = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(
            {NodeKind::kServer, dc,
             l * config.servers_per_leaf + s});
        links_.push_back({leaf_id, server_id, config.leaf_server_gbps});
      }
    }
  }
}

std::uint32_t Fabric::datacenter_of_server(std::uint32_t server) const {
  IAAS_EXPECT(server < server_count_, "server index out of range");
  return server / servers_per_datacenter();
}

std::uint32_t Fabric::leaf_of_server(std::uint32_t server) const {
  IAAS_EXPECT(server < server_count_, "server index out of range");
  return (server % servers_per_datacenter()) / config_.servers_per_leaf;
}

ServerRange Fabric::servers_on_leaf(std::uint32_t datacenter,
                                    std::uint32_t leaf) const {
  IAAS_EXPECT(datacenter < config_.datacenters, "datacenter out of range");
  IAAS_EXPECT(leaf < config_.leaves_per_dc, "leaf out of range");
  const std::uint32_t begin = datacenter * servers_per_datacenter() +
                              leaf * config_.servers_per_leaf;
  return {begin, begin + config_.servers_per_leaf};
}

ServerRange Fabric::servers_in_datacenter(std::uint32_t datacenter) const {
  IAAS_EXPECT(datacenter < config_.datacenters, "datacenter out of range");
  const std::uint32_t begin = datacenter * servers_per_datacenter();
  return {begin, begin + servers_per_datacenter()};
}

std::uint32_t Fabric::global_leaf_of_server(std::uint32_t server) const {
  return datacenter_of_server(server) * config_.leaves_per_dc +
         leaf_of_server(server);
}

ServerRange Fabric::servers_on_global_leaf(std::uint32_t global_leaf) const {
  IAAS_EXPECT(global_leaf < leaf_count(), "global leaf out of range");
  return servers_on_leaf(global_leaf / config_.leaves_per_dc,
                         global_leaf % config_.leaves_per_dc);
}

std::uint32_t Fabric::hop_distance(std::uint32_t server_a,
                                   std::uint32_t server_b) const {
  if (server_a == server_b) {
    return 0;
  }
  const std::uint32_t dc_a = datacenter_of_server(server_a);
  const std::uint32_t dc_b = datacenter_of_server(server_b);
  if (dc_a != dc_b) {
    return 6;  // server-leaf-spine-core-spine-leaf-server
  }
  if (leaf_of_server(server_a) == leaf_of_server(server_b)) {
    return 2;  // via the shared leaf
  }
  return 4;  // leaf-spine-leaf inside one DC
}

std::uint32_t Fabric::path_redundancy(std::uint32_t server_a,
                                      std::uint32_t server_b) const {
  const std::uint32_t hops = hop_distance(server_a, server_b);
  switch (hops) {
    case 0:
    case 2:
      return 1;  // single leaf (or none) on the path
    case 4:
      return config_.spines_per_dc;  // one disjoint path per spine
    default:
      return std::min(config_.spines_per_dc, config_.cores);
  }
}

double Fabric::bisection_bandwidth_gbps(std::uint32_t datacenter) const {
  IAAS_EXPECT(datacenter < config_.datacenters, "datacenter out of range");
  return static_cast<double>(config_.spines_per_dc) *
         static_cast<double>(config_.leaves_per_dc) * config_.spine_leaf_gbps;
}

double Fabric::path_bandwidth_gbps(std::uint32_t server_a,
                                   std::uint32_t server_b) const {
  const std::uint32_t hops = hop_distance(server_a, server_b);
  if (hops == 0) {
    return 0.0;  // no network traversal: migration stays on-host
  }
  if (hops == 2) {
    return config_.leaf_server_gbps;
  }
  double bottleneck = std::min(config_.leaf_server_gbps,
                               config_.spine_leaf_gbps);
  if (hops == 6) {
    bottleneck = std::min(bottleneck, config_.core_spine_gbps);
  }
  return bottleneck;
}

std::string Fabric::summary() const {
  std::ostringstream out;
  out << config_.datacenters << " DC x (" << config_.spines_per_dc
      << " spine, " << config_.leaves_per_dc << " leaf, "
      << servers_per_datacenter() << " srv), " << config_.cores << " cores, "
      << server_count_ << " servers total";
  return out.str();
}

}  // namespace iaas
