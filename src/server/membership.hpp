#pragma once

// Cluster membership and partition placement (DESIGN.md §9.3): sessions
// hash onto a fixed set of partitions, and partitions are placed on vault
// nodes by consistent hashing — each node projects `vnodes` virtual points
// onto a ring, a partition's primary is the successor of the partition's
// own point, and its replica is the next *distinct* node clockwise. The
// consistent-hash property is what makes failure recovery cheap: removing
// one node only moves the partitions that node actually held; every other
// (primary, replica) pair is bit-identical across the rebuild (asserted in
// tests/cluster_test.cpp).
//
// The map is a plain value type versioned by rebuild count. VaultCluster
// owns the authoritative copy behind its topology lock; gateways never see
// the map directly — they observe placement only through typed statuses
// (kUnavailable while a partition's owner is down and not yet failed over).
//
// Thread-safety: none here; PartitionMap is externally synchronized
// (cluster.cpp holds its topology lock across rebuild and lookup).

#include <cstdint>
#include <vector>

namespace wavekey::server {

/// Vault-node index within a cluster.
using NodeId = std::uint32_t;

/// Placement slot for "no node available" (e.g. replica in a 1-node cluster).
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// Stable session -> partition projection (splitmix64-mixed, so sequential
/// session ids spread uniformly). Pure function shared by cluster and tests.
std::uint32_t partition_of(std::uint64_t session_id, std::uint32_t partitions);

/// Owners of one partition. primary serves; replica holds the hot copy.
struct PartitionOwners {
  NodeId primary = kNoNode;
  NodeId replica = kNoNode;
};

class PartitionMap {
 public:
  /// @param partitions  fixed partition count (>= 1); never changes.
  /// @param vnodes      virtual ring points per node (placement smoothness).
  explicit PartitionMap(std::uint32_t partitions, std::uint32_t vnodes = 64);

  /// Recomputes placement from the given live node set via the hash ring and
  /// bumps version(). An empty node set leaves every partition unowned.
  void rebuild(const std::vector<NodeId>& up_nodes);

  const PartitionOwners& owners(std::uint32_t partition) const {
    return owners_[partition];
  }
  std::uint32_t partitions() const { return static_cast<std::uint32_t>(owners_.size()); }
  /// Monotonic rebuild count — lets callers detect topology changes cheaply.
  std::uint64_t version() const { return version_; }

 private:
  std::uint32_t vnodes_;
  std::vector<PartitionOwners> owners_;
  std::uint64_t version_ = 0;
};

}  // namespace wavekey::server
