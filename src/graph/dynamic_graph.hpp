// Mutable overlay graph supporting node churn (joins, departures) as in the
// paper's Section 5.3 dynamic scenarios. Departing nodes take their edges
// with them; surviving neighbours do not seek replacements (paper §5.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace overcount {

/// Adjacency-list graph with an alive/dead flag per slot. NodeIds are stable
/// for the lifetime of a node; removed slots are never reused, so an id seen
/// by an in-flight probe is never silently rebound to a different peer.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Copies a static graph; every node starts alive.
  explicit DynamicGraph(const Graph& g);

  /// Total slots ever allocated (alive + dead).
  std::size_t num_slots() const noexcept { return adjacency_.size(); }
  /// Currently alive nodes.
  std::size_t num_alive() const noexcept { return alive_list_.size(); }
  /// Current undirected edge count.
  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t total_degree() const noexcept { return 2 * num_edges_; }

  bool alive(NodeId v) const {
    OVERCOUNT_EXPECTS(v < adjacency_.size());
    return alive_[v];
  }

  std::size_t degree(NodeId v) const {
    OVERCOUNT_EXPECTS(v < adjacency_.size());
    return adjacency_[v].size();
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    OVERCOUNT_EXPECTS(v < adjacency_.size());
    return adjacency_[v];
  }

  bool has_edge(NodeId u, NodeId v) const;

  /// Monotonically increasing topology version: bumped once by every
  /// mutation (add_node counts its edges too — one bump per add_edge it
  /// performs plus one for the node). Two equal versions therefore mean
  /// the topology is unchanged, so a consumer that snapshots the graph can
  /// detect staleness by comparing versions (the serve-layer cache keys its
  /// invalidation on exactly this).
  std::uint64_t version() const noexcept { return version_; }

  /// Adds an alive node connected to `targets` (all must be alive, distinct,
  /// and not equal to the new node). Returns the new node's id.
  NodeId add_node(std::span<const NodeId> targets);

  /// Adds edge {u, v}; both alive, distinct, edge absent.
  void add_edge(NodeId u, NodeId v);

  /// Removes edge {u, v}; must exist.
  void remove_edge(NodeId u, NodeId v);

  /// Removes node v and all its edges. Neighbours simply lose the link.
  void remove_node(NodeId v);

  /// Uniformly random alive node. Requires at least one alive node.
  NodeId random_alive_node(Rng& rng) const;

  /// List of alive node ids (unspecified order, O(1) access).
  std::span<const NodeId> alive_nodes() const noexcept { return alive_list_; }

  /// Size of the connected component containing v (alive nodes only).
  std::size_t component_size(NodeId v) const;

  /// All nodes in v's connected component.
  std::vector<NodeId> component_nodes(NodeId v) const;

  /// Compacts alive nodes into a static Graph, keeping their id order:
  /// `old_to_new` is resized to num_slots(), and `old_to_new[v]` gives each
  /// alive node's id in the snapshot (dead slots hold 0). Writes the CSR
  /// arrays directly in O(n + |E| log d_max), without a GraphBuilder.
  Graph snapshot(std::vector<NodeId>* old_to_new = nullptr) const;

  /// Internal-consistency check (symmetry, aliveness, edge count); used by
  /// the property tests. Returns true when all invariants hold.
  bool check_invariants() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<bool> alive_;
  std::vector<NodeId> alive_list_;      // ids of alive nodes
  std::vector<std::size_t> alive_pos_;  // v -> index in alive_list_
  std::size_t num_edges_ = 0;
  std::uint64_t version_ = 0;

  void erase_directed(NodeId from, NodeId to);
};

}  // namespace overcount
