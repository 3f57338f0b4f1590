// Immutable undirected overlay graph in compressed-sparse-row layout, and the
// builder that assembles one from an edge list.
//
// The overlay model follows the paper's Section 3: peers form an undirected
// graph; node v knows only its neighbour list; the degree d_v is the number
// of neighbours. All random-walk machinery operates on this interface.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/contracts.hpp"

namespace overcount {

using NodeId = std::uint32_t;

/// Immutable undirected graph (CSR adjacency). Parallel edges and self-loops
/// are rejected at build time: an overlay link either exists or it does not.
class Graph {
 public:
  Graph() = default;

  std::size_t num_nodes() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const noexcept { return adjacency_.size() / 2; }

  /// Degree of node v.
  std::size_t degree(NodeId v) const {
    OVERCOUNT_EXPECTS(v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbour list of node v (sorted ascending).
  std::span<const NodeId> neighbors(NodeId v) const {
    OVERCOUNT_EXPECTS(v < num_nodes());
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Sum of all degrees = 2|E|.
  std::size_t total_degree() const noexcept { return adjacency_.size(); }

  /// Hints the CPU to pull node v's CSR offset pair into cache ahead of a
  /// degree()/neighbors() call. Used by the interleaved walk kernel
  /// (walk/kernel.hpp) to overlap the offset load of one walk with the work
  /// of the other lanes; harmless (not even a memory access) when v is
  /// out of range, so deliberately unchecked.
  void prefetch(NodeId v) const noexcept {
    __builtin_prefetch(offsets_.data() + v);
    __builtin_prefetch(offsets_.data() + v + 1);
  }

  /// True if {u, v} is an edge (binary search in v's neighbour list).
  bool has_edge(NodeId u, NodeId v) const;

  /// Maximum degree over all nodes; 0 for the empty graph.
  std::size_t max_degree() const noexcept;
  /// Minimum degree over all nodes; 0 for the empty graph.
  std::size_t min_degree() const noexcept;
  /// Average degree = 2|E|/n; 0 for the empty graph.
  double average_degree() const noexcept;

 private:
  friend class GraphBuilder;
  friend class DynamicGraph;  // snapshot() writes the CSR arrays directly
  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;     // size 2|E|
};

/// Accumulates undirected edges, then produces a Graph. Duplicate insertions
/// of the same edge and self-loops throw.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  /// Adds undirected edge {u, v}. Requires u != v, both < num_nodes, and the
  /// edge not already present.
  void add_edge(NodeId u, NodeId v);

  /// True if {u, v} was already added.
  bool has_edge(NodeId u, NodeId v) const;

  std::size_t num_nodes() const noexcept { return adjacency_.size(); }
  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t degree(NodeId v) const {
    OVERCOUNT_EXPECTS(v < adjacency_.size());
    return adjacency_[v].size();
  }

  /// Finalises into CSR form (neighbour lists sorted). The builder may be
  /// reused afterwards; its contents are unchanged.
  Graph build() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t num_edges_ = 0;
};

}  // namespace overcount
