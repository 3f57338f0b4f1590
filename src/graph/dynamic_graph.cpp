#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <queue>

namespace overcount {

DynamicGraph::DynamicGraph(const Graph& g) {
  const std::size_t n = g.num_nodes();
  adjacency_.resize(n);
  alive_.assign(n, true);
  alive_list_.resize(n);
  alive_pos_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    adjacency_[v].assign(nbrs.begin(), nbrs.end());
    alive_list_[v] = v;
    alive_pos_[v] = v;
  }
  num_edges_ = g.num_edges();
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  OVERCOUNT_EXPECTS(u < adjacency_.size());
  OVERCOUNT_EXPECTS(v < adjacency_.size());
  const auto& a =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                   : adjacency_[v];
  const NodeId needle =
      adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), needle) != a.end();
}

NodeId DynamicGraph::add_node(std::span<const NodeId> targets) {
  const auto v = static_cast<NodeId>(adjacency_.size());
  for (NodeId t : targets) {
    OVERCOUNT_EXPECTS(t < adjacency_.size());
    OVERCOUNT_EXPECTS(alive_[t]);
  }
  adjacency_.emplace_back();
  alive_.push_back(true);
  alive_pos_.push_back(alive_list_.size());
  alive_list_.push_back(v);
  ++version_;
  for (NodeId t : targets) add_edge(v, t);
  return v;
}

void DynamicGraph::add_edge(NodeId u, NodeId v) {
  OVERCOUNT_EXPECTS(u != v);
  OVERCOUNT_EXPECTS(alive(u) && alive(v));
  OVERCOUNT_EXPECTS(!has_edge(u, v));
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  ++version_;
}

void DynamicGraph::erase_directed(NodeId from, NodeId to) {
  auto& list = adjacency_[from];
  const auto it = std::find(list.begin(), list.end(), to);
  OVERCOUNT_ENSURES(it != list.end());
  *it = list.back();
  list.pop_back();
}

void DynamicGraph::remove_edge(NodeId u, NodeId v) {
  OVERCOUNT_EXPECTS(has_edge(u, v));
  erase_directed(u, v);
  erase_directed(v, u);
  --num_edges_;
  ++version_;
}

void DynamicGraph::remove_node(NodeId v) {
  OVERCOUNT_EXPECTS(alive(v));
  for (NodeId u : adjacency_[v]) erase_directed(u, v);
  num_edges_ -= adjacency_[v].size();
  adjacency_[v].clear();
  adjacency_[v].shrink_to_fit();
  alive_[v] = false;
  // Swap-remove from the alive list, keeping positions consistent.
  const std::size_t pos = alive_pos_[v];
  const NodeId last = alive_list_.back();
  alive_list_[pos] = last;
  alive_pos_[last] = pos;
  alive_list_.pop_back();
  ++version_;
}

NodeId DynamicGraph::random_alive_node(Rng& rng) const {
  OVERCOUNT_EXPECTS(!alive_list_.empty());
  return alive_list_[rng.uniform_below(alive_list_.size())];
}

std::size_t DynamicGraph::component_size(NodeId v) const {
  return component_nodes(v).size();
}

std::vector<NodeId> DynamicGraph::component_nodes(NodeId v) const {
  OVERCOUNT_EXPECTS(alive(v));
  std::vector<NodeId> out;
  std::vector<bool> seen(adjacency_.size(), false);
  std::queue<NodeId> frontier;
  frontier.push(v);
  seen[v] = true;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    out.push_back(u);
    for (NodeId w : adjacency_[u]) {
      if (!seen[w]) {
        seen[w] = true;
        frontier.push(w);
      }
    }
  }
  return out;
}

Graph DynamicGraph::snapshot(std::vector<NodeId>* old_to_new) const {
  std::vector<NodeId> map(adjacency_.size(), 0);
  NodeId next = 0;
  for (NodeId v = 0; v < adjacency_.size(); ++v)
    if (alive_[v]) map[v] = next++;
  // The adjacency lists hold no self-loop or parallel edge (add_edge
  // rejects both), so they are copied straight into the CSR arrays. `map`
  // preserves id order, so sorting the renamed list sorts the snapshot's.
  Graph g;
  g.offsets_.resize(static_cast<std::size_t>(next) + 1, 0);
  for (NodeId v = 0; v < adjacency_.size(); ++v)
    if (alive_[v])
      g.offsets_[map[v] + 1] = g.offsets_[map[v]] + adjacency_[v].size();
  g.adjacency_.resize(g.offsets_.back());
  for (NodeId v = 0; v < adjacency_.size(); ++v) {
    if (!alive_[v]) continue;
    const auto out = g.adjacency_.begin() +
                     static_cast<std::ptrdiff_t>(g.offsets_[map[v]]);
    std::transform(adjacency_[v].begin(), adjacency_[v].end(), out,
                   [&map](NodeId u) { return map[u]; });
    std::sort(out, out + static_cast<std::ptrdiff_t>(adjacency_[v].size()));
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return g;
}

bool DynamicGraph::check_invariants() const {
  std::size_t alive_count = 0;
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < adjacency_.size(); ++v) {
    if (alive_[v]) {
      ++alive_count;
      if (alive_pos_[v] >= alive_list_.size() ||
          alive_list_[alive_pos_[v]] != v)
        return false;
    } else if (!adjacency_[v].empty()) {
      return false;  // dead node retained edges
    }
    degree_sum += adjacency_[v].size();
    for (NodeId u : adjacency_[v]) {
      if (u >= adjacency_.size() || !alive_[u]) return false;
      const auto& back = adjacency_[u];
      if (std::find(back.begin(), back.end(), v) == back.end()) return false;
      if (u == v) return false;
    }
    // No parallel edges.
    auto sorted = adjacency_[v];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      return false;
  }
  return alive_count == alive_list_.size() && degree_sum == 2 * num_edges_;
}

}  // namespace overcount
