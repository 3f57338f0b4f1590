#include "graph/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"

namespace overcount {
namespace {

TEST(DynamicGraph, CopiesStaticGraph) {
  Rng rng(1);
  const Graph g = balanced_random_graph(100, rng);
  const DynamicGraph d(g);
  EXPECT_EQ(d.num_alive(), g.num_nodes());
  EXPECT_EQ(d.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(d.alive(v));
    EXPECT_EQ(d.degree(v), g.degree(v));
  }
  EXPECT_TRUE(d.check_invariants());
}

TEST(DynamicGraph, AddNodeWithTargets) {
  DynamicGraph d(ring(5));
  const std::vector<NodeId> targets{0, 2};
  const NodeId v = d.add_node(targets);
  EXPECT_EQ(v, 5u);
  EXPECT_EQ(d.num_alive(), 6u);
  EXPECT_EQ(d.degree(v), 2u);
  EXPECT_TRUE(d.has_edge(v, 0));
  EXPECT_TRUE(d.has_edge(v, 2));
  EXPECT_TRUE(d.check_invariants());
}

TEST(DynamicGraph, AddIsolatedNode) {
  DynamicGraph d(ring(4));
  const NodeId v = d.add_node({});
  EXPECT_EQ(d.degree(v), 0u);
  EXPECT_TRUE(d.alive(v));
  EXPECT_TRUE(d.check_invariants());
}

TEST(DynamicGraph, VersionBumpsOnEveryMutation) {
  DynamicGraph d(ring(5));
  EXPECT_EQ(d.version(), 0u);  // construction is version 0

  std::uint64_t last = d.version();
  const NodeId v = d.add_node(std::vector<NodeId>{0, 2});
  EXPECT_GT(d.version(), last);  // node + 2 edges, strictly monotone
  last = d.version();

  d.add_edge(v, 3);
  EXPECT_EQ(d.version(), last + 1);
  last = d.version();

  d.remove_edge(v, 3);
  EXPECT_EQ(d.version(), last + 1);
  last = d.version();

  d.remove_node(v);
  EXPECT_EQ(d.version(), last + 1);
  last = d.version();

  // Read-only operations never bump.
  (void)d.has_edge(0, 1);
  (void)d.component_size(0);
  (void)d.snapshot();
  (void)d.check_invariants();
  EXPECT_EQ(d.version(), last);
}

TEST(DynamicGraph, RemoveNodeTakesEdges) {
  DynamicGraph d(complete(4));
  d.remove_node(2);
  EXPECT_FALSE(d.alive(2));
  EXPECT_EQ(d.num_alive(), 3u);
  EXPECT_EQ(d.num_edges(), 3u);  // K4 minus a node = K3
  EXPECT_EQ(d.degree(2), 0u);
  for (NodeId v : {0u, 1u, 3u}) EXPECT_EQ(d.degree(v), 2u);
  EXPECT_TRUE(d.check_invariants());
}

TEST(DynamicGraph, RemoveRejectsDeadNode) {
  DynamicGraph d(ring(4));
  d.remove_node(1);
  EXPECT_THROW(d.remove_node(1), precondition_error);
}

TEST(DynamicGraph, SlotsNeverReused) {
  DynamicGraph d(ring(4));
  d.remove_node(0);
  const NodeId v = d.add_node({});
  EXPECT_EQ(v, 4u);  // not the freed slot 0
  EXPECT_FALSE(d.alive(0));
}

TEST(DynamicGraph, EdgeAddRemove) {
  DynamicGraph d(path_graph(4));
  d.add_edge(0, 3);
  EXPECT_TRUE(d.has_edge(0, 3));
  EXPECT_THROW(d.add_edge(0, 3), precondition_error);
  d.remove_edge(0, 3);
  EXPECT_FALSE(d.has_edge(0, 3));
  EXPECT_THROW(d.remove_edge(0, 3), precondition_error);
  EXPECT_TRUE(d.check_invariants());
}

TEST(DynamicGraph, RandomAliveNodeOnlyReturnsAlive) {
  Rng rng(3);
  DynamicGraph d(complete(10));
  for (NodeId v = 0; v < 5; ++v) d.remove_node(v);
  for (int i = 0; i < 1000; ++i) {
    const NodeId v = d.random_alive_node(rng);
    EXPECT_TRUE(d.alive(v));
    EXPECT_GE(v, 5u);
  }
}

TEST(DynamicGraph, ComponentSizeAfterSplit) {
  // Path 0-1-2-3-4; removing 2 splits into {0,1} and {3,4}.
  DynamicGraph d(path_graph(5));
  d.remove_node(2);
  EXPECT_EQ(d.component_size(0), 2u);
  EXPECT_EQ(d.component_size(4), 2u);
  const auto comp = d.component_nodes(3);
  EXPECT_EQ(comp.size(), 2u);
  EXPECT_NE(std::find(comp.begin(), comp.end(), 4u), comp.end());
}

TEST(DynamicGraph, SnapshotCompactsIds) {
  DynamicGraph d(ring(6));
  d.remove_node(0);
  d.remove_node(3);
  std::vector<NodeId> map;
  const Graph snap = d.snapshot(&map);
  EXPECT_EQ(snap.num_nodes(), 4u);
  EXPECT_EQ(snap.num_edges(), d.num_edges());
  // Edge 1-2 survives; check it maps over.
  EXPECT_TRUE(snap.has_edge(map[1], map[2]));
}

TEST(DynamicGraph, RandomChurnPreservesInvariants) {
  Rng rng(77);
  DynamicGraph d(balanced_random_graph(200, rng));
  for (int op = 0; op < 500; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.45 && d.num_alive() > 10) {
      d.remove_node(d.random_alive_node(rng));
    } else {
      // Join with up to 3 random alive targets.
      std::vector<NodeId> targets;
      for (int t = 0; t < 3; ++t) {
        const NodeId cand = d.random_alive_node(rng);
        if (std::find(targets.begin(), targets.end(), cand) == targets.end())
          targets.push_back(cand);
      }
      d.add_node(targets);
    }
    ASSERT_TRUE(d.check_invariants()) << "after op " << op;
  }
}

// snapshot() writes the CSR arrays directly; it must produce exactly the
// Graph a GraphBuilder makes from the same alive subgraph — same offsets,
// same sorted adjacency, same id map — after any join/leave history,
// including joins with no targets and departures that leave nodes isolated.
TEST(DynamicGraph, SnapshotMatchesBuilderReference) {
  for (const std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    DynamicGraph d(balanced_random_graph(120, rng));
    for (int op = 0; op < 400; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.45 && d.num_alive() > 10) {
        d.remove_node(d.random_alive_node(rng));
      } else {
        // Join with 0 to 3 random alive targets: 0 makes an isolated node.
        std::vector<NodeId> targets;
        const auto wanted = rng.uniform_below(4);
        for (std::uint64_t t = 0; t < wanted; ++t) {
          const NodeId cand = d.random_alive_node(rng);
          if (std::find(targets.begin(), targets.end(), cand) ==
              targets.end())
            targets.push_back(cand);
        }
        d.add_node(targets);
      }
      if (op % 40 != 39) continue;

      std::vector<NodeId> ref_map(d.num_slots(), 0);
      NodeId next = 0;
      for (NodeId v = 0; v < d.num_slots(); ++v)
        if (d.alive(v)) ref_map[v] = next++;
      GraphBuilder b(next);
      for (NodeId v = 0; v < d.num_slots(); ++v)
        for (NodeId u : d.neighbors(v))
          if (v < u) b.add_edge(ref_map[v], ref_map[u]);
      const Graph ref = b.build();

      std::vector<NodeId> map;
      const Graph snap = d.snapshot(&map);
      ASSERT_EQ(map, ref_map) << "after op " << op;
      ASSERT_EQ(snap.num_nodes(), ref.num_nodes()) << "after op " << op;
      ASSERT_EQ(snap.num_edges(), ref.num_edges()) << "after op " << op;
      std::size_t isolated = 0;
      for (NodeId v = 0; v < ref.num_nodes(); ++v) {
        const auto a = snap.neighbors(v);
        const auto e = ref.neighbors(v);
        ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
                  std::vector<NodeId>(e.begin(), e.end()))
            << "node " << v << " after op " << op;
        isolated += e.empty() ? 1 : 0;
      }
      if (op == 399) {
        EXPECT_GT(isolated, 0u);  // the history covers isolated nodes
      }
    }
  }
}

TEST(DynamicGraph, AddNodeRejectsDeadTarget) {
  DynamicGraph d(ring(4));
  d.remove_node(1);
  const std::vector<NodeId> targets{1};
  EXPECT_THROW(d.add_node(targets), precondition_error);
}

}  // namespace
}  // namespace overcount
