// Regression tests for the OVERCOUNT_HOT_CHECKS contract split
// (util/contracts.hpp): per-step walk-loop preconditions stay live in
// Debug/RelWithDebInfo/sanitizer builds, while plain Release compiles them
// out and relies on the unconditional boundary checks at the batch entry
// points. Both halves are asserted here, so a build-flag regression in
// either direction fails CI: the sanitizer jobs exercise the #if branch,
// the Release job exercises the #else branch and the always-on entry
// checks.
#include <gtest/gtest.h>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "util/contracts.hpp"
#include "walk/walkers.hpp"

namespace overcount {
namespace {

/// Nodes 0-1 connected, node 2 isolated (in range, degree 0).
Graph graph_with_isolated_node() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  return b.build();
}

#if OVERCOUNT_HOT_CHECKS
// Debug / RelWithDebInfo / sanitizer builds: the walk inner loop itself
// still throws precondition_error on a degree-0 node.
TEST(ContractGating, HotChecksThrowFromWalkInnerLoop) {
  const Graph g = graph_with_isolated_node();
  Rng rng(1);
  EXPECT_THROW(random_neighbor(g, 2, rng), precondition_error);
  EXPECT_THROW(ctrw_sample(g, 2, 1.0, rng), precondition_error);
  EXPECT_THROW(deterministic_ctrw_sample(g, 2, 1.0, rng), precondition_error);
}
#else
TEST(ContractGating, HotChecksCompiledOutInRelease) {
  // Nothing to run on purpose: with the per-step checks compiled out,
  // feeding a degree-0 node into the inner loop is undefined; safety is the
  // batch entry checks' job (next test). This test documents the build
  // configuration so a ctest log shows which branch ran.
  SUCCEED() << "OVERCOUNT_HOT_CHECKS == 0 (Release hot path)";
}
#endif

// Every build, Release included: batch entry points reject invalid origins
// unconditionally, for both the scalar and the kernel path.
TEST(ContractGating, BatchEntryRejectsIsolatedOriginInAllBuilds) {
  const Graph g = graph_with_isolated_node();
  for (std::size_t width : {std::size_t{1}, std::size_t{16}}) {
    ParallelRunner runner(2, width);
    EXPECT_THROW(run_tours_size(g, 2, 32, 7, runner), precondition_error);
    WalkStats stats;
    EXPECT_THROW(run_tours_size_probed(g, 2, 32, 7, runner, stats),
                 precondition_error);
    EXPECT_THROW(run_samples(g, 2, 32, 1.0, 7, runner), precondition_error);
    EXPECT_THROW(run_sc_trials(g, 2, 32, 1.0, 2, 7, runner),
                 precondition_error);
  }
}

TEST(ContractGating, BatchEntryRejectsOutOfRangeOriginInAllBuilds) {
  const Graph g = ring(8);
  ParallelRunner runner(2);
  EXPECT_THROW(run_tours_size(g, 99, 32, 7, runner), precondition_error);
  EXPECT_THROW(run_samples(g, 99, 32, 1.0, 7, runner), precondition_error);
  EXPECT_THROW(run_sc_trials(g, 99, 32, 1.0, 2, 7, runner),
               precondition_error);
}

// The direct kernel entry points carry the same unconditional boundary
// checks (they are per-batch, not per-step).
TEST(ContractGating, KernelEntryRejectsInvalidOriginInAllBuilds) {
  const Graph g = graph_with_isolated_node();
  auto streams = derive_streams(7, 16);
  std::vector<TourEstimate> tours(16);
  EXPECT_THROW(tour_kernel(
                   g, 2, [](NodeId) { return 1.0; }, std::span<Rng>(streams),
                   std::span<TourEstimate>(tours), 16),
               precondition_error);
  std::vector<SampleResult> samples(16);
  EXPECT_THROW(ctrw_kernel(g, 2, 1.0, std::span<Rng>(streams),
                           std::span<SampleResult>(samples), 16),
               precondition_error);
  std::vector<ScTrialRaw> trials(16);
  EXPECT_THROW(sc_kernel(g, 2, 1.0, 2, std::span<Rng>(streams),
                         std::span<ScTrialRaw>(trials), 16),
               precondition_error);
}

}  // namespace
}  // namespace overcount
