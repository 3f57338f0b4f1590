#include "walk/metropolis.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"
#include "util/tests.hpp"

namespace overcount {
namespace {

TEST(MetropolisStep, StaysOrMovesToNeighbor) {
  Rng rng(1);
  const Graph g = star(10);
  for (int i = 0; i < 200; ++i) {
    const NodeId next = metropolis_step(g, 0, rng);
    EXPECT_TRUE(next == 0 || g.has_edge(0, next));
  }
}

TEST(MetropolisStep, AlwaysAcceptsDownhill) {
  // From a leaf of a star (degree 1) the hub (degree 9) proposal has
  // acceptance 1/9; from the hub, leaf proposals are always accepted.
  Rng rng(2);
  const Graph g = star(10);
  int moved = 0;
  for (int i = 0; i < 1000; ++i)
    if (metropolis_step(g, 0, rng) != 0) ++moved;
  EXPECT_EQ(moved, 1000);  // hub -> leaf always accepted
}

TEST(MetropolisStep, RejectsUphillAtCorrectRate) {
  Rng rng(3);
  const Graph g = star(10);
  int moved = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (metropolis_step(g, 3, rng) != 3) ++moved;  // leaf -> hub, rate 1/9
  EXPECT_NEAR(static_cast<double>(moved) / trials, 1.0 / 9.0, 0.01);
}

class MetropolisUniformity
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(MetropolisUniformity, LongWalkVisitsUniformly) {
  // The MH walk's stationary distribution is uniform on any connected,
  // non-bipartite graph; we measure visit frequencies of one long walk.
  Rng rng(101);
  const Graph g = largest_component(GetParam().make(rng));
  if (GetParam().name.find("bipartite") != std::string::npos ||
      GetParam().name.find("ring") != std::string::npos ||
      GetParam().name.find("grid") != std::string::npos ||
      GetParam().name.find("star") != std::string::npos)
    GTEST_SKIP() << "bipartite-periodic family: time averages still work "
                    "but need lazy steps";
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> visits(n, 0);
  NodeId at = 0;
  const std::size_t steps = 400 * n;
  for (std::size_t k = 0; k < steps; ++k) {
    at = metropolis_step(g, at, rng);
    ++visits[at];
  }
  const auto chi = chi_square_uniform(visits);
  // Visits are serially correlated, so the chi-square statistic is inflated
  // relative to iid sampling; bound it loosely instead of using p-values.
  EXPECT_LT(chi.statistic / chi.dof, 30.0) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, MetropolisUniformity,
    ::testing::ValuesIn(testing::estimator_graph_cases()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(MetropolisSampler, SamplesRoughlyUniformOnStar) {
  // The fixed-step DTRW lands on the hub ~50% of the time; MH (with enough
  // steps) should be near 1/n. The star is bipartite, so use an odd/even
  // mix of step counts to wash out parity.
  Rng rng(4);
  const Graph g = star(21);
  std::size_t hub = 0;
  const int draws = 4000;
  Rng len_rng(5);
  for (int i = 0; i < draws; ++i) {
    MetropolisSampler<Graph> s(
        g, 120 + len_rng.uniform_below(2), rng.split());
    if (s.sample(1).node == 0) ++hub;
  }
  const double hub_rate = static_cast<double>(hub) / draws;
  EXPECT_LT(hub_rate, 0.35);  // far below the DTRW's ~0.5
}

TEST(MetropolisSampler, HubRateNearOneOverNOnStar) {
  // The Metropolis walk's stationary law is uniform; after enough steps the
  // hub rate must be near 1/n, not the DTRW's 1/2. Each draw runs on its
  // own split stream of one master seed.
  const Graph g = star(21);
  Rng master(312);
  const int draws = 6000;
  std::size_t hub = 0;
  for (int i = 0; i < draws; ++i) {
    MetropolisSampler<Graph> sampler(g, /*steps=*/200, master.split());
    if (sampler.sample(1).node == 0) ++hub;
  }
  const double hub_rate = static_cast<double>(hub) / draws;
  // 1/21 ~ 4.8%; binomial se over 6000 draws ~ 0.28%, bound is ~10 se.
  EXPECT_NEAR(hub_rate, 1.0 / 21.0, 0.03);
}

TEST(MetropolisSampler, ProbesExceedAcceptedHops) {
  Rng rng(6);
  const Graph g = star(12);
  MetropolisSampler sampler(g, 200, rng.split());
  sampler.sample(1);
  EXPECT_EQ(sampler.probes_sent(), 200u);
  EXPECT_LT(sampler.total_hops(), 200u);  // rejections at the leaves
  EXPECT_GT(sampler.total_hops(), 0u);
}

TEST(MetropolisSampler, RequiresPositiveSteps) {
  Rng rng(7);
  const Graph g = ring(8);
  EXPECT_THROW(MetropolisSampler(g, 0, rng.split()), precondition_error);
}

}  // namespace
}  // namespace overcount
