// The whole health stack keeps the bit-identity contract on the batch path
// serving uses (core/parallel.hpp): running a tour batch under a
// TraceRecorder + HealthCenter + polling Watchdog + CostLedger + metrics +
// auditor produces ESTIMATES IDENTICAL to a bare run of the same (seed, m)
// — observability reads, never perturbs.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/cost/cost.hpp"
#include "obs/health/audit.hpp"
#include "obs/health/health.hpp"
#include "obs/health/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace overcount {
namespace {

constexpr std::uint64_t kSeed = 0xFEEDBEEF;

Graph test_graph() {
  Rng rng(99);
  return balanced_random_graph(400, rng);
}

TEST(HealthIdentity, FullyInstrumentedRunIsBitIdentical) {
  const Graph g = test_graph();
  const std::size_t m = 48;
  const auto one = [](NodeId) { return 1.0; };

  // Reference: nothing attached, nothing installed.
  ParallelRunner bare_runner(4, 8);
  const TourBatch reference = run_tours(g, 0, m, one, kSeed, bare_runner);

  // Instrumented: every observability layer at once, with the watchdog
  // polling from its own thread while the batch runs.
  MetricsRegistry registry;
  HealthCenter center(&registry);
  center.install();
  TraceRecorder trace;
  trace.install();
  CostLedger ledger(&registry);
  ledger.install();
  QueryContext qc;
  qc.tenant = "acme";
  qc.query_id = 1;
  const std::uint32_t ctx = ledger.open(std::move(qc));
  WatchdogConfig dog_config;
  dog_config.poll_period_us = 1'000;
  Watchdog dog(&center, dog_config);
  dog.watch_level(
      "cost.dropped_contexts", "cost",
      [&ledger] { return static_cast<double>(ledger.dropped_contexts()); },
      1.0, 0);
  EstimateAuditor auditor(&registry, &center);
  const bool hooks_saw_center = health_active();

  dog.start();
  ParallelRunner runner(4, 8);
  const TourBatch observed = [&] {
    CostScope scope(ctx);
    return run_tours(g, 0, m, one, kSeed, runner);
  }();
  dog.stop();
  auditor.observe("size", "random_tour", observed.mean(), 0.3, 0.2, 1);
  dog.poll_once();

  ledger.uninstall();
  trace.uninstall();
  center.uninstall();

  ASSERT_EQ(observed.tours.size(), reference.tours.size());
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(observed.tours[i].value, reference.tours[i].value);  // bitwise
    EXPECT_EQ(observed.tours[i].steps, reference.tours[i].steps);
  }
  EXPECT_EQ(observed.sum, reference.sum);
  EXPECT_EQ(observed.total_steps, reference.total_steps);

  // The instrumentation actually observed the run it left untouched. Each
  // hook is checked only in the build that compiles it in.
  EXPECT_EQ(dog.trips(), 0u);
  EXPECT_EQ(auditor.observations(), 1u);
  EXPECT_EQ(center.total_raised(), 0u);
#if OVERCOUNT_HEALTH_ENABLED
  EXPECT_TRUE(hooks_saw_center);
#else
  EXPECT_FALSE(hooks_saw_center);
#endif
#if OVERCOUNT_TRACE_ENABLED
  EXPECT_FALSE(trace.events().empty());
#endif
#if OVERCOUNT_COST_ENABLED
  EXPECT_EQ(ledger.fold(ctx).steps(), observed.total_steps);
#endif
}

}  // namespace
}  // namespace overcount
