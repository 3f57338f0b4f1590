// The cost ledger keeps its two hard promises on the batch path serving
// uses (core/parallel.hpp, charged once per batch by cost_charge_batch):
//  (1) bit-identity — a run with the ledger installed, scoped and mirrored
//      into a registry produces estimates IDENTICAL to a bare run of the
//      same (seed, m): accounting reads, never perturbs;
//  (2) zero residue — the ledger's per-context step totals reconcile
//      EXACTLY with the walk steps counted independently of the ledger (the
//      batch's own total and the per-walk probe counts), with nothing left
//      on the unattributed sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/cost/cost.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace overcount {
namespace {

// Every test here exercises the batch-epilogue charge and the CostScope
// hook, both of which compile away under OVERCOUNT_COST=OFF — in that
// build there is nothing to reconcile.
#if OVERCOUNT_COST_ENABLED

constexpr std::uint64_t kSeed = 0xFEEDBEEF;

Graph test_graph() {
  Rng rng(99);
  return balanced_random_graph(400, rng);
}

double one(NodeId) { return 1.0; }

TEST(CostIdentity, InstrumentedBatchRunIsBitIdentical) {
  const Graph g = test_graph();
  const std::size_t m = 48;

  // Reference: no ledger, no registry, no tracer.
  ParallelRunner bare_runner(4, 8);
  const TourBatch reference = run_tours(g, 0, m, one, kSeed, bare_runner);
  const ScBatch reference_sc =
      run_sc_trials(g, 0, 8, 6.0, 4, kSeed, bare_runner);

  // Instrumented: ledger installed and scoped, registry mirroring, tracer
  // recording the walk spans.
  MetricsRegistry registry;
  CostLedger ledger(&registry);
  ledger.install();
  TraceRecorder trace;
  trace.install();
  QueryContext qc;
  qc.tenant = "acme";
  qc.query_id = 1;
  const std::uint32_t ctx = ledger.open(std::move(qc));

  ParallelRunner runner(4, 8);
  TourBatch observed;
  ScBatch observed_sc;
  {
    CostScope scope(ctx);
    observed = run_tours(g, 0, m, one, kSeed, runner);
    observed_sc = run_sc_trials(g, 0, 8, 6.0, 4, kSeed, runner);
  }
  trace.uninstall();
  ledger.uninstall();

  ASSERT_EQ(observed.tours.size(), reference.tours.size());
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(observed.tours[i].value, reference.tours[i].value);  // bitwise
    EXPECT_EQ(observed.tours[i].steps, reference.tours[i].steps);
  }
  EXPECT_EQ(observed.sum, reference.sum);
  EXPECT_EQ(observed.total_steps, reference.total_steps);
  ASSERT_EQ(observed_sc.trials.size(), reference_sc.trials.size());
  for (std::size_t t = 0; t < observed_sc.trials.size(); ++t) {
    EXPECT_EQ(observed_sc.trials[t].ml, reference_sc.trials[t].ml);
    EXPECT_EQ(observed_sc.trials[t].hops, reference_sc.trials[t].hops);
  }
  EXPECT_EQ(observed_sc.sum_simple, reference_sc.sum_simple);

  // And it did account the runs it left untouched.
  EXPECT_EQ(ledger.fold(ctx).steps(),
            observed.total_steps + observed_sc.total_hops);
}

TEST(CostIdentity, LedgerReconcilesExactlyWithEngineCounters) {
  const Graph g = test_graph();
  const std::size_t m = 48;

  MetricsRegistry registry;
  CostLedger ledger(&registry);
  ledger.install();
  QueryContext qc;
  qc.tenant = "acme";
  qc.query_id = 1;
  const std::uint32_t ctx = ledger.open(std::move(qc));

  ParallelRunner runner(4, 8);
  WalkStats walk;
  const TourBatch batch = [&] {
    CostScope scope(ctx);
    return run_tours_probed(g, 0, m, one, kSeed, runner, walk);
  }();
  ledger.uninstall();

  const CostRecord row = ledger.fold(ctx);
  const MetricsSnapshot snap = registry.snapshot();

  // Steps reconcile three ways: the ledger row, the steps every walk's
  // probe counted as it ran (never through the ledger), and the batch's
  // own total — all the same number, exactly.
  EXPECT_GT(batch.total_steps, 0u);
  EXPECT_EQ(row.steps(), batch.total_steps);
  EXPECT_EQ(walk.tour_steps.sum, batch.total_steps);
  EXPECT_EQ(batch.stats.steps, batch.total_steps);
  // The mirror counters saw the same charges the fold sums.
  EXPECT_EQ(snap.counter_or_zero("cost.steps"), row.steps());
  EXPECT_EQ(snap.counter_or_zero("cost.walks"), m);
  EXPECT_EQ(row.get(CostField::kWalks), m);
  EXPECT_EQ(walk.tours, m);
  EXPECT_EQ(row.cpu_us(),
            static_cast<std::uint64_t>(batch.stats.cpu_seconds * 1e6));

  // Zero residue: a fully scoped run leaves NOTHING on the sink.
  const CostRecord sink = ledger.unattributed();
  for (std::size_t f = 0; f < kCostFieldCount; ++f)
    EXPECT_EQ(sink.v[f], 0u) << cost_field_name(static_cast<CostField>(f));
}

TEST(CostIdentity, UnscopedRunBillsTheSinkCompletely) {
  const Graph g = test_graph();

  CostLedger ledger;
  ledger.install();
  ParallelRunner runner(4, 8);
  const TourBatch batch = run_tours(g, 0, 16, one, kSeed, runner);
  ledger.uninstall();

  // No CostScope: everything lands on context 0, nothing is lost.
  EXPECT_EQ(ledger.unattributed().steps(), batch.total_steps);
  EXPECT_EQ(ledger.unattributed().get(CostField::kWalks), 16u);
  EXPECT_EQ(ledger.totals().steps(), batch.total_steps);
}

TEST(CostIdentity, ConcurrentQueriesDoNotCrossTalk) {
  const Graph g = test_graph();

  CostLedger ledger;
  ledger.install();
  QueryContext qa;
  qa.tenant = "acme";
  qa.query_id = 1;
  QueryContext qb;
  qb.tenant = "bee";
  qb.query_id = 2;
  const std::uint32_t a = ledger.open(std::move(qa));
  const std::uint32_t b = ledger.open(std::move(qb));

  // Two queries in flight at once, each on its own caller thread and pool,
  // the way two broker shards dispatch batches.
  TourBatch batch_a;
  TourBatch batch_b;
  std::thread ta([&] {
    ParallelRunner runner(2, 8);
    CostScope scope(a);
    batch_a = run_tours(g, 0, 48, one, kSeed, runner);
  });
  std::thread tb([&] {
    ParallelRunner runner(2, 8);
    CostScope scope(b);
    batch_b = run_tours(g, 0, 16, one, kSeed + 1, runner);
  });
  ta.join();
  tb.join();
  ledger.uninstall();

  // Each context carries exactly its own batch.
  EXPECT_EQ(ledger.fold(a).steps(), batch_a.total_steps);
  EXPECT_EQ(ledger.fold(b).steps(), batch_b.total_steps);
  EXPECT_EQ(ledger.fold(a).get(CostField::kWalks), 48u);
  EXPECT_EQ(ledger.fold(b).get(CostField::kWalks), 16u);
  EXPECT_EQ(ledger.unattributed().steps(), 0u);
  EXPECT_EQ(ledger.totals().steps(),
            batch_a.total_steps + batch_b.total_steps);
}

#endif  // OVERCOUNT_COST_ENABLED

}  // namespace
}  // namespace overcount
