// ShardedWalkEngine: the paper's estimators (Random Tour, CTRW sampling,
// Sample & Collide) executed by message passing between S graph shards
// instead of shared random access to one flat CSR.
//
// Execution model — BSP supersteps over the existing ParallelRunner:
// each round dispatches one task per shard; a shard's task drains its
// mailbox, advances every delivered walk through its own CSR slice until
// the walk retires or steps onto a non-owned node, and pushes the frozen
// walks (WalkToken bundles) to their owners' mailboxes. Tokens pushed in
// round r are processed in round r+1, so the loop is deadlock-free at any
// pool size (a round needs no shard to wait on another) and ParallelRunner's
// batch barrier gives the happens-before edge that makes per-walk state
// (probes, trial trackers, result slots) safely migrate between workers.
//
// Bit-identity contract (the repo's correctness pillar, PRs 1-5): the token
// path replays the scalar walk EXACTLY — every draw comes from the walk's
// own carried Rng in scalar order, adjacency rows are verbatim copies
// (shard_graph.hpp), accumulators add in scalar order, probe hooks fire in
// scalar per-walk order, and results land in task-index slots feeding the
// same finish_tour_batch / tree_sum / finalize_sc_trial reductions as
// core/parallel.hpp. Hence a sharded batch is bit-identical to the
// single-shard scalar/kernel batch for ANY (shard count, thread count,
// kernel width) — proven by tests/shard/shard_equivalence_test.cpp.
//
// Segment stitching (opt-in, enable_stitching): on arrival at a boundary
// node the engine splices a precomputed lambda-step segment
// (shard/segment.hpp) instead of stepping edge by edge, completing an
// L-step tour in ~L/lambda handoffs (Das Sarma et al.). Stitched walks
// consume the segment store's per-node streams, not the token's stream, so
// they are NOT bit-identical to the scalar path — they are deterministic
// for a fixed (plan, stitch seed) at any thread count, and preserve the
// walk law exactly (uniform neighbour choice, Exp(d) sojourns), which
// tests/shard/shard_statistical_test.cpp verifies with the chi-square/KS
// layer. A store is only accepted when its snapshot version matches the
// engine's graph (staleness rule w.r.t. DynamicGraph::version()).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "obs/cost/cost.hpp"
#include "obs/health/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_runner.hpp"
#include "shard/segment.hpp"
#include "shard/shard_graph.hpp"
#include "shard/token.hpp"

namespace overcount {

/// Message-passing counters for the engine's most recent batch. Mirrors the
/// shard.* registry metrics so tests and benches can assert on a run
/// without wiring a MetricsRegistry.
struct ShardRunStats {
  std::uint64_t walks = 0;             ///< walks (tours/samples/trials) run
  std::uint64_t rounds = 0;            ///< BSP supersteps executed
  std::uint64_t handoffs = 0;          ///< mid-walk cross-shard migrations
  std::uint64_t reports = 0;           ///< S&C sample reports pushed home
  std::uint64_t stitches = 0;          ///< precomputed segments consumed
  std::uint64_t stitch_steps = 0;      ///< walk steps covered by segments
  std::uint64_t tokens_issued = 0;     ///< pushes (seeds+handoffs+reports)
  std::uint64_t tokens_consumed = 0;   ///< tokens drained and processed
  std::uint64_t total_steps = 0;       ///< walk steps / hops in the batch
  std::uint64_t max_mailbox_depth = 0; ///< largest single drain
};

class ShardedWalkEngine {
 public:
  /// The engine walks `g` on `runner`; `metrics`, when given, receives the
  /// shard.* counter/gauge/histogram stream.
  ShardedWalkEngine(const ShardedGraph& g, ParallelRunner& runner,
                    MetricsRegistry* metrics = nullptr)
      : graph_(&g),
        runner_(&runner),
        epoch_(std::chrono::steady_clock::now()) {
    if (metrics != nullptr) {
      steps_m_ = &metrics->counter("walk.steps");
      handoffs_m_ = &metrics->counter("shard.handoffs");
      stitches_m_ = &metrics->counter("shard.stitches");
      stitch_steps_m_ = &metrics->counter("shard.stitch_steps");
      rounds_m_ = &metrics->counter("shard.rounds");
      issued_m_ = &metrics->counter("shard.tokens_issued");
      consumed_m_ = &metrics->counter("shard.tokens_consumed");
      in_flight_m_ = &metrics->gauge("shard.tokens_in_flight");
      depth_m_ = &metrics->histogram("shard.mailbox_depth");
      latency_m_ = &metrics->histogram("shard.handoff_latency_us");
    }
    // Fault-injection hook for the watchdog/flight-recorder drills (CI
    // health-smoke, EXPERIMENTS walkthrough): sleep this long per superstep
    // so a stall detector has something real to catch. Never touches the
    // walks themselves — estimates stay bit-identical under injection.
    if (const char* delay = std::getenv("OVERCOUNT_INJECT_SUPERSTEP_DELAY_US");
        delay != nullptr)
      inject_delay_us_ = std::strtoull(delay, nullptr, 10);
  }

  ShardedWalkEngine(const ShardedWalkEngine&) = delete;
  ShardedWalkEngine& operator=(const ShardedWalkEngine&) = delete;

  const ShardedGraph& graph() const noexcept { return *graph_; }

  /// Turns on the stitched fast path. The store must have been built from
  /// a snapshot of the SAME topology version as this engine's graph —
  /// stitching stale segments over a churned DynamicGraph would silently
  /// walk edges that no longer exist.
  void enable_stitching(SegmentStore& store) {
    OVERCOUNT_EXPECTS(store.source_version() == graph_->source_version());
    store_ = &store;
  }
  void disable_stitching() noexcept { store_ = nullptr; }
  bool stitching_enabled() const noexcept { return store_ != nullptr; }

  /// Wires a liveness beacon for the BSP loop: armed while a batch runs,
  /// one beat per superstep. Watch it with Watchdog::watch_heartbeat to
  /// turn a stalled superstep into a HealthEvent (obs/health/watchdog.hpp).
  void set_heartbeat(Heartbeat* hb) noexcept { heartbeat_ = hb; }

  /// Counters of the most recent run_* batch.
  const ShardRunStats& last_run_stats() const noexcept { return stats_; }

  /// m Random Tours from `origin` estimating sum_j f(j); bit-identical to
  /// core/parallel.hpp's run_tours of the same (seed, m) when stitching is
  /// off.
  template <typename F>
  TourBatch run_tours(NodeId origin, std::size_t m, F f, std::uint64_t seed,
                      std::uint64_t max_steps = ~0ULL) {
    std::span<NullProbe> no_probes;
    return run_tours(origin, m, f, seed, max_steps, no_probes);
  }

  /// Probed variant: `probes`, when non-empty, must hold one probe per walk
  /// (probes[i] observes walk i, with scalar per-walk event order).
  template <typename F, WalkProbe P>
  TourBatch run_tours(NodeId origin, std::size_t m, F f, std::uint64_t seed,
                      std::uint64_t max_steps, std::span<P> probes) {
    OVERCOUNT_EXPECTS(graph_->degree(origin) > 0);
    if constexpr (probe_enabled_v<P>)
      OVERCOUNT_EXPECTS(probes.size() == m);
    // Attribution boundary: the whole batch — every step, handoff and
    // token — is charged to the caller's cost context (obs/cost/), and the
    // enclosing cost.ctx span is what the flamegraph folder keys on to
    // splice (tenant, query) frames above the batch.
    const std::uint32_t cost_ctx = cost_current();
    TraceSpan cost_span("cost", "cost.ctx", "cost_ctx",
                        static_cast<std::uint64_t>(cost_ctx));
    TraceSpan batch_span("shard", "shard.run_tours", "m",
                         static_cast<std::uint64_t>(m));
    const BatchTimer timer;
    TourBatch batch;
    batch.tours.resize(m);
    auto streams = derive_streams(seed, m);
    BatchContext ctx(graph_->num_shards());
    ctx.cost_ctx = cost_ctx;

    const auto d0 = graph_->degree(origin);
    const double dd0 = static_cast<double>(d0);
    const auto origin_row = graph_->neighbors(origin);
    // Seed serially on the driver thread: replay the scalar prologue
    // (walk_begin, counter init, first draw, loop-condition check) so every
    // token enters the round loop at the scalar loop top.
    const std::uint64_t flow_base = reserve_flows(m);
    std::vector<std::vector<WalkToken>> seeds(graph_->num_shards());
    for (std::size_t i = 0; i < m; ++i) {
      if constexpr (probe_enabled_v<P>) probes[i].walk_begin(origin);
      Rng rng = streams[i];
      const double acc = f(origin) / dd0;
      const NodeId at = origin_row[rng.uniform_below(d0)];
      constexpr std::uint64_t kFirstStep = 1;
      if (at == origin || kFirstStep >= max_steps) {
        const bool completed = at == origin;
        if constexpr (probe_enabled_v<P>)
          probes[i].tour_end(kFirstStep, completed);
        batch.tours[i] = {dd0 * acc, kFirstStep, completed};
        ++ctx.retired;
      } else {
        if constexpr (probe_enabled_v<P>) probes[i].on_visit(at);
        seeds[graph_->owner(at)].push_back(
            seed_token({static_cast<std::uint32_t>(i), WalkKind::kTour, at,
                        kFirstStep, acc, rng},
                       flow_base, i, cost_ctx));
      }
    }
    push_seeds(ctx, seeds);

    run_rounds(ctx, m, [&](std::uint32_t s, WalkToken& tk, Cell& cell,
                           std::vector<std::vector<WalkToken>>& outs) {
      // Token invariant: tk.at passed the loop condition and was visited,
      // but not yet accumulated.
      NodeId at = tk.at;
      double acc = tk.acc;
      std::uint64_t steps = tk.steps;
      Rng rng = tk.rng;
      for (;;) {
        if (store_ != nullptr) {
          if (const WalkSegment* seg = store_->take(at)) {
            ++cell.stitches;
            const std::size_t len = seg->nodes.size() - 1;
            trace_flow("shard", "walk.stitch", 't', tk.flow, "len",
                       static_cast<std::uint64_t>(len));
            for (std::size_t k = 0; k < len; ++k) {
              acc += f(seg->nodes[k]) /
                     static_cast<double>(graph_->degree(seg->nodes[k]));
              at = seg->nodes[k + 1];
              ++steps;
              ++cell.stitch_steps;
              if (at == origin || steps >= max_steps) {
                retire_tour(batch, probes, tk.walk, dd0 * acc, steps,
                            at == origin, cell, tk.flow);
                return;
              }
              if constexpr (probe_enabled_v<P>) probes[tk.walk].on_visit(at);
            }
            if (graph_->owner(at) != s) {
              ++cell.handoffs;
              outs[graph_->owner(at)].push_back(
                  frozen({tk.walk, WalkKind::kTour, at, steps, acc, rng},
                         tk.flow, tk.ctx));
              return;
            }
            continue;
          }
        }
        acc += f(at) / static_cast<double>(graph_->degree(at));
        const auto row = graph_->neighbors(at);
        at = row[rng.uniform_below(row.size())];
        ++steps;
        if (at == origin || steps >= max_steps) {
          retire_tour(batch, probes, tk.walk, dd0 * acc, steps, at == origin,
                      cell, tk.flow);
          return;
        }
        if constexpr (probe_enabled_v<P>) probes[tk.walk].on_visit(at);
        if (graph_->owner(at) != s) {
          ++cell.handoffs;
          outs[graph_->owner(at)].push_back(
              frozen({tk.walk, WalkKind::kTour, at, steps, acc, rng},
                     tk.flow, tk.ctx));
          return;
        }
      }
    });

    detail::finish_tour_batch(batch);
    finalize(ctx, m, batch.total_steps, batch.stats, timer);
    return batch;
  }

  /// m CTRW samples from `origin`; bit-identical to run_samples of
  /// core/parallel.hpp when stitching is off.
  SampleBatch run_samples(NodeId origin, std::size_t m, double timer_horizon,
                          std::uint64_t seed) {
    std::span<NullProbe> no_probes;
    return run_samples(origin, m, timer_horizon, seed, no_probes);
  }

  template <WalkProbe P>
  SampleBatch run_samples(NodeId origin, std::size_t m, double timer_horizon,
                          std::uint64_t seed, std::span<P> probes) {
    OVERCOUNT_EXPECTS(graph_->degree(origin) > 0);
    OVERCOUNT_EXPECTS(timer_horizon > 0.0);
    if constexpr (probe_enabled_v<P>)
      OVERCOUNT_EXPECTS(probes.size() == m);
    const std::uint32_t cost_ctx = cost_current();
    TraceSpan cost_span("cost", "cost.ctx", "cost_ctx",
                        static_cast<std::uint64_t>(cost_ctx));
    TraceSpan batch_span("shard", "shard.run_samples", "m",
                         static_cast<std::uint64_t>(m));
    const BatchTimer timer;
    SampleBatch batch;
    batch.samples.resize(m);
    auto streams = derive_streams(seed, m);
    BatchContext ctx(graph_->num_shards());
    ctx.cost_ctx = cost_ctx;

    // A CTRW walk starts with the sojourn draw at the origin, so every walk
    // seeds as a token AT the origin (walk_begin emitted, no draw yet).
    const std::uint64_t flow_base = reserve_flows(m);
    std::vector<std::vector<WalkToken>> seeds(graph_->num_shards());
    const std::uint32_t home = graph_->owner(origin);
    for (std::size_t i = 0; i < m; ++i) {
      if constexpr (probe_enabled_v<P>) probes[i].walk_begin(origin);
      seeds[home].push_back(seed_token(
          {static_cast<std::uint32_t>(i), WalkKind::kSample, origin, 0,
           timer_horizon, streams[i]},
          flow_base, i, cost_ctx));
    }
    push_seeds(ctx, seeds);

    run_rounds(ctx, m, [&](std::uint32_t s, WalkToken& tk, Cell& cell,
                           std::vector<std::vector<WalkToken>>& outs) {
      // Token invariant: tk.at visited, its sojourn not yet drawn;
      // tk.acc = remaining timer, tk.steps = hops so far.
      const auto status =
          advance_ctrw(s, tk, cell, outs, WalkKind::kSample, probes);
      if (status.finished) {
        trace_flow("shard", "walk.flow", 'f', tk.flow);
        batch.samples[tk.walk] = {status.node, status.hops};
        ++cell.retired;
      }
    });

    for (const auto& r : batch.samples) batch.total_hops += r.hops;
    finalize(ctx, m, batch.total_hops, batch.stats, timer);
    return batch;
  }

  /// `trials` Sample & Collide measurements from `origin`, each stopping at
  /// `ell` collisions; bit-identical to run_sc_trials of core/parallel.hpp
  /// when stitching is off. Each trial's sequential CTRW walks complete via
  /// message passing: a finished walk reports its sample to the trial's
  /// home shard (the origin's owner), which feeds the collision tracker and
  /// launches the next walk on the SAME stream — preserving the scalar draw
  /// order exactly.
  ScBatch run_sc_trials(NodeId origin, std::size_t trials,
                        double timer_horizon, std::size_t ell,
                        std::uint64_t seed) {
    std::span<NullProbe> no_probes;
    return run_sc_trials(origin, trials, timer_horizon, ell, seed, no_probes);
  }

  template <WalkProbe P>
  ScBatch run_sc_trials(NodeId origin, std::size_t trials,
                        double timer_horizon, std::size_t ell,
                        std::uint64_t seed, std::span<P> probes) {
    OVERCOUNT_EXPECTS(graph_->degree(origin) > 0);
    OVERCOUNT_EXPECTS(timer_horizon > 0.0);
    OVERCOUNT_EXPECTS(ell >= 1);
    if constexpr (probe_enabled_v<P>)
      OVERCOUNT_EXPECTS(probes.size() == trials);
    const std::uint32_t cost_ctx = cost_current();
    TraceSpan cost_span("cost", "cost.ctx", "cost_ctx",
                        static_cast<std::uint64_t>(cost_ctx));
    TraceSpan batch_span("shard", "shard.run_sc_trials", "trials",
                         static_cast<std::uint64_t>(trials));
    const BatchTimer timer;
    ScBatch batch;
    batch.trials.resize(trials);
    auto streams = derive_streams(seed, trials);
    BatchContext ctx(graph_->num_shards());
    ctx.cost_ctx = cost_ctx;

    struct TrialState {
      CollisionTracker tracker;
      std::uint64_t hops = 0;
      std::uint64_t prev_collision_at = 0;
    };
    // Only the home shard's worker touches trial state (all trials share
    // the origin, hence the home), so no synchronization is needed beyond
    // the round barrier.
    std::vector<TrialState> trial_state(trials);
    const std::uint32_t home = graph_->owner(origin);

    const std::uint64_t flow_base = reserve_flows(trials);
    std::vector<std::vector<WalkToken>> seeds(graph_->num_shards());
    for (std::size_t t = 0; t < trials; ++t) {
      if constexpr (probe_enabled_v<P>) probes[t].walk_begin(origin);
      seeds[home].push_back(seed_token(
          {static_cast<std::uint32_t>(t), WalkKind::kScWalk, origin, 0,
           timer_horizon, streams[t]},
          flow_base, t, cost_ctx));
    }
    push_seeds(ctx, seeds);

    run_rounds(ctx, trials, [&](std::uint32_t s, WalkToken& token, Cell& cell,
                                std::vector<std::vector<WalkToken>>& outs) {
      WalkToken tk = token;
      for (;;) {
        if (tk.kind == WalkKind::kScReport) {
          // At home: fold the sampled node into the trial, then either
          // finalize or launch the next walk on the reported stream.
          TrialState& st = trial_state[tk.walk];
          st.hops += tk.steps;
          const bool collided = st.tracker.feed(tk.at);
          if (collided) {
            if constexpr (probe_enabled_v<P>)
              probes[tk.walk].on_collision(st.tracker.samples() -
                                           st.prev_collision_at);
            st.prev_collision_at = st.tracker.samples();
          }
          if (st.tracker.collisions() >= ell) {
            trace_flow("shard", "walk.flow", 'f', tk.flow);
            batch.trials[tk.walk] = detail::finalize_sc_trial(
                ScTrialRaw{st.tracker.samples(), st.hops}, ell);
            ++cell.retired;
            return;
          }
          if constexpr (probe_enabled_v<P>) probes[tk.walk].walk_begin(origin);
          const std::uint64_t flow = tk.flow;  // trial-long causal chain
          const std::uint32_t cctx = tk.ctx;   // trial-long accounting
          tk = {tk.walk, WalkKind::kScWalk, origin, 0, timer_horizon, tk.rng};
          tk.flow = flow;
          tk.ctx = cctx;
          continue;  // fall through into the walk phase
        }
        const auto status =
            advance_ctrw(s, tk, cell, outs, WalkKind::kScWalk, probes);
        if (!status.finished) return;  // walk handed off mid-flight
        // Walk died at status.node: report home. When this worker IS home,
        // process the report inline — same round, same deterministic order.
        WalkToken report{tk.walk, WalkKind::kScReport, status.node,
                         status.hops, 0.0, status.rng};
        report.flow = tk.flow;
        report.ctx = tk.ctx;
        if (s == home) {
          tk = report;
          continue;
        }
        ++cell.reports;
        outs[home].push_back(frozen(report, tk.flow, tk.ctx));
        return;
      }
    });

    std::vector<double> simple, ml;
    simple.reserve(trials);
    ml.reserve(trials);
    for (const auto& t : batch.trials) {
      batch.total_hops += t.hops;
      simple.push_back(t.simple);
      ml.push_back(t.ml);
    }
    batch.sum_simple = tree_sum(simple);
    batch.sum_ml = tree_sum(ml);
    finalize(ctx, trials, batch.total_hops, batch.stats, timer);
    return batch;
  }

 private:
  /// Per-shard per-round counters; slot s is written only by shard s's
  /// worker during a round and folded (then reset) by the driver thread
  /// between rounds. Cache-line-sized to keep neighbouring workers off each
  /// other's lines.
  struct alignas(64) Cell {
    std::uint64_t processed = 0;
    std::uint64_t retired = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t reports = 0;
    std::uint64_t issued = 0;
    std::uint64_t stitches = 0;
    std::uint64_t stitch_steps = 0;
    std::size_t depth = 0;
  };

  struct BatchContext {
    explicit BatchContext(std::uint32_t shards)
        : mail(shards), cells(shards) {}
    std::vector<ShardMailbox> mail;
    std::vector<Cell> cells;
    ShardRunStats stats;
    std::size_t retired = 0;  ///< walks finished (incl. during seeding)
    std::uint32_t cost_ctx = 0;  ///< cost context the batch is charged to
  };

  /// Wall + process-CPU stopwatch over a whole multi-round batch. Unlike
  /// ParallelRunner::dispatch it counts every thread of the process.
  class BatchTimer {
   public:
    BatchTimer()
        : wall_(std::chrono::steady_clock::now()), cpu_(std::clock()) {}
    void fill(BatchStats& stats) const {
      stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_)
                               .count();
      stats.cpu_seconds =
          static_cast<double>(std::clock() - cpu_) / CLOCKS_PER_SEC;
    }

   private:
    std::chrono::steady_clock::time_point wall_;
    std::clock_t cpu_;
  };

  /// Outcome of advancing one CTRW token within a shard.
  struct CtrwStatus {
    bool finished = false;  ///< timer died (else: handed off via outs)
    NodeId node = 0;        ///< node where the timer died
    std::uint64_t hops = 0; ///< hops of THIS walk at death
    Rng rng{0};             ///< stream state at death (S&C continues on it)
  };

  /// Advances a CTRW token (kSample or kScWalk) until the timer dies or
  /// the walk leaves shard `s`. Mirrors walk/walkers.hpp's ctrw_sample
  /// exactly — same draw order, same probe hook order — with the stitched
  /// fast path consuming precomputed sojourns+steps when enabled.
  template <WalkProbe P>
  CtrwStatus advance_ctrw(std::uint32_t s, const WalkToken& tk, Cell& cell,
                          std::vector<std::vector<WalkToken>>& outs,
                          WalkKind kind, std::span<P> probes) {
    NodeId at = tk.at;
    double remaining = tk.acc;
    std::uint64_t hops = tk.steps;
    Rng rng = tk.rng;
    for (;;) {
      if (store_ != nullptr) {
        if (const WalkSegment* seg = store_->take(at)) {
          ++cell.stitches;
          const std::size_t len = seg->nodes.size() - 1;
          trace_flow("shard", "walk.stitch", 't', tk.flow, "len",
                     static_cast<std::uint64_t>(len));
          for (std::size_t k = 0; k < len; ++k) {
            const double sojourn = seg->sojourns[k];
            if constexpr (probe_enabled_v<P>)
              probes[tk.walk].on_sojourn(std::min(sojourn, remaining));
            remaining -= sojourn;
            if (remaining <= 0.0) {
              if constexpr (probe_enabled_v<P>) probes[tk.walk].sample_end(hops);
              return {true, seg->nodes[k], hops, rng};
            }
            at = seg->nodes[k + 1];
            ++hops;
            ++cell.stitch_steps;
            if constexpr (probe_enabled_v<P>) probes[tk.walk].on_visit(at);
          }
          if (graph_->owner(at) != s) {
            ++cell.handoffs;
            outs[graph_->owner(at)].push_back(
                frozen({tk.walk, kind, at, hops, remaining, rng}, tk.flow,
                       tk.ctx));
            return {};
          }
          continue;
        }
      }
      const auto degree = graph_->degree(at);
      OVERCOUNT_HOT_EXPECTS(degree > 0);
      const double sojourn = rng.exponential(static_cast<double>(degree));
      if constexpr (probe_enabled_v<P>)
        probes[tk.walk].on_sojourn(std::min(sojourn, remaining));
      remaining -= sojourn;
      if (remaining <= 0.0) {
        if constexpr (probe_enabled_v<P>) probes[tk.walk].sample_end(hops);
        return {true, at, hops, rng};
      }
      const auto row = graph_->neighbors(at);
      at = row[rng.uniform_below(row.size())];
      ++hops;
      if constexpr (probe_enabled_v<P>) probes[tk.walk].on_visit(at);
      if (graph_->owner(at) != s) {
        ++cell.handoffs;
        outs[graph_->owner(at)].push_back(
            frozen({tk.walk, kind, at, hops, remaining, rng}, tk.flow,
                   tk.ctx));
        return {};
      }
    }
  }

  template <WalkProbe P>
  void retire_tour(TourBatch& batch, std::span<P> probes, std::uint32_t walk,
                   double value, std::uint64_t steps, bool completed,
                   Cell& cell, std::uint64_t flow) {
    trace_flow("shard", "walk.flow", 'f', flow);
    if constexpr (probe_enabled_v<P>) probes[walk].tour_end(steps, completed);
    batch.tours[walk] = {value, steps, completed};
    ++cell.retired;
  }

  /// Microseconds since engine construction — the clock both ends of a
  /// handoff share for shard.handoff_latency_us (freeze here, thaw in
  /// run_rounds). Distinct from the trace clock on purpose: latency metrics
  /// must not require a TraceRecorder.
  std::uint64_t engine_now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Reserves a flow-id block for a batch of m walks when a recorder is
  /// listening; 0 (= untraced) otherwise, which folds every flow site out.
  static std::uint64_t reserve_flows(std::size_t m) noexcept {
    return trace_active()
               ? TraceRecorder::reserve_flow_ids(static_cast<std::uint64_t>(m))
               : 0;
  }

  /// Stamps migration metadata on a freshly seeded token and opens its
  /// causal chain ('s' flow event on the driver, inside the batch span).
  /// The cost context rides the token so the thawing shard charges every
  /// delivery to the (tenant, query) that seeded the walk.
  WalkToken seed_token(WalkToken t, std::uint64_t flow_base, std::size_t i,
                       std::uint32_t cost_ctx) const noexcept {
    if (flow_base != 0) {
      t.flow = flow_base + i;
      trace_flow("shard", "walk.flow", 's', t.flow, "walk",
                 static_cast<std::uint64_t>(i));
    }
    if (latency_m_ != nullptr) t.frozen_us = engine_now_us();
    t.ctx = cost_ctx;
    return t;
  }

  /// Stamps migration metadata on a mid-walk handoff token: the walk's flow
  /// id and cost context ride along, and the freeze time feeds the latency
  /// histogram at the destination. Touches no walk state and no Rng.
  WalkToken frozen(WalkToken t, std::uint64_t flow,
                   std::uint32_t cost_ctx) const noexcept {
    t.flow = flow;
    if (latency_m_ != nullptr) t.frozen_us = engine_now_us();
    t.ctx = cost_ctx;
    return t;
  }

  void push_seeds(BatchContext& ctx,
                  std::vector<std::vector<WalkToken>>& seeds) {
    // The driver's seed bundles carry a source id past every shard; they
    // are the only bundles of round 0, so the tag only keeps drain order
    // well-defined.
    const std::uint32_t driver = graph_->num_shards();
    for (std::uint32_t d = 0; d < graph_->num_shards(); ++d) {
      ctx.stats.tokens_issued += seeds[d].size();
      ctx.mail[d].push_bundle(driver, std::move(seeds[d]));
    }
  }

  /// Runs BSP supersteps until every walk retired. `process(s, token, cell,
  /// outs)` advances one token inside shard s, appending any outgoing
  /// tokens to outs[destination].
  template <typename Process>
  void run_rounds(BatchContext& ctx, std::size_t total, Process&& process) {
    const std::uint32_t shards = graph_->num_shards();
    std::vector<std::vector<WalkToken>> inboxes(shards);
    // Liveness beacon: armed for the batch, one beat per superstep. The
    // guard disarms even when fold_round throws on a token leak — a stall
    // alarm must not outlive the batch that caused it.
    struct HeartbeatGuard {
      Heartbeat* hb;
      explicit HeartbeatGuard(Heartbeat* h) : hb(h) {
        if (hb != nullptr) hb->arm();
      }
      ~HeartbeatGuard() {
        if (hb != nullptr) hb->disarm();
      }
    } hb_guard(heartbeat_);
    while (ctx.retired < total) {
      ctx.stats.rounds += 1;
      if (heartbeat_ != nullptr) heartbeat_->beat();
      if (inject_delay_us_ > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(inject_delay_us_));
      TraceSpan round_span("shard", "shard.round", "in_flight",
                           static_cast<std::uint64_t>(total - ctx.retired));
      // Strict BSP: the DRIVER drains every mailbox between the round
      // barriers, so a token pushed in round r is processed in round r+1
      // no matter how the pool schedules the shard tasks. Draining inside
      // the tasks instead would let a bundle pushed early in round r be
      // picked up late in the same round — the rounds counter, and with
      // stitching the per-node segment take() order, would then depend on
      // thread timing.
      for (std::uint32_t s = 0; s < shards; ++s)
        inboxes[s] = ctx.mail[s].drain(&ctx.cells[s].depth);
      runner_->run<char>(shards, [&](std::size_t si) {
        const auto s = static_cast<std::uint32_t>(si);
        Cell& cell = ctx.cells[s];
        std::vector<WalkToken> inbox = std::move(inboxes[s]);
        std::vector<std::vector<WalkToken>> outs(shards);
        for (WalkToken& tk : inbox) {
          ++cell.processed;
          // Every delivered token is billed to the context that seeded its
          // walk — the id rode the token across the handoff, so a shard
          // charges work it does ON BEHALF of a query it never admitted.
          cost_charge_ctx(tk.ctx, CostField::kTokens, 1);
          // Thaw accounting: freeze-to-thaw time of the migration this
          // token just completed (stamped by seed_token/frozen).
          if (tk.frozen_us != 0 && latency_m_ != nullptr)
            latency_m_->record(engine_now_us() - tk.frozen_us);
          if (tk.flow != 0) {
            // One hop span per delivered token, with the walk's flow id
            // stepping through it — Perfetto chains these across shards.
            TraceSpan hop_span("shard", "walk.hop", "walk", tk.walk);
            trace_flow("shard", "walk.flow", 't', tk.flow);
            process(s, tk, cell, outs);
          } else {
            process(s, tk, cell, outs);
          }
        }
        for (std::uint32_t d = 0; d < shards; ++d) {
          if (outs[d].empty()) continue;
          cell.issued += outs[d].size();
          ctx.mail[d].push_bundle(s, std::move(outs[d]));
        }
        return char{0};
      });
      fold_round(ctx, total);
    }
  }

  /// Folds (and resets) the per-shard round counters on the driver thread;
  /// runs strictly between round barriers.
  void fold_round(BatchContext& ctx, std::size_t total) {
    std::uint64_t processed = 0;
    for (Cell& cell : ctx.cells) {
      processed += cell.processed;
      ctx.retired += cell.retired;
      ctx.stats.handoffs += cell.handoffs;
      ctx.stats.reports += cell.reports;
      ctx.stats.tokens_issued += cell.issued;
      ctx.stats.stitches += cell.stitches;
      ctx.stats.stitch_steps += cell.stitch_steps;
      ctx.stats.max_mailbox_depth =
          std::max(ctx.stats.max_mailbox_depth,
                   static_cast<std::uint64_t>(cell.depth));
      if (depth_m_ != nullptr)
        depth_m_->record(static_cast<std::uint64_t>(cell.depth));
      cell = Cell{};
    }
    ctx.stats.tokens_consumed += processed;
    if (in_flight_m_ != nullptr)
      in_flight_m_->set(static_cast<double>(total - ctx.retired));
    if (processed == 0 && ctx.retired < total)
      throw std::runtime_error(
          "ShardedWalkEngine: a superstep processed no tokens while walks "
          "remain in flight (token leak)");
  }

  void finalize(BatchContext& ctx, std::size_t tasks, std::uint64_t steps,
                BatchStats& stats, const BatchTimer& timer) {
    ctx.stats.walks = tasks;
    ctx.stats.total_steps = steps;
    stats_ = ctx.stats;
    stats.tasks = tasks;
    stats.steps = steps;
    stats.threads = runner_->thread_count();
    timer.fill(stats);
    // Batch-granularity ledger charges (never per step — the hot loops stay
    // untouched): totals to the context captured at entry. The tokens were
    // already charged at thaw, one by one, via the id riding each token.
    if (cost_active()) {
      cost_charge_ctx(ctx.cost_ctx, CostField::kSteps, steps);
      cost_charge_ctx(ctx.cost_ctx, CostField::kWalks,
                      static_cast<std::uint64_t>(tasks));
      cost_charge_ctx(ctx.cost_ctx, CostField::kHandoffs, stats_.handoffs);
      cost_charge_ctx(ctx.cost_ctx, CostField::kStitches, stats_.stitches);
      cost_charge_ctx(ctx.cost_ctx, CostField::kStitchSteps,
                      stats_.stitch_steps);
      cost_charge_ctx(ctx.cost_ctx, CostField::kCpuUs,
                      static_cast<std::uint64_t>(stats.cpu_seconds * 1e6));
    }
    if (steps_m_ != nullptr) steps_m_->add(steps);
    if (handoffs_m_ != nullptr) {
      handoffs_m_->add(stats_.handoffs);
      stitches_m_->add(stats_.stitches);
      stitch_steps_m_->add(stats_.stitch_steps);
      rounds_m_->add(stats_.rounds);
      issued_m_->add(stats_.tokens_issued);
      consumed_m_->add(stats_.tokens_consumed);
      in_flight_m_->set(0.0);
    }
  }

  const ShardedGraph* graph_;
  ParallelRunner* runner_;
  SegmentStore* store_ = nullptr;
  ShardRunStats stats_;
  const std::chrono::steady_clock::time_point epoch_;
  Heartbeat* heartbeat_ = nullptr;
  std::uint64_t inject_delay_us_ = 0;

  Counter* steps_m_ = nullptr;  ///< walk.steps: batch steps, ledger-independent
  Counter* handoffs_m_ = nullptr;
  Counter* stitches_m_ = nullptr;
  Counter* stitch_steps_m_ = nullptr;
  Counter* rounds_m_ = nullptr;
  Counter* issued_m_ = nullptr;
  Counter* consumed_m_ = nullptr;
  Gauge* in_flight_m_ = nullptr;
  AtomicHistogram* depth_m_ = nullptr;
  AtomicHistogram* latency_m_ = nullptr;
};

/// Batch front-ends routed through the sharded engine when a ShardPlan is
/// supplied — same shapes as core/parallel.hpp, same bit-identical results.
/// G is Graph or DynamicGraph (anything ShardedGraph snapshots).

template <typename G, typename F>
TourBatch run_tours(const G& g, NodeId origin, std::size_t m, F f,
                    std::uint64_t seed, ParallelRunner& runner,
                    const ShardPlan& plan, std::uint64_t max_steps = ~0ULL) {
  ShardedGraph sharded(g, plan);
  ShardedWalkEngine engine(sharded, runner);
  return engine.run_tours(origin, m, f, seed, max_steps);
}

template <typename G>
TourBatch run_tours_size(const G& g, NodeId origin, std::size_t m,
                         std::uint64_t seed, ParallelRunner& runner,
                         const ShardPlan& plan,
                         std::uint64_t max_steps = ~0ULL) {
  return run_tours(
      g, origin, m, [](NodeId) { return 1.0; }, seed, runner, plan,
      max_steps);
}

template <typename G, typename F>
TourBatch run_tours_probed(const G& g, NodeId origin, std::size_t m, F f,
                           std::uint64_t seed, ParallelRunner& runner,
                           const ShardPlan& plan, WalkStats& walk_out,
                           std::uint64_t max_steps = ~0ULL) {
  ShardedGraph sharded(g, plan);
  ShardedWalkEngine engine(sharded, runner);
  std::vector<WalkStats> per_task(m);
  std::vector<WalkStatsProbe> probes;
  probes.reserve(m);
  for (std::size_t i = 0; i < m; ++i) probes.emplace_back(per_task[i]);
  TourBatch batch = engine.run_tours(origin, m, f, seed, max_steps,
                                     std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_task);
  return batch;
}

template <typename G>
SampleBatch run_samples(const G& g, NodeId origin, std::size_t m,
                        double timer, std::uint64_t seed,
                        ParallelRunner& runner, const ShardPlan& plan) {
  ShardedGraph sharded(g, plan);
  ShardedWalkEngine engine(sharded, runner);
  return engine.run_samples(origin, m, timer, seed);
}

template <typename G>
SampleBatch run_samples_probed(const G& g, NodeId origin, std::size_t m,
                               double timer, std::uint64_t seed,
                               ParallelRunner& runner, const ShardPlan& plan,
                               WalkStats& walk_out) {
  ShardedGraph sharded(g, plan);
  ShardedWalkEngine engine(sharded, runner);
  std::vector<WalkStats> per_task(m);
  std::vector<WalkStatsProbe> probes;
  probes.reserve(m);
  for (std::size_t i = 0; i < m; ++i) probes.emplace_back(per_task[i]);
  SampleBatch batch = engine.run_samples(origin, m, timer, seed,
                                         std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_task);
  return batch;
}

template <typename G>
ScBatch run_sc_trials(const G& g, NodeId origin, std::size_t trials,
                      double timer, std::size_t ell, std::uint64_t seed,
                      ParallelRunner& runner, const ShardPlan& plan) {
  ShardedGraph sharded(g, plan);
  ShardedWalkEngine engine(sharded, runner);
  return engine.run_sc_trials(origin, trials, timer, ell, seed);
}

template <typename G>
ScBatch run_sc_trials_probed(const G& g, NodeId origin, std::size_t trials,
                             double timer, std::size_t ell,
                             std::uint64_t seed, ParallelRunner& runner,
                             const ShardPlan& plan, WalkStats& walk_out) {
  ShardedGraph sharded(g, plan);
  ShardedWalkEngine engine(sharded, runner);
  std::vector<WalkStats> per_task(trials);
  std::vector<WalkStatsProbe> probes;
  probes.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) probes.emplace_back(per_task[i]);
  ScBatch batch = engine.run_sc_trials(origin, trials, timer, ell, seed,
                                       std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_task);
  return batch;
}

}  // namespace overcount
