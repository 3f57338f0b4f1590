// Per-layer measurements taken from outside the program: timed calls into
// each module's public functions, and self time folded from the spans the
// library records when a TraceRecorder is installed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Serve-level calls against the running stack (shard 0 in process, and
/// connection 0 over loopback).
struct ServeDirect {
  double hit_us = 0.0;         ///< EstimateService::query, cache hit, p50
  double net_hit_us = 0.0;     ///< NetClient::request, cache hit, p50
  double miss_us = 0.0;        ///< EstimateService::query, no cache, p50
  std::size_t miss_walks = 0;  ///< tours behind one such miss
};
ServeDirect measure_serve(Stack& stack);

/// Graph, spectral, walk, runtime and codec calls. Run after the server
/// stopped and the cost ledger was uninstalled: these calls are not
/// requests and must not be billed to the serving ledger.
struct CoreDirect {
  double snapshot_ms = 0.0;      ///< DynamicGraph snapshot via the source
  double lanczos_ms = 0.0;       ///< profile_graph with no lambda2 hint
  double rt_miss_us = 0.0;       ///< run_tours_size, same walks as a miss
  double rt_steps_per_s = 0.0;
  double sc_hops_per_s = 0.0;
  double parallel_efficiency = 0.0;
  double codec_ns_per_frame = 0.0;
  double churn_op_us = 0.0;      ///< churn_join + churn_leave under a mutex
};
/// `churn_ops` false skips the scratch churn loop (the live writer's hold
/// times stand in for it).
CoreDirect measure_core(Stack& stack, std::size_t rt_walks,
                        std::uint64_t seed, bool churn_ops);

/// Self time of one span name: duration minus the time its child spans
/// (nested on the same thread) cover.
struct SpanFold {
  std::string name;  ///< "<cat>.<name>" unless the name already has it
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
/// Folds the complete ('X') spans that start in [from_us, to_us).
std::vector<SpanFold> fold_self_time(const std::vector<TraceEvent>& events,
                                     std::uint64_t from_us,
                                     std::uint64_t to_us);

/// Durations (us) of the spans called `name` in [from_us, to_us).
std::vector<double> span_durations(const std::vector<TraceEvent>& events,
                                   const char* name, std::uint64_t from_us,
                                   std::uint64_t to_us);

}  // namespace perfbench
