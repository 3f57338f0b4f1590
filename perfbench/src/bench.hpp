// Shared vocabulary of the serving benchmark: workload shapes, the serving
// stack it drives (NetClient -> EstimateNetServer -> EstimateService ->
// batch API -> walk kernel, one process, loopback), and what a load phase
// hands back. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/cost/cost.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace overcount;

/// Overlay size: the repository's default (bench OVERCOUNT_N).
inline constexpr std::size_t kOverlayNodes = 20000;
inline constexpr unsigned kConnections = 2;
inline constexpr unsigned kShards = 2;
inline constexpr unsigned kClasses = 3;

/// Steady-clock microseconds (double, full resolution).
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One SLO class = one query shape. Every workload has three, so coverage
/// and error counts are always reported per class.
struct QueryClass {
  const char* name;
  std::uint8_t kind;    ///< serve::QueryKind on the wire
  std::uint8_t method;  ///< serve::EstimateMethod on the wire
  double epsilon;
  double delta;
  std::uint64_t deadline_us;  ///< 0 = best effort
};

using ClassSet = std::array<QueryClass, kClasses>;

/// The paper's three query shapes, each at epsilon 0.5.
inline constexpr ClassSet kMixedClasses{{
    {"gold", 0, 0, 0.5, 0.2, 2'000'000},    // RT size
    {"silver", 1, 0, 0.5, 0.2, 4'000'000},  // RT degree sum
    {"bronze", 0, 1, 0.5, 0.2, 0},          // S&C size, best effort
}};

/// Random Tour only, for the workload that keeps the per-version Lanczos
/// profile: its walk budget is pinned by a walk floor instead of by the
/// gap, and that floor would also apply to S&C trials.
inline constexpr ClassSet kTourClasses{{
    {"gold", 0, 0, 0.7, 0.2, 2'000'000},    // RT size
    {"silver", 1, 0, 0.7, 0.2, 4'000'000},  // RT degree sum
    {"bronze", 0, 0, 0.8, 0.2, 0},          // RT size, best effort
}};

enum class LoopKind { kOpen, kClosed };

struct WorkloadSpec {
  std::string name;
  LoopKind loop = LoopKind::kOpen;
  double rate_rps = 0.0;        ///< open loop: total offered rate
  bool allow_cached = true;     ///< kReqAllowCached on every request
  double churn_period_ms = 0;   ///< writer cadence; 0 = static graph
  double latency_limit_us = 0;  ///< goodput counts ok replies within this
  /// One cost-ledger context per (tenant, class) instead of per request:
  /// needed when a run sends more requests than the ledger's ~16k context
  /// table holds.
  bool aggregate_cost_contexts = false;
  /// Correctness floor on the share of ok replies served from the cache.
  double min_hit_ratio = 0.0;
  ClassSet classes = kMixedClasses;
  /// The walk budget must not depend on the seed: lambda_2 of the balanced
  /// overlay is set by rare local structures (0.33 to 0.81 over 60 seeds)
  /// and budgets scale with 1/lambda_2. Either the gap is pinned
  /// (ServiceConfig::lambda2_hint > 0, no Lanczos in the service), or the
  /// service profiles every version (hint 0) and BudgetPlanner's
  /// min_walks floor sets the batch size for every gap above the pin.
  double lambda2_hint = 0.0;
  std::size_t min_walks = 8;  ///< BudgetPlanner::Limits default
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

/// Ground truth per topology version, written under the graph mutex.
struct Truth {
  double alive = 0.0;
  double total_degree = 0.0;
};

/// The whole serving stack of one set-up. Members are declared in
/// destruction-safe order: the ledger and graph outlive the server.
struct Stack {
  ClassSet classes{};
  CostLedger ledger;
  DynamicGraph graph;
  std::mutex graph_mutex;
  NodeId origin = 0;
  std::map<std::uint64_t, Truth> truth;  ///< guarded by graph_mutex
  MetricsRegistry registry;
  std::unique_ptr<net::EstimateNetServer> server;
  std::array<net::NetClient, kConnections> clients;
  std::array<std::array<std::uint32_t, kClasses>, kConnections> tenant_ids{};

  /// Truth at `version`; false when the version was never recorded.
  bool truth_at(std::uint64_t version, Truth& out);
};

/// Builds the graph from `seed`, starts the server (2 acceptors, 2 broker
/// shards x 2 runner threads), connects the clients and warms every
/// shard's cache with each query class. Returns nullptr (with a message on
/// stderr) when any step fails.
std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec,
                                   std::uint64_t seed);

/// EstimateNetServer::stop() bounded by `timeout_s`. On timeout the server
/// is leaked with its stuck stop thread (it cannot be destroyed safely) and
/// false is returned; the caller counts a failed operation and must leave
/// through std::_Exit.
bool stop_bounded(Stack& stack, double timeout_s);

/// Per-reply record of a load phase.
struct Reply {
  std::uint8_t cls = 0;
  bool ok = false;
  double due_us = 0.0;        ///< steady clock; the send time in closed loop
  bool cache_hit = false;
  bool coalesced = false;
  double latency_us = 0.0;    ///< from due time (open) / send time (closed)
  double rtt_us = 0.0;        ///< send -> receive
  double server_us = 0.0;     ///< latency_us carried by the reply
  double age_us = 0.0;        ///< age_us carried by the reply
  double value = 0.0;
  double epsilon = 0.0;
  std::uint64_t walks = 0;
  std::uint64_t version = 0;
};

struct LoadResult {
  std::vector<Reply> replies;  ///< every answered request, in any order
  std::vector<double> lateness_us;  ///< open loop: send time - due time
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t failed = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t duplicate_or_unknown = 0;
  double start_us = 0.0;  ///< first due time (steady clock)
  double seconds = 0.0;   ///< scheduled length of the load
  double wall_s = 0.0;  ///< first due time -> last reply
  double cpu_s = 0.0;   ///< process CPU over the same interval
};

/// Runs the workload's load on both connections for `seconds` (open loop
/// at the fixed rate, or closed loop with one caller per connection), then
/// drains. `stream` selects the query-mix stream so two phases of one run
/// do not repeat each other.
LoadResult run_load(Stack& stack, const WorkloadSpec& spec,
                    std::uint64_t seed, std::uint64_t stream, double seconds);

/// Closed-loop saturation probe: one caller per connection, each waiting
/// for its reply, cache hits only; returns replies per second. Used to
/// calibrate the fixed offered rate of hit_loopback, not by any workload.
double measure_saturation(Stack& stack, double seconds);

/// Background churn writer: one churn_join + churn_leave pair under the
/// graph mutex every `period_ms`, recording ground truth after each op and
/// the time each pair held the mutex.
class ChurnWriter {
 public:
  ChurnWriter(Stack& stack, std::uint64_t seed, double period_ms);
  ~ChurnWriter();
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  /// Stops and joins; returns the per-op mutex hold times (us).
  std::vector<double> stop();

 private:
  void loop(std::uint64_t seed, double period_ms);
  Stack& stack_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool running_ = true;  ///< guarded by wake_mutex_
  std::vector<double> hold_us_;  ///< writer thread only until joined
  std::thread thread_;
};

/// Process user+sys CPU seconds.
double process_cpu_s();
/// Peak resident set size, MiB.
double rss_peak_mb();

}  // namespace perfbench
