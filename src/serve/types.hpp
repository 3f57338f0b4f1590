// Request/response vocabulary of the estimate-serving subsystem.
//
// An EstimateRequest states WHAT the caller wants to know (a size or
// degree-sum estimate), HOW SURE they need to be (the paper's (epsilon,
// delta) pair: relative error at most epsilon with probability at least
// 1 - delta), and BY WHEN (an absolute deadline on the service clock). The
// service translates the accuracy target into a walk budget via the
// paper's error formula (serve/budget.hpp), serves from its
// freshness-aware cache when a cached estimate already satisfies the
// target, and otherwise schedules a batch — or refuses with a retry hint
// when saturated. The response carries the estimate together with the
// provenance a caller needs to reason about it: the theory half-width it
// satisfies, the graph version it was computed against, its age, and
// whether it came from the cache or a fresh batch.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace overcount {

/// "No deadline": sorts after every real deadline in the EDF queue.
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

/// What is being estimated. Both are Random Tour sums sum_j f(j); Sample &
/// Collide supports only kSize (its statistic is a collision count, not a
/// per-node sum).
enum class QueryKind : std::uint8_t {
  kSize,       ///< f = 1: the number of peers
  kDegreeSum,  ///< f = degree: sum of degrees (= 2 |E|)
};

/// Which of the paper's estimators answers the query.
enum class EstimateMethod : std::uint8_t {
  kRandomTour,     ///< Section 3: return-time tours
  kSampleCollide,  ///< Section 4: CTRW sampling to ell collisions
};

enum class ServeStatus : std::uint8_t {
  kOk,            ///< estimate delivered
  kRejected,      ///< load-shed at admission; retry after retry_after_us
  kDeadlineMiss,  ///< the deadline passed before the result could be served
  kFailed,        ///< the batch could not produce an estimate
};

struct EstimateRequest {
  QueryKind kind = QueryKind::kSize;
  EstimateMethod method = EstimateMethod::kRandomTour;
  /// Target relative error (half-width) and confidence failure
  /// probability: P(|estimate/truth - 1| > epsilon) <= delta.
  double epsilon = 0.2;
  double delta = 0.05;
  /// Absolute deadline on the service clock (EstimateService::now_us);
  /// kNoDeadline = best effort. An expired deadline is answered with
  /// kDeadlineMiss instead of a stale-by-construction estimate.
  std::uint64_t deadline_us = kNoDeadline;
  /// When false, bypasses the cache (and single-flight coalescing) and
  /// forces a fresh batch; the result still lands in the cache.
  bool allow_cached = true;
  /// Accounting principal for the cost ledger (obs/cost/): every walk
  /// step, cache hit and queue wait this request causes is charged to
  /// (tenant, query). Empty = "anonymous". Does not influence
  /// caching, coalescing or scheduling — two tenants asking the same
  /// question still share one batch.
  std::string tenant;
};

struct EstimateResponse {
  ServeStatus status = ServeStatus::kFailed;
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Theory half-width the served estimate satisfies (<= the requested
  /// epsilon for kOk responses).
  double epsilon = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t walks = 0;          ///< tours/trials behind the estimate
  std::uint64_t graph_version = 0;  ///< topology version it was computed at
  bool cache_hit = false;           ///< served from cache, no new walks
  bool coalesced = false;           ///< rode another request's batch
  std::uint64_t age_us = 0;         ///< age of the serving entry
  std::uint64_t retry_after_us = 0; ///< backoff hint for kRejected
  std::uint64_t latency_us = 0;     ///< admission-to-delivery time
  bool ok() const noexcept { return status == ServeStatus::kOk; }
};

inline const char* to_string(ServeStatus s) noexcept {
  switch (s) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kRejected: return "rejected";
    case ServeStatus::kDeadlineMiss: return "deadline_miss";
    case ServeStatus::kFailed: return "failed";
  }
  return "?";
}

inline const char* to_string(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kSize: return "size";
    case QueryKind::kDegreeSum: return "degree_sum";
  }
  return "?";
}

inline const char* to_string(EstimateMethod m) noexcept {
  switch (m) {
    case EstimateMethod::kRandomTour: return "random_tour";
    case EstimateMethod::kSampleCollide: return "sample_collide";
  }
  return "?";
}

}  // namespace overcount
