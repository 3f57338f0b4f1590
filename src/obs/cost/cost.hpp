// Per-query cost attribution: who burned those 40M walk steps?
//
// The paper prices its estimators in walk steps. CostLedger makes that
// price first-class per (tenant, query): the serve broker opens one
// QueryContext per admitted query, the context id rides every layer
// underneath (Waiter -> PendingBatch -> CostScope around the batch call),
// and every charge site attributes walk steps, walks, cache hits/misses,
// queue wait and thread-CPU slices to exactly one context.
//
// Concurrency model mirrors obs/metrics.hpp: charges land on one of
// kShards cache-line-padded relaxed atomic cells picked by the caller's
// thread ordinal — lock-free, wait-free, contention-free across a
// ParallelRunner pool. Reads (snapshot/totals) fold the shards in a fixed
// order: context id ascending, shard index ascending, field index
// ascending — so two folds of a quiesced ledger are byte-identical.
//
// Bit-identity contract (the same one trace.hpp and health.hpp keep): a
// ledger NEVER touches any Rng and charge sites never branch on ledger
// state in a way that alters walk behaviour, so cost-instrumented runs
// produce bit-identical estimates. With OVERCOUNT_COST=OFF every hook
// below (cost_active / CostScope / cost_charge*) compiles to nothing; the
// CostLedger class itself stays available so servers and tests link
// unchanged.
#pragma once

#ifndef OVERCOUNT_COST_ENABLED
#define OVERCOUNT_COST_ENABLED 1
#endif

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace overcount {

class JsonWriter;

/// Everything a charge is attributed to. Plain strings on purpose: obs
/// sits below serve in the library DAG, so the broker renders its enums
/// (QueryKind, EstimateMethod, SLO class) to text at open() time.
struct QueryContext {
  std::string tenant;     ///< accounting principal ("" folds to "anonymous")
  std::uint64_t query_id = 0;  ///< broker-assigned, monotone per service
  std::string kind;       ///< estimator target, e.g. "size"
  std::string method;     ///< estimator method, e.g. "random_tour"
  std::string slo_class;  ///< "<kind>.<method>.<deadline|besteffort>"
};

/// What a charge pays for. Values index the per-context accumulator cells;
/// names match the cost.* metric families the ledger mirrors into its
/// registry.
enum class CostField : std::uint8_t {
  kSteps = 0,        ///< walk steps (the paper's price unit)
  kWalks,            ///< tours / samples / trials completed
  kCacheHits,
  kCacheMisses,
  kCoalesced,        ///< waiters that rode an existing batch
  kQueueWaitUs,      ///< admission -> dispatch wall time
  kCpuUs,            ///< thread-CPU consumed by the batch kernels
  kBatches,
  kRejected,         ///< load-shed at admission
  kDeadlineMisses,
  kFailures,
  kCount             // sentinel
};

inline constexpr std::size_t kCostFieldCount =
    static_cast<std::size_t>(CostField::kCount);

/// Metric-family suffix for a field ("steps", "queue_wait_us", ...).
const char* cost_field_name(CostField f) noexcept;

/// One folded row of the ledger: a context plus its field totals.
struct CostRecord {
  std::uint32_t ctx = 0;  ///< 0 is the reserved "unattributed" context
  QueryContext context;
  std::array<std::uint64_t, kCostFieldCount> v{};

  std::uint64_t get(CostField f) const noexcept {
    return v[static_cast<std::size_t>(f)];
  }
  std::uint64_t steps() const noexcept { return get(CostField::kSteps); }
  std::uint64_t cpu_us() const noexcept { return get(CostField::kCpuUs); }
};

/// The ledger. One per process is typical (install()/active(), same
/// pattern as TraceRecorder / HealthCenter), but instances work standalone
/// for tests. Context 0 always exists and absorbs charges made outside any
/// CostScope — the "unattributed residue" the reconciliation tests pin to
/// zero.
class CostLedger {
 public:
  static constexpr std::size_t kShards = 8;

  /// `metrics` (optional) receives mirrored global cost.* families on
  /// every charge: cost.steps, cost.walks, cost.cpu_us, ... plus the
  /// cost.contexts gauge and the cost.dropped_contexts counter.
  explicit CostLedger(MetricsRegistry* metrics = nullptr);
  ~CostLedger();

  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// Makes this the process-wide ledger the cost_* hooks charge.
  void install() noexcept;
  /// Detaches (only if this instance is installed).
  void uninstall() noexcept;
  static CostLedger* active() noexcept;

  /// Registers a context and returns its id (>= 1). Lock only here — the
  /// charge path never takes it. When the table is full the charge falls
  /// back to context 0 and cost.dropped_contexts counts the loss.
  std::uint32_t open(QueryContext context);

  /// Lock-free, wait-free charge of `delta` units of `f` to `ctx`.
  /// Unknown/overflowed ids charge context 0 rather than dropping.
  void charge(std::uint32_t ctx, CostField f, std::uint64_t delta) noexcept;

  /// Contexts opened so far (including the reserved context 0).
  std::size_t contexts() const noexcept;
  std::uint64_t dropped_contexts() const noexcept;

  /// Copy of a context's identity; nullopt for out-of-range ids.
  std::optional<QueryContext> context(std::uint32_t ctx) const;

  /// Deterministic fold: rows ordered by context id, each row's fields
  /// summed shard 0..kShards-1. Safe while writers are active (relaxed
  /// reads); byte-stable once they quiesce.
  std::vector<CostRecord> snapshot() const;

  /// Fold of ONE context (same order); id out of range returns zeros.
  CostRecord fold(std::uint32_t ctx) const;

  /// Grand total over every context including context 0.
  CostRecord totals() const;

  /// Context 0's row: charges that escaped attribution.
  CostRecord unattributed() const { return fold(0); }

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kCostFieldCount> v{};
  };
  struct Slot {
    QueryContext info;
    std::array<Cell, kShards> cells{};
  };
  // Stable-pointer growth: fixed array of lazily allocated slabs, so a
  // charge can navigate to its Slot with two relaxed/acquire loads and no
  // lock while open() appends behind the mutex.
  static constexpr std::size_t kSlabBits = 8;                 // 256 slots
  static constexpr std::size_t kSlabSize = 1u << kSlabBits;
  static constexpr std::size_t kMaxSlabs = 64;                // 16384 ctxs
  struct Slab {
    std::array<Slot, kSlabSize> slots{};
  };

  Slot* slot(std::uint32_t ctx) const noexcept;

  std::array<std::atomic<Slab*>, kMaxSlabs> slabs_{};
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex open_mutex_;

  MetricsRegistry* metrics_ = nullptr;
  std::array<Counter*, kCostFieldCount> mirror_{};
  Counter* dropped_m_ = nullptr;
  Gauge* contexts_m_ = nullptr;
};

/// Writes the /costs JSON document: ledger totals plus top-K tenants and
/// queries ranked by steps and cpu_us, each with absolute value,
/// share of total and cumulative share.
void write_costs_json(JsonWriter& w, const CostLedger& ledger, std::size_t k);

// ---------------------------------------------------------------------------
// Hook layer. Everything below compiles away under OVERCOUNT_COST=OFF.
// ---------------------------------------------------------------------------

#if OVERCOUNT_COST_ENABLED

namespace detail {
inline std::uint32_t& cost_current_ref() noexcept {
  thread_local std::uint32_t ctx = 0;
  return ctx;
}
}  // namespace detail

/// True when a ledger is installed (one relaxed atomic load).
inline bool cost_active() noexcept { return CostLedger::active() != nullptr; }

/// The calling thread's current context id (0 outside any CostScope).
inline std::uint32_t cost_current() noexcept {
  return detail::cost_current_ref();
}

/// Charges to an explicit context (e.g. a waiter's own, off the batch
/// thread).
inline void cost_charge_ctx(std::uint32_t ctx, CostField f,
                            std::uint64_t delta) noexcept {
  if (delta == 0) return;
  if (CostLedger* ledger = CostLedger::active()) ledger->charge(ctx, f, delta);
}

/// Charges to the calling thread's current context.
inline void cost_charge(CostField f, std::uint64_t delta) noexcept {
  cost_charge_ctx(detail::cost_current_ref(), f, delta);
}

/// Batch-kernel epilogue: one call charges a finished batch's steps, walks
/// and thread-CPU slice to the current context. Called once per batch —
/// never inside a walk's step loop.
inline void cost_charge_batch(std::uint64_t steps, std::uint64_t walks,
                              double cpu_seconds) noexcept {
  CostLedger* ledger = CostLedger::active();
  if (ledger == nullptr) return;
  const std::uint32_t ctx = detail::cost_current_ref();
  if (steps != 0) ledger->charge(ctx, CostField::kSteps, steps);
  if (walks != 0) ledger->charge(ctx, CostField::kWalks, walks);
  const auto cpu_us = static_cast<std::uint64_t>(cpu_seconds * 1e6);
  if (cpu_us != 0) ledger->charge(ctx, CostField::kCpuUs, cpu_us);
}

/// RAII: makes `ctx` the calling thread's current context for the scope of
/// a batch dispatch. Nests (restores the previous id on exit).
class CostScope {
 public:
  explicit CostScope(std::uint32_t ctx) noexcept
      : prev_(detail::cost_current_ref()) {
    detail::cost_current_ref() = ctx;
  }
  ~CostScope() { detail::cost_current_ref() = prev_; }
  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

 private:
  std::uint32_t prev_;
};

#else  // !OVERCOUNT_COST_ENABLED

inline constexpr bool cost_active() noexcept { return false; }
inline constexpr std::uint32_t cost_current() noexcept { return 0; }
inline void cost_charge_ctx(std::uint32_t, CostField, std::uint64_t) noexcept {
}
inline void cost_charge(CostField, std::uint64_t) noexcept {}
inline void cost_charge_batch(std::uint64_t, std::uint64_t, double) noexcept {}

class CostScope {
 public:
  explicit CostScope(std::uint32_t) noexcept {}
};

#endif  // OVERCOUNT_COST_ENABLED

}  // namespace overcount
