#include "obs/cost/cost.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "obs/json.hpp"
#include "util/contracts.hpp"

namespace overcount {

namespace {

std::atomic<CostLedger*>& active_slot() noexcept {
  static std::atomic<CostLedger*> slot{nullptr};
  return slot;
}

constexpr const char* kFieldNames[kCostFieldCount] = {
    "steps",    "walks",   "cache_hits", "cache_misses",    "coalesced",
    "queue_wait_us", "cpu_us", "batches",  "rejected",  "deadline_misses",
    "failures",
};

}  // namespace

const char* cost_field_name(CostField f) noexcept {
  const auto i = static_cast<std::size_t>(f);
  OVERCOUNT_EXPECTS(i < kCostFieldCount);
  return kFieldNames[i];
}

CostLedger::CostLedger(MetricsRegistry* metrics) : metrics_(metrics) {
  if (metrics_ != nullptr) {
    for (std::size_t i = 0; i < kCostFieldCount; ++i)
      mirror_[i] = &metrics_->counter(
          std::string("cost.") + kFieldNames[i]);
    dropped_m_ = &metrics_->counter("cost.dropped_contexts");
    contexts_m_ = &metrics_->gauge("cost.contexts");
  }
  // Context 0 — the unattributed sink — always exists, so charge() never
  // has to drop on the floor.
  auto* slab = new Slab();
  slab->slots[0].info.tenant = "(unattributed)";
  slabs_[0].store(slab, std::memory_order_release);
  count_.store(1, std::memory_order_release);
  if (contexts_m_ != nullptr) contexts_m_->set(1.0);
}

CostLedger::~CostLedger() {
  CostLedger* self = this;
  active_slot().compare_exchange_strong(self, nullptr,
                                        std::memory_order_acq_rel);
  for (auto& s : slabs_) delete s.load(std::memory_order_acquire);
}

void CostLedger::install() noexcept {
  active_slot().store(this, std::memory_order_release);
}

void CostLedger::uninstall() noexcept {
  CostLedger* self = this;
  active_slot().compare_exchange_strong(self, nullptr,
                                        std::memory_order_acq_rel);
}

CostLedger* CostLedger::active() noexcept {
  return active_slot().load(std::memory_order_acquire);
}

std::uint32_t CostLedger::open(QueryContext context) {
  const std::lock_guard<std::mutex> lock(open_mutex_);
  const std::uint32_t id = count_.load(std::memory_order_relaxed);
  if (id >= kMaxSlabs * kSlabSize) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_m_ != nullptr) dropped_m_->inc();
    return 0;  // table full: the query will charge the unattributed sink
  }
  const std::size_t slab_idx = id >> kSlabBits;
  Slab* slab = slabs_[slab_idx].load(std::memory_order_acquire);
  if (slab == nullptr) {
    slab = new Slab();
    slabs_[slab_idx].store(slab, std::memory_order_release);
  }
  if (context.tenant.empty()) context.tenant = "anonymous";
  slab->slots[id & (kSlabSize - 1)].info = std::move(context);
  // Publish AFTER the slot is fully written: charge() treats ids >= count_
  // as unattributed, so a racing charge can never read a half-built slot.
  count_.store(id + 1, std::memory_order_release);
  if (contexts_m_ != nullptr) contexts_m_->set(static_cast<double>(id + 1));
  return id;
}

CostLedger::Slot* CostLedger::slot(std::uint32_t ctx) const noexcept {
  Slab* slab = slabs_[ctx >> kSlabBits].load(std::memory_order_acquire);
  if (slab == nullptr) return nullptr;
  return const_cast<Slot*>(&slab->slots[ctx & (kSlabSize - 1)]);
}

void CostLedger::charge(std::uint32_t ctx, CostField f,
                        std::uint64_t delta) noexcept {
  if (ctx >= count_.load(std::memory_order_acquire)) ctx = 0;
  Slot* s = slot(ctx);
  if (s == nullptr) return;  // unreachable: slab 0 exists from construction
  const std::size_t shard = detail::this_thread_ordinal() % kShards;
  const auto field = static_cast<std::size_t>(f);
  s->cells[shard].v[field].fetch_add(delta, std::memory_order_relaxed);
  if (mirror_[field] != nullptr) mirror_[field]->add(delta);
}

std::size_t CostLedger::contexts() const noexcept {
  return count_.load(std::memory_order_acquire);
}

std::uint64_t CostLedger::dropped_contexts() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

std::optional<QueryContext> CostLedger::context(std::uint32_t ctx) const {
  if (ctx >= count_.load(std::memory_order_acquire)) return std::nullopt;
  const Slot* s = slot(ctx);
  if (s == nullptr) return std::nullopt;
  return s->info;
}

CostRecord CostLedger::fold(std::uint32_t ctx) const {
  CostRecord out;
  out.ctx = ctx;
  if (ctx >= count_.load(std::memory_order_acquire)) return out;
  const Slot* s = slot(ctx);
  if (s == nullptr) return out;
  out.context = s->info;
  // Deterministic fold order: shard index ascending, field index ascending.
  for (std::size_t shard = 0; shard < kShards; ++shard)
    for (std::size_t f = 0; f < kCostFieldCount; ++f)
      out.v[f] += s->cells[shard].v[f].load(std::memory_order_relaxed);
  return out;
}

std::vector<CostRecord> CostLedger::snapshot() const {
  const std::uint32_t n = count_.load(std::memory_order_acquire);
  std::vector<CostRecord> out;
  out.reserve(n);
  for (std::uint32_t ctx = 0; ctx < n; ++ctx) out.push_back(fold(ctx));
  return out;
}

CostRecord CostLedger::totals() const {
  CostRecord total;
  total.context.tenant = "(total)";
  for (const CostRecord& r : snapshot())
    for (std::size_t f = 0; f < kCostFieldCount; ++f) total.v[f] += r.v[f];
  return total;
}

namespace {

constexpr CostField kRankFields[] = {CostField::kSteps, CostField::kCpuUs};

void write_fields(JsonWriter& w, const std::array<std::uint64_t,
                                                  kCostFieldCount>& v) {
  for (std::size_t f = 0; f < kCostFieldCount; ++f)
    w.kv(kFieldNames[f], v[f]);
}

/// Emits one "by_<metric>" ranking array: rows sorted by v[metric]
/// descending (name ascending on ties, so the order is total), truncated
/// to k, each with its share and the running cumulative share of the
/// metric's grand total.
template <typename Row, typename NameOf, typename WriteRow>
void write_ranking(JsonWriter& w, std::vector<Row> rows, CostField metric,
                   std::size_t k, std::uint64_t grand_total,
                   const NameOf& name_of, const WriteRow& write_row) {
  const auto mi = static_cast<std::size_t>(metric);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Row& a, const Row& b) {
                     if (a.v[mi] != b.v[mi]) return a.v[mi] > b.v[mi];
                     return name_of(a) < name_of(b);
                   });
  if (rows.size() > k) rows.resize(k);
  w.key(std::string("by_") + kFieldNames[mi]);
  w.begin_array();
  std::uint64_t cum = 0;
  for (const Row& r : rows) {
    if (r.v[mi] == 0) break;  // rankings list spenders, not zeros
    cum += r.v[mi];
    const double denom =
        grand_total == 0 ? 1.0 : static_cast<double>(grand_total);
    w.begin_object();
    write_row(r);
    w.kv("share", static_cast<double>(r.v[mi]) / denom);
    w.kv("cum_share", static_cast<double>(cum) / denom);
    w.end_object();
  }
  w.end_array();
}

struct TenantRow {
  std::string tenant;
  std::array<std::uint64_t, kCostFieldCount> v{};
};

}  // namespace

void write_costs_json(JsonWriter& w, const CostLedger& ledger,
                      std::size_t k) {
  const std::vector<CostRecord> rows = ledger.snapshot();
  CostRecord total;
  for (const CostRecord& r : rows)
    for (std::size_t f = 0; f < kCostFieldCount; ++f) total.v[f] += r.v[f];

  // (tenant -> folded fields), context 0 under its "(unattributed)" name.
  std::map<std::string, TenantRow> tenants;
  for (const CostRecord& r : rows) {
    TenantRow& t = tenants[r.context.tenant];
    t.tenant = r.context.tenant;
    for (std::size_t f = 0; f < kCostFieldCount; ++f) t.v[f] += r.v[f];
  }
  std::vector<TenantRow> tenant_rows;
  tenant_rows.reserve(tenants.size());
  for (auto& [name, row] : tenants) tenant_rows.push_back(std::move(row));

  w.begin_object();
  w.kv("schema", 1);
  w.kv("contexts", static_cast<std::uint64_t>(ledger.contexts()));
  w.kv("dropped_contexts", ledger.dropped_contexts());
  w.kv("k", static_cast<std::uint64_t>(k));

  w.key("totals");
  w.begin_object();
  write_fields(w, total.v);
  w.end_object();

  w.key("unattributed");
  w.begin_object();
  write_fields(w, ledger.unattributed().v);
  w.end_object();

  // Every open context with its identity (no counters): the join table a
  // profile consumer (scripts/flamegraph.py) uses to turn the raw ctx ids
  // riding trace spans into tenant/query frames.
  w.key("context_table");
  w.begin_array();
  for (const CostRecord& r : rows) {
    w.begin_object();
    w.kv("ctx", static_cast<std::uint64_t>(r.ctx));
    w.kv("tenant", r.context.tenant);
    w.kv("query_id", r.context.query_id);
    w.kv("kind", r.context.kind);
    w.kv("method", r.context.method);
    w.kv("slo_class", r.context.slo_class);
    w.end_object();
  }
  w.end_array();

  w.key("top_tenants");
  w.begin_object();
  for (CostField metric : kRankFields) {
    write_ranking(
        w, tenant_rows, metric, k,
        total.v[static_cast<std::size_t>(metric)],
        [](const TenantRow& t) { return t.tenant; },
        [&](const TenantRow& t) {
          w.kv("tenant", t.tenant);
          write_fields(w, t.v);
        });
  }
  w.end_object();

  // Per-query rankings skip the unattributed sink: it is not a query.
  std::vector<CostRecord> query_rows(rows.begin() + (rows.empty() ? 0 : 1),
                                     rows.end());
  w.key("top_queries");
  w.begin_object();
  for (CostField metric : kRankFields) {
    write_ranking(
        w, query_rows, metric, k,
        total.v[static_cast<std::size_t>(metric)],
        [](const CostRecord& r) {
          return std::make_tuple(r.context.tenant, r.context.query_id);
        },
        [&](const CostRecord& r) {
          w.kv("tenant", r.context.tenant);
          w.kv("query_id", r.context.query_id);
          w.kv("kind", r.context.kind);
          w.kv("method", r.context.method);
          w.kv("slo_class", r.context.slo_class);
          write_fields(w, r.v);
        });
  }
  w.end_object();
  w.end_object();
}

}  // namespace overcount
