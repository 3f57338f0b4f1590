// Span tracing: lock-free per-thread ring buffers of timestamped events,
// exported as Chrome/Perfetto-compatible `trace_event` JSON (obs/trace.cpp).
//
// The estimators are long-running randomized processes; a post-hoc counter
// snapshot says what a run cost but not WHERE the time went. The tracer
// answers that: RAII TraceSpan scopes and instant events are threaded
// through the ParallelRunner dispatch, the interleaved walk kernel (one
// lifecycle span per tour / CTRW sample / S&C trial), SampleCollideEstimator
// and the DES Simulator event loop, so a recorded run opens in Perfetto as
// one lane per worker thread with every walk laid out on it.
//
// Cost model (the reason this can stay compiled-in by default):
//  * No recorder installed (the normal case): every instrumentation site is
//    one relaxed atomic load of the global recorder pointer plus a branch.
//  * Recorder installed: a site costs two steady_clock reads and one store
//    into the calling thread's OWN ring buffer — no locks, no allocation,
//    no contention. Rings overwrite their oldest events when full, so
//    recording never blocks and memory stays bounded.
//  * OVERCOUNT_TRACE=OFF (CMake) compiles every site away entirely: the
//    TraceSpan constructor is empty, trace_active() is constant false, and
//    the guarded lane bookkeeping folds out — the same pattern as NullProbe.
//
// Tracing observes wall time only. No instrumentation site touches any Rng,
// so traced and untraced runs produce BIT-IDENTICAL estimates (pinned by
// tests/obs/trace_test.cpp).
//
// Event names and categories must be STRING LITERALS (or otherwise outlive
// the recorder): events store the pointers, never copies.
//
// Threading contract: record() is wait-free and safe from any thread;
// events()/drain snapshots take the registration mutex and must only run
// when the traced work has quiesced (e.g. after ParallelRunner::run
// returned, which happens-after every worker's writes). The exporter is
// called at end of run, not concurrently with the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/contracts.hpp"

// Compile-time master switch. The build defines OVERCOUNT_TRACE_ENABLED=0
// when configured with -DOVERCOUNT_TRACE=OFF; default is on.
#ifndef OVERCOUNT_TRACE_ENABLED
#define OVERCOUNT_TRACE_ENABLED 1
#endif

namespace overcount {

/// One recorded trace event. `phase` follows the Chrome trace_event format:
/// 'X' = complete span (ts + dur), 'i' = instant, and the flow triplet
/// 's'/'t'/'f' (flow start / step / end) that draws causal arrows between
/// slices on different threads — the mechanism that links one piece of
/// work (a request, a walk) across the threads that handle it. Flow events
/// carry `flow` as their binding id.
struct TraceEvent {
  const char* name = nullptr;  ///< static string literal
  const char* cat = nullptr;   ///< static category literal
  char phase = 'X';
  std::uint32_t tid = 0;       ///< dense recorder-assigned thread id
  std::uint64_t ts_us = 0;     ///< microseconds since recorder epoch
  std::uint64_t dur_us = 0;    ///< span duration ('X' only)
  const char* arg_name = nullptr;  ///< optional argument key (static literal)
  std::uint64_t arg = 0;           ///< argument value
  std::uint64_t flow = 0;          ///< flow binding id ('s'/'t'/'f' only)
};

/// Collects TraceEvents from any number of threads into per-thread ring
/// buffers. One recorder is "installed" globally at a time; instrumentation
/// sites pick it up through TraceRecorder::active().
class TraceRecorder {
 public:
  /// `events_per_thread` is rounded up to a power of two; each thread that
  /// records gets its own ring of that many slots, overwriting the oldest
  /// event when full.
  explicit TraceRecorder(std::size_t events_per_thread = std::size_t{1} << 16)
      : capacity_(round_up_pow2(events_per_thread)),
        id_(next_instance_id().fetch_add(1, std::memory_order_relaxed) + 1),
        epoch_(std::chrono::steady_clock::now()) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder() {
    // An installed recorder must never be destroyed: sites could be holding
    // the pointer mid-span.
    OVERCOUNT_EXPECTS(active() != this);
  }

  /// Makes this the process-wide active recorder (replacing any previous
  /// one). Sites observe the switch on their next event.
  void install() noexcept {
    active_recorder().store(this, std::memory_order_release);
  }
  /// Clears the active recorder if it is this one.
  void uninstall() noexcept {
    TraceRecorder* expected = this;
    active_recorder().compare_exchange_strong(expected, nullptr,
                                              std::memory_order_acq_rel);
  }
  /// The currently installed recorder, or nullptr.
  static TraceRecorder* active() noexcept {
    return active_recorder().load(std::memory_order_acquire);
  }

  /// Microseconds since this recorder's construction.
  std::uint64_t now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends one event to the calling thread's ring (wait-free; `tid` is
  /// filled in from the thread's registration).
  void record(TraceEvent e) noexcept {
    Ring& ring = ring_for_this_thread();
    e.tid = ring.tid;
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    ring.slots[head & (capacity_ - 1)] = e;
    ring.head.store(head + 1, std::memory_order_release);
  }

  /// Convenience: records a complete span that started at `start_us`.
  void record_complete(const char* cat, const char* name,
                       std::uint64_t start_us, const char* arg_name = nullptr,
                       std::uint64_t arg = 0) noexcept {
    record(TraceEvent{name, cat, 'X', 0, start_us, now_us() - start_us,
                      arg_name, arg});
  }

  /// Convenience: records an instant event stamped now.
  void record_instant(const char* cat, const char* name,
                      const char* arg_name = nullptr,
                      std::uint64_t arg = 0) noexcept {
    record(TraceEvent{name, cat, 'i', 0, now_us(), 0, arg_name, arg, 0});
  }

  /// Convenience: records a flow event stamped now. `phase` must be 's'
  /// (flow start), 't' (step) or 'f' (end); Perfetto draws an arrow between
  /// consecutive flow events sharing `flow_id`, each attaching to the slice
  /// enclosing it on its thread.
  void record_flow(const char* cat, const char* name, char phase,
                   std::uint64_t flow_id, const char* arg_name = nullptr,
                   std::uint64_t arg = 0) noexcept {
    record(TraceEvent{name, cat, phase, 0, now_us(), 0, arg_name, arg,
                      flow_id});
  }

  /// Hands out process-unique flow-id blocks: a caller seeding m walks grabs
  /// `reserve_flow_ids(m)` once and assigns base+walk to each, so ids never
  /// collide across batches or recorder reinstalls. Never returns 0 (0
  /// means "untraced").
  static std::uint64_t reserve_flow_ids(std::uint64_t count) noexcept {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(count, std::memory_order_relaxed);
  }

  /// Snapshot of all recorded events, oldest-first per thread, merged and
  /// sorted by timestamp. Call only when recording threads have quiesced
  /// (see file comment); the per-ring drop counts are NOT reset.
  std::vector<TraceEvent> events() const;

  /// Events lost to ring overwrites, summed over threads.
  std::uint64_t dropped_events() const noexcept {
    std::lock_guard lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      if (head > capacity_) dropped += head - capacity_;
    }
    return dropped;
  }

  /// Number of threads that have recorded at least one event.
  std::size_t thread_count() const noexcept {
    std::lock_guard lock(mutex_);
    return rings_.size();
  }

  std::size_t capacity_per_thread() const noexcept { return capacity_; }

 private:
  struct Ring {
    explicit Ring(std::size_t capacity, std::uint32_t thread_id)
        : slots(capacity), tid(thread_id) {}
    std::vector<TraceEvent> slots;
    std::atomic<std::uint64_t> head{0};  // total events ever written
    std::uint32_t tid;
  };

  static std::size_t round_up_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  static std::atomic<TraceRecorder*>& active_recorder() noexcept {
    static std::atomic<TraceRecorder*> g{nullptr};
    return g;
  }
  static std::atomic<std::uint64_t>& next_instance_id() noexcept {
    static std::atomic<std::uint64_t> g{0};
    return g;
  }

  /// The calling thread's ring, registering it on first use. The (recorder
  /// instance id, ring) pair is cached thread-locally, so the steady state
  /// is two thread-local reads; instance ids are process-unique, so a cache
  /// entry can never alias a different recorder.
  Ring& ring_for_this_thread() noexcept {
    thread_local std::uint64_t cached_id = 0;
    thread_local Ring* cached_ring = nullptr;
    if (cached_id != id_) {
      std::lock_guard lock(mutex_);
      rings_.push_back(std::make_unique<Ring>(
          capacity_, static_cast<std::uint32_t>(rings_.size())));
      cached_ring = rings_.back().get();
      cached_id = id_;
    }
    return *cached_ring;
  }

  const std::size_t capacity_;
  const std::uint64_t id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;  // guarded by mutex_
};

#if OVERCOUNT_TRACE_ENABLED

/// True when a recorder is installed: hoist this out of hot loops to guard
/// per-item timestamping (the kernels check once per kernel call).
inline bool trace_active() noexcept {
  return TraceRecorder::active() != nullptr;
}

/// Timestamp on the active recorder's clock; 0 when none is installed.
/// Only meaningful to pass back into trace_complete().
inline std::uint64_t trace_now_us() noexcept {
  TraceRecorder* rec = TraceRecorder::active();
  return rec != nullptr ? rec->now_us() : 0;
}

/// Records a complete span [start_us, now] if a recorder is installed.
inline void trace_complete(const char* cat, const char* name,
                           std::uint64_t start_us,
                           const char* arg_name = nullptr,
                           std::uint64_t arg = 0) noexcept {
  if (TraceRecorder* rec = TraceRecorder::active(); rec != nullptr)
    rec->record_complete(cat, name, start_us, arg_name, arg);
}

/// Records an instant event if a recorder is installed.
inline void trace_instant(const char* cat, const char* name,
                          const char* arg_name = nullptr,
                          std::uint64_t arg = 0) noexcept {
  if (TraceRecorder* rec = TraceRecorder::active(); rec != nullptr)
    rec->record_instant(cat, name, arg_name, arg);
}

/// Records a flow event ('s'/'t'/'f') if a recorder is installed. No-op for
/// flow_id 0, the "untraced" sentinel, so callers can pass a flow id
/// through unconditionally.
inline void trace_flow(const char* cat, const char* name, char phase,
                       std::uint64_t flow_id, const char* arg_name = nullptr,
                       std::uint64_t arg = 0) noexcept {
  if (flow_id == 0) return;
  if (TraceRecorder* rec = TraceRecorder::active(); rec != nullptr)
    rec->record_flow(cat, name, phase, flow_id, arg_name, arg);
}

/// RAII complete-span scope: stamps construction, records on destruction.
/// One atomic load when no recorder is installed.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name,
            const char* arg_name = nullptr, std::uint64_t arg = 0) noexcept
      : rec_(TraceRecorder::active()),
        cat_(cat),
        name_(name),
        arg_name_(arg_name),
        arg_(arg),
        start_us_(rec_ != nullptr ? rec_->now_us() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Overrides the span argument (e.g. a result only known at scope end).
  void set_arg(std::uint64_t v) noexcept { arg_ = v; }

  ~TraceSpan() {
    if (rec_ != nullptr)
      rec_->record_complete(cat_, name_, start_us_, arg_name_, arg_);
  }

 private:
  TraceRecorder* rec_;
  const char* cat_;
  const char* name_;
  const char* arg_name_;
  std::uint64_t arg_;
  std::uint64_t start_us_;
};

#else  // OVERCOUNT_TRACE_ENABLED == 0: every site compiles to nothing.

inline constexpr bool trace_active() noexcept { return false; }
inline constexpr std::uint64_t trace_now_us() noexcept { return 0; }
inline void trace_complete(const char*, const char*, std::uint64_t,
                           const char* = nullptr, std::uint64_t = 0) noexcept {
}
inline void trace_instant(const char*, const char*, const char* = nullptr,
                          std::uint64_t = 0) noexcept {}
inline void trace_flow(const char*, const char*, char, std::uint64_t,
                       const char* = nullptr, std::uint64_t = 0) noexcept {}

class TraceSpan {
 public:
  TraceSpan(const char*, const char*, const char* = nullptr,
            std::uint64_t = 0) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  void set_arg(std::uint64_t) noexcept {}
};

#endif  // OVERCOUNT_TRACE_ENABLED

/// Serialises a recorder's events as Chrome/Perfetto `trace_event` JSON
/// (the {"traceEvents": [...]} wrapper, 'X'/'i' and flow 's'/'t'/'f'
/// phases, metadata events naming the process and threads). Load the file
/// at ui.perfetto.dev or chrome://tracing. Uses the obs/json writer; see
/// obs/trace.cpp.
void write_chrome_trace(std::ostream& os, const TraceRecorder& recorder,
                        const std::string& process_name = "overcount");

/// write_chrome_trace into `path`; returns false (with a stderr note) when
/// the file cannot be opened.
bool write_chrome_trace_file(const std::string& path,
                             const TraceRecorder& recorder,
                             const std::string& process_name = "overcount");

}  // namespace overcount
