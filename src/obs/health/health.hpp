// Health events: the alarm bus of the audit layer (obs/health/).
//
// The registry (obs/metrics.hpp) answers "what is the current value"; a
// HealthEvent answers "a promise was broken, here is which one and by how
// much". Auditors (obs/health/audit.hpp), watchdogs (obs/health/watchdog.hpp)
// and the serve-layer SLO ledger raise structured events into the installed
// HealthCenter, which keeps a bounded ring of the most recent ones (the
// flight recorder dumps that ring as JSONL post mortem), counts them in the
// health.* metrics family, and fans each event out to subscribers — the hook
// the flight recorder uses to dump a bundle the moment something critical
// trips.
//
// Cost model mirrors obs/trace.hpp: with no center installed every
// health_raise() site is one relaxed atomic load and a branch; raising an
// event takes a mutex but only ever happens on cold paths (an audit failing,
// a watchdog tripping), never per walk step. Nothing here touches any Rng,
// so monitored runs stay bit-identical to unmonitored ones — the same
// contract every other obs/ layer keeps.
//
// OVERCOUNT_HEALTH=OFF (CMake) compiles the hook helpers away, exactly like
// OVERCOUNT_TRACE=OFF does for spans: health_active() becomes constant
// false and health_raise() becomes empty. The HealthCenter class itself
// stays available either way, like TraceRecorder does.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Compile-time master switch. The build defines OVERCOUNT_HEALTH_ENABLED=0
// when configured with -DOVERCOUNT_HEALTH=OFF; default is on.
#ifndef OVERCOUNT_HEALTH_ENABLED
#define OVERCOUNT_HEALTH_ENABLED 1
#endif

namespace overcount {

class Counter;
class MetricsRegistry;

enum class HealthSeverity : std::uint8_t { kInfo = 0, kWarn = 1, kCritical = 2 };

const char* to_string(HealthSeverity severity) noexcept;

/// One broken promise, machine-readable. `code` is the stable key alert
/// routing matches on ("serve.queue_saturated", "serve.slo_breach",
/// "audit.variance_envelope", ...); `value`/`threshold` say how far past the
/// envelope the observation landed.
struct HealthEvent {
  HealthSeverity severity = HealthSeverity::kInfo;
  std::string code;
  std::string subsystem;  ///< "serve", "audit", ...
  std::string message;    ///< human-readable detail
  double value = 0.0;     ///< observed value
  double threshold = 0.0; ///< the envelope it was checked against
  std::uint64_t ts_us = 0;  ///< microseconds since the center's epoch
  std::uint64_t seq = 0;    ///< monotone per-center sequence number
};

/// Bounded ring of recent HealthEvents + health.* counters + subscriber
/// fan-out. One center is "installed" process-wide at a time (the same
/// install/active pattern as TraceRecorder), so instrumentation deep in the
/// engine can raise events without plumbing a pointer through every layer.
class HealthCenter {
 public:
  /// `metrics`, when given, receives health.events plus one counter per
  /// severity; `capacity` bounds the ring of retained events (the "last N"
  /// the flight recorder dumps).
  explicit HealthCenter(MetricsRegistry* metrics = nullptr,
                        std::size_t capacity = 256);

  HealthCenter(const HealthCenter&) = delete;
  HealthCenter& operator=(const HealthCenter&) = delete;
  ~HealthCenter();

  /// Makes this the process-wide active center (replacing any previous one).
  void install() noexcept {
    active_center().store(this, std::memory_order_release);
  }
  /// Clears the active center if it is this one.
  void uninstall() noexcept {
    HealthCenter* expected = this;
    active_center().compare_exchange_strong(expected, nullptr,
                                            std::memory_order_acq_rel);
  }
  /// The currently installed center, or nullptr.
  static HealthCenter* active() noexcept {
    return active_center().load(std::memory_order_acquire);
  }

  /// Microseconds since this center's construction (steady clock).
  std::uint64_t now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records one event (ts_us/seq are stamped here), bumps the counters and
  /// notifies subscribers AFTER releasing the ring lock — a subscriber may
  /// itself snapshot the center (the flight recorder does).
  void raise(HealthEvent event);

  /// Convenience raise().
  void raise(HealthSeverity severity, std::string_view code,
             std::string_view subsystem, std::string_view message,
             double value = 0.0, double threshold = 0.0);

  /// The retained events, oldest first. At most `capacity` of them; earlier
  /// events are gone (total_raised() still counts them).
  std::vector<HealthEvent> recent() const;

  /// Events ever raised, including ones the ring has dropped.
  std::uint64_t total_raised() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  /// Highest severity ever raised (kInfo when none); lets an example turn
  /// "did anything critical happen" into an exit code.
  HealthSeverity worst() const noexcept {
    return static_cast<HealthSeverity>(worst_.load(std::memory_order_relaxed));
  }

  /// Registers a callback invoked (on the raising thread) for every event.
  /// Subscribers cannot be removed — register for the center's lifetime.
  void subscribe(std::function<void(const HealthEvent&)> fn);

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  static std::atomic<HealthCenter*>& active_center() noexcept {
    static std::atomic<HealthCenter*> g{nullptr};
    return g;
  }

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint8_t> worst_{0};

  mutable std::mutex mutex_;
  std::vector<HealthEvent> ring_;     // guarded by mutex_
  std::size_t ring_next_ = 0;         // guarded by mutex_
  std::uint64_t next_seq_ = 0;        // guarded by mutex_
  std::vector<std::function<void(const HealthEvent&)>> subscribers_;

  Counter* events_m_ = nullptr;
  Counter* info_m_ = nullptr;
  Counter* warn_m_ = nullptr;
  Counter* critical_m_ = nullptr;
};

#if OVERCOUNT_HEALTH_ENABLED

/// True when a HealthCenter is installed.
inline bool health_active() noexcept { return HealthCenter::active() != nullptr; }

/// Raises an event on the installed center, if any.
inline void health_raise(HealthSeverity severity, std::string_view code,
                         std::string_view subsystem, std::string_view message,
                         double value = 0.0, double threshold = 0.0) {
  if (HealthCenter* center = HealthCenter::active(); center != nullptr)
    center->raise(severity, code, subsystem, message, value, threshold);
}

#else  // OVERCOUNT_HEALTH_ENABLED == 0: hook sites compile to nothing.

inline constexpr bool health_active() noexcept { return false; }
inline void health_raise(HealthSeverity, std::string_view, std::string_view,
                         std::string_view, double = 0.0,
                         double = 0.0) noexcept {}

#endif  // OVERCOUNT_HEALTH_ENABLED

/// One event per line as a self-contained JSON object — the JSONL stream the
/// flight recorder writes as health_events.jsonl. Keys: seq, ts_us,
/// severity, code, subsystem, message, value, threshold (non-finite
/// value/threshold render as null, matching the JsonWriter contract).
void write_health_events_jsonl(std::ostream& os,
                               const std::vector<HealthEvent>& events);

}  // namespace overcount
