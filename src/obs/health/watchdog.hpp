// Watchdog: saturation detection for the long-running parts of the
// system, such as the serve layer's DeadlineQueue.
//
// A Watchdog is a cold-side poller that evaluates registered level checks
// either from its own background thread (start()) or on demand
// (poll_once(), which tests drive with an injected clock). A check that
// fails raises a kCritical HealthEvent through the given HealthCenter —
// wiring that center into a FlightRecorder::auto_dump_on() turns any trip
// into a post-mortem bundle.
//
// Checks raise ONCE per episode: a level check re-arms when the value drops
// below its threshold. Nothing here touches any Rng; a watched run is
// bit-identical to an unwatched one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/health/health.hpp"

namespace overcount {

/// Microseconds on the process-wide steady clock every Watchdog reads by
/// default (epoch = first use).
std::uint64_t health_now_us() noexcept;

struct WatchdogConfig {
  std::uint64_t poll_period_us = 100'000;  ///< background-thread cadence
  /// Injectable clock for deterministic tests; defaults to health_now_us.
  std::function<std::uint64_t()> now_us;
};

/// Evaluates registered checks and raises kCritical HealthEvents on trips.
/// Register every check BEFORE start(); registration is not thread-safe
/// against a running poll thread.
class Watchdog {
 public:
  explicit Watchdog(HealthCenter* health, WatchdogConfig config = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Trips `code` when `value()` has been >= `threshold` continuously for
  /// `sustain_us` microseconds (sustain 0 trips on first sight). Used for
  /// DeadlineQueue saturation, where a momentary spike is normal and only a
  /// sustained plateau is a problem.
  void watch_level(std::string code, std::string subsystem,
                   std::function<double()> value, double threshold,
                   std::uint64_t sustain_us);

  /// Spawns the background poll thread (idempotent).
  void start();
  /// Stops and joins the poll thread (idempotent; also run by ~Watchdog).
  void stop();

  /// Evaluates every check once at the injected clock's current reading;
  /// returns the number of events raised. start() calls this on a cadence —
  /// tests call it directly.
  std::size_t poll_once();

  std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

 private:
  struct LevelCheck {
    std::string code;
    std::string subsystem;
    std::function<double()> value;
    double threshold;
    std::uint64_t sustain_us;
    std::uint64_t exceeding_since_us = 0;  ///< 0 = currently below threshold
    bool tripped = false;
  };

  HealthCenter* health_;
  WatchdogConfig config_;
  std::vector<LevelCheck> level_checks_;
  std::atomic<std::uint64_t> trips_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  // guarded by stop_mutex_
  std::thread thread_;
};

}  // namespace overcount
