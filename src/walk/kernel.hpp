// Interleaved multi-walk kernel: the memory-latency answer to the paper's
// step bill.
//
// Every estimator guarantee is bought with walk steps — m Random Tours cost
// m * 2|E|/d_i steps (Section 3.4) and each Sample & Collide sample burns a
// full CTRW timer — and at scale those steps are DRAM-latency-bound pointer
// chasing through the CSR arrays: load offsets[v], load adjacency[offset+k],
// repeat. One walk serialises on that chain; the hardware sits idle waiting
// on memory. Das Sarma et al. (PAPERS.md) break the chain in the distributed
// setting by running many short walks concurrently and stitching them; the
// single-machine analogue implemented here interleaves a width-W band of
// INDEPENDENT walks in one thread, round-robin, so W loads are in flight at
// once instead of one.
//
// Lane scheduling: a kernel call takes walk indices from a WalkCursor. The
// batch layer (core/parallel.hpp) gives every pool worker ONE kernel call on
// a cursor shared by the whole batch, so when a lane's walk ends the lane
// claims the next unstarted walk of the batch (one relaxed fetch_add per
// walk, never per step) and retires only once the cursor is exhausted.
// Tour lengths are heavy-tailed; refilling from the batch keeps all W lanes
// busy until the batch's last walks, instead of draining a fixed chunk.
//
// Each lane alternates two phases per step, giving every potentially-missing
// load a full rotation (W-1 other lane turns) between prefetch and use:
//
//   read phase     at = *ptr            adjacency element, prefetched one
//                                       rotation ago when ptr was drawn
//                  prefetch offsets[at] via kernel_prefetch / G::prefetch
//   process phase  nbrs = neighbors(at) offsets now (likely) cached
//                  draw k; ptr = &nbrs[k]; __builtin_prefetch(ptr)
//
// Determinism contract: walk w draws ONLY from a copy of streams[w] that its
// lane takes when the walk starts (the shared stream vector is read once per
// walk and never written, so lanes of different workers never share a
// written cache line), in exactly the order the scalar code
// (core/random_tour.hpp random_tour, walk/walkers.hpp ctrw_sample,
// core/sample_collide.hpp SampleCollideEstimator) draws, and every
// floating-point accumulation runs in the same per-walk order — so each
// per-walk result is BIT-IDENTICAL to the scalar path at any width, and
// batches built on the kernel are bit-identical at any thread count
// (tests/walk/kernel_equivalence_test.cpp, tests/walk/lane_refill_test.cpp).
// Which lane or worker runs walk w never matters: its result lands in
// out[w]. Probes are per-walk: walk w only ever touches probes[w], so
// per-probe event order matches the scalar path too, even though events of
// different walks interleave in time.
//
// Per-step degree checks compile to OVERCOUNT_HOT_EXPECTS (off in plain
// Release); origin validity is checked unconditionally once per kernel call.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

// TourEstimate and SampleResult are header-only result structs; including
// them here adds no link dependency, so the walk library stays below core.
#include "core/random_tour.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "walk/topology.hpp"
#include "walk/walkers.hpp"

namespace overcount {

/// Default interleave width: enough in-flight loads to cover DRAM latency
/// without spilling the lane state out of registers/L1.
inline constexpr std::size_t kDefaultKernelWidth = 16;

/// The width the batch APIs actually use: `configured` when non-zero, else
/// the OVERCOUNT_KERNEL_WIDTH environment variable when set to a positive
/// integer, else kDefaultKernelWidth. Width 1 disables the kernel (batches
/// take the scalar path).
std::size_t resolved_kernel_width(std::size_t configured) noexcept;

/// Issues a prefetch for the topology state behind degree(v)/neighbors(v)
/// when the graph type offers one (Graph prefetches its CSR offset pair);
/// silently a no-op for topologies without a prefetch hint (DynamicGraph).
template <OverlayTopology G>
inline void kernel_prefetch(const G& g, NodeId v) noexcept {
  if constexpr (requires { g.prefetch(v); }) g.prefetch(v);
}

/// Walk indices [begin, end) of a batch, each handed out exactly once to
/// whichever kernel lane claims it first. Kernel calls on different threads
/// may share one cursor; claiming is one relaxed fetch_add.
class WalkCursor {
 public:
  WalkCursor(std::size_t begin, std::size_t end) noexcept
      : next_(begin), end_(end) {}

  /// Claims the next unstarted walk into `walk`; false once none is left.
  bool claim(std::size_t& walk) noexcept {
    walk = next_.fetch_add(1, std::memory_order_relaxed);
    return walk < end_;
  }

  std::size_t end() const noexcept { return end_; }

 private:
  std::atomic<std::size_t> next_;
  std::size_t end_;
};

/// Raw outcome of one Sample & Collide trial run by sc_kernel: the
/// sufficient statistic C_ell plus the message bill. The estimator math
/// (ML root, closed form, brackets) lives in core/sample_collide.hpp and is
/// applied by the batch layer, keeping walk/ below core/ in the layering.
struct ScTrialRaw {
  std::uint64_t samples = 0;  ///< C_ell: samples drawn until ell collisions
  std::uint64_t hops = 0;     ///< total CTRW hops across those samples
};

namespace kernel_detail {

/// Start-of-walk draw shared by tour lanes: pick the first step out of the
/// origin on the lane's own stream and prefetch the adjacency element.
inline const NodeId* draw_step(std::span<const NodeId> nbrs, Rng& rng) {
  const NodeId* p = nbrs.data() + rng.uniform_below(nbrs.size());
  __builtin_prefetch(p);
  return p;
}

/// The lane scheduler all three kernels share. Fills up to `width` lanes
/// from `cursor` with `start(lane, walk)`, then turns the lanes round-robin:
/// `advance(lane)` runs one phase of the lane's walk and returns true when
/// that walk (or S&C trial) has ended and its result is stored. An ended
/// lane claims the next walk from the cursor, or retires when none is left;
/// either way the refilled (or swapped-in) lane takes the freed turn next.
template <typename Lane, typename Start, typename Advance>
void drive_lanes(WalkCursor& cursor, std::size_t width, Start&& start,
                 Advance&& advance) {
  std::vector<Lane> lanes;
  lanes.reserve(width);
  std::size_t walk = 0;
  while (lanes.size() < width && cursor.claim(walk))
    start(lanes.emplace_back(), walk);

  std::size_t li = 0;
  while (!lanes.empty()) {
    if (li >= lanes.size()) li = 0;
    Lane& lane = lanes[li];
    if (!advance(lane)) {
      ++li;
    } else if (cursor.claim(walk)) {
      start(lane, walk);
    } else {
      if (li + 1 != lanes.size()) lanes[li] = std::move(lanes.back());
      lanes.pop_back();
    }
  }
}

}  // namespace kernel_detail

/// Interleaved Random Tours: each walk w the cursor hands out runs from
/// `origin` on a lane-owned copy of `streams[w]` and stores into `out[w]`
/// its estimate of sum_j f(j), bit-identical to
/// `random_tour(g, origin, f, streams[w], max_steps, probes[w])`. At most
/// `width` walks are in flight in this call. When P is an enabled probe
/// type, `probes` must have one probe per walk (probes[w] observes walk w
/// only).
template <OverlayTopology G, typename F, WalkProbe P = NullProbe>
void tour_kernel(const G& g, NodeId origin, F&& f,
                 std::span<const Rng> streams, std::span<TourEstimate> out,
                 std::size_t width, WalkCursor& cursor,
                 std::uint64_t max_steps = ~0ULL, std::span<P> probes = {}) {
  OVERCOUNT_EXPECTS(streams.size() == out.size());
  OVERCOUNT_EXPECTS(cursor.end() <= out.size());
  OVERCOUNT_EXPECTS(width >= 1);
  if constexpr (probe_enabled_v<P>)
    OVERCOUNT_EXPECTS(probes.size() == out.size());
  if (out.empty()) return;
  const auto origin_nbrs = g.neighbors(origin);
  OVERCOUNT_EXPECTS(!origin_nbrs.empty());
  const double d_origin = static_cast<double>(origin_nbrs.size());
  const double counter0 = f(origin) / d_origin;

  struct Lane {
    Rng rng;               // this walk's stream, copied in at walk start
    std::size_t walk;      // index into streams/out/probes
    NodeId at;             // node being processed (process phase)
    double counter;        // scalar random_tour's X accumulator
    std::uint64_t steps;
    std::uint64_t trace_t0;  // span start (only written when tracing)
    const NodeId* ptr;     // adjacency element the next read phase loads
    bool read_phase;
  };

  // Tracing is checked ONCE per kernel call: lane lifecycle spans cost two
  // clock reads per WALK when a recorder is installed, and a dead branch
  // otherwise. No trace call touches any stream, so traced batches stay
  // bit-identical (obs/trace.hpp).
  const bool tracing = trace_active();
  auto start = [&](Lane& lane, std::size_t walk) {
    lane.walk = walk;
    lane.rng = streams[walk];
    if (tracing) lane.trace_t0 = trace_now_us();
    if constexpr (probe_enabled_v<P>) probes[walk].walk_begin(origin);
    lane.counter = counter0;
    lane.ptr = kernel_detail::draw_step(origin_nbrs, lane.rng);
    lane.steps = 1;
    lane.read_phase = true;
  };
  auto advance = [&](Lane& lane) {
    if (lane.read_phase) {
      const NodeId at = *lane.ptr;
      if (at == origin || lane.steps >= max_steps) {
        const bool completed = at == origin;
        if constexpr (probe_enabled_v<P>)
          probes[lane.walk].tour_end(lane.steps, completed);
        if (tracing)
          trace_complete("walk", "tour", lane.trace_t0, "steps", lane.steps);
        out[lane.walk] = {d_origin * lane.counter, lane.steps, completed};
        return true;
      }
      if constexpr (probe_enabled_v<P>) probes[lane.walk].on_visit(at);
      lane.at = at;
      kernel_prefetch(g, at);
      lane.read_phase = false;
    } else {
      const auto nbrs = g.neighbors(lane.at);
      OVERCOUNT_HOT_EXPECTS(!nbrs.empty());
      lane.counter += f(lane.at) / static_cast<double>(nbrs.size());
      lane.ptr = kernel_detail::draw_step(nbrs, lane.rng);
      ++lane.steps;
      lane.read_phase = true;
    }
    return false;
  };
  kernel_detail::drive_lanes<Lane>(cursor, width, start, advance);
}

/// Single-call form: runs every walk of `out` on a local cursor.
template <OverlayTopology G, typename F, WalkProbe P = NullProbe>
void tour_kernel(const G& g, NodeId origin, F&& f,
                 std::span<const Rng> streams, std::span<TourEstimate> out,
                 std::size_t width, std::uint64_t max_steps = ~0ULL,
                 std::span<P> probes = {}) {
  WalkCursor cursor(0, out.size());
  tour_kernel(g, origin, f, streams, out, width, cursor, max_steps, probes);
}

/// Interleaved CTRW sampling walks: each walk w the cursor hands out runs
/// from `origin` with horizon `timer` on a lane-owned copy of `streams[w]`,
/// bit-identical to `ctrw_sample(g, origin, timer, streams[w], probes[w])`.
template <OverlayTopology G, WalkProbe P = NullProbe>
void ctrw_kernel(const G& g, NodeId origin, double timer,
                 std::span<const Rng> streams, std::span<SampleResult> out,
                 std::size_t width, WalkCursor& cursor,
                 std::span<P> probes = {}) {
  OVERCOUNT_EXPECTS(streams.size() == out.size());
  OVERCOUNT_EXPECTS(cursor.end() <= out.size());
  OVERCOUNT_EXPECTS(width >= 1);
  OVERCOUNT_EXPECTS(timer > 0.0);
  if constexpr (probe_enabled_v<P>)
    OVERCOUNT_EXPECTS(probes.size() == out.size());
  if (out.empty()) return;
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);

  struct Lane {
    Rng rng;
    std::size_t walk;
    NodeId at;
    double remaining;
    std::uint64_t hops;
    std::uint64_t trace_t0;  // span start (only written when tracing)
    const NodeId* ptr;
    bool read_phase;
  };

  // One active-recorder check per kernel call; spans are per WALK, never per
  // step, and touch no stream (see tour_kernel).
  const bool tracing = trace_active();
  auto start = [&](Lane& lane, std::size_t walk) {
    lane.walk = walk;
    lane.rng = streams[walk];
    if (tracing) lane.trace_t0 = trace_now_us();
    if constexpr (probe_enabled_v<P>) probes[walk].walk_begin(origin);
    lane.at = origin;
    lane.remaining = timer;
    lane.hops = 0;
    lane.read_phase = false;  // scalar ctrw_sample processes the origin first
  };
  auto advance = [&](Lane& lane) {
    if (lane.read_phase) {
      lane.at = *lane.ptr;
      if constexpr (probe_enabled_v<P>) probes[lane.walk].on_visit(lane.at);
      kernel_prefetch(g, lane.at);
      lane.read_phase = false;
      return false;
    }
    const auto nbrs = g.neighbors(lane.at);
    const std::size_t degree = nbrs.size();
    OVERCOUNT_HOT_EXPECTS(degree > 0);
    const double sojourn = lane.rng.exponential(static_cast<double>(degree));
    if constexpr (probe_enabled_v<P>)
      probes[lane.walk].on_sojourn(std::min(sojourn, lane.remaining));
    lane.remaining -= sojourn;
    if (lane.remaining <= 0.0) {
      if constexpr (probe_enabled_v<P>)
        probes[lane.walk].sample_end(lane.hops);
      if (tracing)
        trace_complete("walk", "ctrw_sample", lane.trace_t0, "hops",
                       lane.hops);
      out[lane.walk] = {lane.at, lane.hops};
      return true;
    }
    lane.ptr = kernel_detail::draw_step(nbrs, lane.rng);
    ++lane.hops;
    lane.read_phase = true;
    return false;
  };
  kernel_detail::drive_lanes<Lane>(cursor, width, start, advance);
}

/// Single-call form: runs every walk of `out` on a local cursor.
template <OverlayTopology G, WalkProbe P = NullProbe>
void ctrw_kernel(const G& g, NodeId origin, double timer,
                 std::span<const Rng> streams, std::span<SampleResult> out,
                 std::size_t width, std::span<P> probes = {}) {
  WalkCursor cursor(0, out.size());
  ctrw_kernel(g, origin, timer, streams, out, width, cursor, probes);
}

/// Interleaved Sample & Collide trials: each trial t the cursor hands out
/// runs its whole sample-until-ell-collisions loop on a lane-owned copy of
/// `streams[t]`, CTRW walks back-to-back, with the same draw and
/// probe-event order as `SampleCollideEstimator(g, origin, timer, ell,
/// streams[t]).estimate(probes[t])`. Stores the raw (C_ell, hops) statistic
/// in out[t]; the batch layer applies the Section 4 estimator math.
/// Collision bookkeeping mirrors core/sample_collide.hpp CollisionTracker:
/// every sample whose node was already seen within the SAME trial counts
/// one collision.
template <OverlayTopology G, WalkProbe P = NullProbe>
void sc_kernel(const G& g, NodeId origin, double timer, std::size_t ell,
               std::span<const Rng> streams, std::span<ScTrialRaw> out,
               std::size_t width, WalkCursor& cursor,
               std::span<P> probes = {}) {
  OVERCOUNT_EXPECTS(streams.size() == out.size());
  OVERCOUNT_EXPECTS(cursor.end() <= out.size());
  OVERCOUNT_EXPECTS(width >= 1);
  OVERCOUNT_EXPECTS(timer > 0.0);
  OVERCOUNT_EXPECTS(ell >= 1);
  if constexpr (probe_enabled_v<P>)
    OVERCOUNT_EXPECTS(probes.size() == out.size());
  if (out.empty()) return;
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);

  struct Lane {
    Rng rng;
    std::size_t trial;
    // trial-level state
    std::unordered_set<NodeId> seen;
    std::uint64_t samples;
    std::uint64_t collisions;
    std::uint64_t trial_hops;
    std::uint64_t prev_collision_at;
    std::uint64_t trace_t0;  // trial span start (only written when tracing)
    // current sampling walk
    NodeId at;
    double remaining;
    std::uint64_t walk_hops;
    const NodeId* ptr;
    bool read_phase;
  };

  // One active-recorder check per kernel call; one span per TRIAL plus an
  // instant per collision — never per step (see tour_kernel).
  const bool tracing = trace_active();
  auto start_walk = [&](Lane& lane) {
    if constexpr (probe_enabled_v<P>) probes[lane.trial].walk_begin(origin);
    lane.at = origin;
    lane.remaining = timer;
    lane.walk_hops = 0;
    lane.read_phase = false;
  };
  auto start_trial = [&](Lane& lane, std::size_t trial) {
    lane.trial = trial;
    lane.rng = streams[trial];
    if (tracing) lane.trace_t0 = trace_now_us();
    lane.seen.clear();
    lane.samples = 0;
    lane.collisions = 0;
    lane.trial_hops = 0;
    lane.prev_collision_at = 0;
    start_walk(lane);
  };
  auto advance = [&](Lane& lane) {
    if (lane.read_phase) {
      lane.at = *lane.ptr;
      if constexpr (probe_enabled_v<P>) probes[lane.trial].on_visit(lane.at);
      kernel_prefetch(g, lane.at);
      lane.read_phase = false;
      return false;
    }
    const auto nbrs = g.neighbors(lane.at);
    const std::size_t degree = nbrs.size();
    OVERCOUNT_HOT_EXPECTS(degree > 0);
    const double sojourn = lane.rng.exponential(static_cast<double>(degree));
    if constexpr (probe_enabled_v<P>)
      probes[lane.trial].on_sojourn(std::min(sojourn, lane.remaining));
    lane.remaining -= sojourn;
    if (lane.remaining > 0.0) {
      lane.ptr = kernel_detail::draw_step(nbrs, lane.rng);
      ++lane.walk_hops;
      lane.read_phase = true;
      return false;
    }
    // the timer died at lane.at: one sample delivered
    if constexpr (probe_enabled_v<P>)
      probes[lane.trial].sample_end(lane.walk_hops);
    lane.trial_hops += lane.walk_hops;
    ++lane.samples;
    if (!lane.seen.insert(lane.at).second) {
      ++lane.collisions;
      if constexpr (probe_enabled_v<P>)
        probes[lane.trial].on_collision(lane.samples - lane.prev_collision_at);
      if (tracing)
        trace_instant("walk", "sc.collision", "gap",
                      lane.samples - lane.prev_collision_at);
      lane.prev_collision_at = lane.samples;
    }
    if (lane.collisions < ell) {
      start_walk(lane);
      return false;
    }
    if (tracing)
      trace_complete("walk", "sc.trial", lane.trace_t0, "samples",
                     lane.samples);
    out[lane.trial] = {lane.samples, lane.trial_hops};
    return true;
  };
  kernel_detail::drive_lanes<Lane>(cursor, width, start_trial, advance);
}

/// Single-call form: runs every trial of `out` on a local cursor.
template <OverlayTopology G, WalkProbe P = NullProbe>
void sc_kernel(const G& g, NodeId origin, double timer, std::size_t ell,
               std::span<const Rng> streams, std::span<ScTrialRaw> out,
               std::size_t width, std::span<P> probes = {}) {
  WalkCursor cursor(0, out.size());
  sc_kernel(g, origin, timer, ell, streams, out, width, cursor, probes);
}

}  // namespace overcount
