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
// INDEPENDENT walks in one thread, sweep by sweep, so W loads are in flight
// at once instead of one.
//
// Lane scheduling: a kernel call takes walk indices from a WalkCursor. The
// batch layer (core/parallel.hpp) gives every pool worker ONE kernel call on
// a cursor shared by the whole batch, so when a lane's walk ends the lane
// claims the next unstarted walk of the batch (one relaxed fetch_add per
// walk, never per step) and retires only once the cursor is exhausted.
// Tour lengths are heavy-tailed; refilling from the batch keeps all W lanes
// busy until the batch's last walks, instead of draining a fixed chunk.
//
// Lane state is structure-of-arrays (kernel_detail::Lanes: one array per
// field, indexed by lane), and all three kernels run on the same driver.
// It sweeps phase-major, giving every potentially-missing load a full sweep
// over the other lanes between prefetch and use:
//
//   read sweep     at = *next          adjacency element, prefetched when
//                                      the last process sweep drew next
//                  end the walk, or    a lane whose walk ended claims the
//                                      next walk, or retires (swap-remove)
//                  prefetch offsets[at] via kernel_prefetch / G::prefetch
//   process sweep  nbrs = neighbors(at) offsets now (likely) cached
//                  accumulate; draw k; next = &nbrs[k]; prefetch(next)
//
// A walk starts at its origin in the process state, so the first process
// sweep takes its step out of the origin. A CTRW whose timer dies in the
// process sweep sets next = nullptr and ends at the following read sweep.
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
#include <utility>
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

/// Draws the next step out of `nbrs` on the lane's own stream and
/// prefetches the adjacency element the next read sweep loads.
inline const NodeId* draw_step(std::span<const NodeId> nbrs, Rng& rng) {
  const NodeId* p = nbrs.data() + rng.uniform_below(nbrs.size());
  __builtin_prefetch(p);
  return p;
}

/// Per-lane state a kernel keeps beside the shared fields; none for walks
/// whose whole state fits them.
struct NoExtra {};

/// The lane driver all three kernels share. Lane state is kept as
/// structure-of-arrays, one array per field; lanes [0, live) hold walks in
/// flight. run() fills up to `width` lanes from the cursor with
/// `start(lane, walk)`, which leaves the lane at its origin in the process
/// state, then alternates two sweeps over the live lanes until none is
/// left: `process(lane)` runs the lane's process phase, and `read(lane)`
/// its read phase, returning true once the walk (or S&C trial) has ended
/// and its result is stored. An ended lane claims the next walk from the
/// cursor, or retires when none is left: the last live lane moves into its
/// slot and is read next, since it has not been read in this sweep yet.
template <typename Extra = NoExtra>
struct Lanes {
  explicit Lanes(std::size_t width)
      : rng(width),
        walk(width),
        acc(width),
        steps(width),
        next(width),
        at(width),
        trace_t0(width),
        extra(width) {}

  std::vector<Rng> rng;              // the walk's stream, copied at start
  std::vector<std::size_t> walk;     // index into streams/out/probes
  std::vector<double> acc;           // tour: X accumulator; CTRW: timer left
  std::vector<std::uint64_t> steps;  // tour steps / CTRW hops of the walk
  std::vector<const NodeId*> next;   // element the next read sweep loads
  std::vector<NodeId> at;            // node the next process sweep handles
  std::vector<std::uint64_t> trace_t0;  // span start (written when tracing)
  std::vector<Extra> extra;

  template <typename Start, typename Process, typename Read>
  void run(WalkCursor& cursor, Start&& start, Process&& process,
           Read&& read) {
    const std::size_t width = walk.size();
    std::size_t live = 0;
    std::size_t w = 0;
    while (live < width && cursor.claim(w)) start(live++, w);
    while (live > 0) {
      for (std::size_t i = 0; i < live; ++i) process(i);
      for (std::size_t i = 0; i < live;) {
        if (!read(i)) {
          ++i;
        } else if (cursor.claim(w)) {
          start(i, w);
          ++i;
        } else if (i != --live) {
          move_lane(live, i);
        }
      }
    }
  }

 private:
  void move_lane(std::size_t from, std::size_t to) {
    rng[to] = rng[from];
    walk[to] = walk[from];
    acc[to] = acc[from];
    steps[to] = steps[from];
    next[to] = next[from];
    at[to] = at[from];
    trace_t0[to] = trace_t0[from];
    extra[to] = std::move(extra[from]);
  }
};

/// Starts a CTRW sampling walk of horizon `timer` from `origin` in lane i;
/// the scalar ctrw_sample processes the origin first.
template <typename Extra, WalkProbe P>
void ctrw_begin(Lanes<Extra>& lanes, std::size_t i, NodeId origin,
                double timer, std::span<P> probes) {
  if constexpr (probe_enabled_v<P>) probes[lanes.walk[i]].walk_begin(origin);
  lanes.at[i] = origin;
  lanes.acc[i] = timer;
  lanes.steps[i] = 0;
}

/// CTRW process phase of lane i: the Exp(d) sojourn at the lane's node,
/// then the next hop, or next = nullptr when the timer died there.
template <OverlayTopology G, typename Extra, WalkProbe P>
void ctrw_process(const G& g, Lanes<Extra>& lanes, std::size_t i,
                  std::span<P> probes) {
  const auto nbrs = g.neighbors(lanes.at[i]);
  const std::size_t degree = nbrs.size();
  OVERCOUNT_HOT_EXPECTS(degree > 0);
  const double sojourn = lanes.rng[i].exponential(static_cast<double>(degree));
  if constexpr (probe_enabled_v<P>)
    probes[lanes.walk[i]].on_sojourn(std::min(sojourn, lanes.acc[i]));
  lanes.acc[i] -= sojourn;
  if (lanes.acc[i] <= 0.0) {
    lanes.next[i] = nullptr;
    return;
  }
  lanes.next[i] = draw_step(nbrs, lanes.rng[i]);
  ++lanes.steps[i];
}

/// CTRW read phase of lane i. Returns true when the walk's timer died at
/// the lane's node in the last process sweep: that node is the sample.
template <OverlayTopology G, typename Extra, WalkProbe P>
bool ctrw_read(const G& g, Lanes<Extra>& lanes, std::size_t i,
               std::span<P> probes) {
  if (lanes.next[i] == nullptr) {
    if constexpr (probe_enabled_v<P>)
      probes[lanes.walk[i]].sample_end(lanes.steps[i]);
    return true;
  }
  const NodeId at = *lanes.next[i];
  if constexpr (probe_enabled_v<P>) probes[lanes.walk[i]].on_visit(at);
  lanes.at[i] = at;
  kernel_prefetch(g, at);
  return false;
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
  const double d_origin = static_cast<double>(g.degree(origin));
  OVERCOUNT_EXPECTS(d_origin > 0);

  // Tracing is checked ONCE per kernel call: lane lifecycle spans cost two
  // clock reads per WALK when a recorder is installed, and a dead branch
  // otherwise. No trace call touches any stream, so traced batches stay
  // bit-identical (obs/trace.hpp).
  const bool tracing = trace_active();
  kernel_detail::Lanes<> lanes(width);
  auto start = [&](std::size_t i, std::size_t walk) {
    lanes.walk[i] = walk;
    lanes.rng[i] = streams[walk];
    if (tracing) lanes.trace_t0[i] = trace_now_us();
    if constexpr (probe_enabled_v<P>) probes[walk].walk_begin(origin);
    // The first process sweep accumulates the origin's f(origin)/d_origin
    // and draws the step out of it. -0.0 is the additive identity, so the
    // accumulator then holds exactly the scalar random_tour's first term.
    lanes.at[i] = origin;
    lanes.acc[i] = -0.0;
    lanes.steps[i] = 0;
  };
  auto process = [&](std::size_t i) {
    const NodeId at = lanes.at[i];
    const auto nbrs = g.neighbors(at);
    OVERCOUNT_HOT_EXPECTS(!nbrs.empty());
    lanes.acc[i] += f(at) / static_cast<double>(nbrs.size());
    lanes.next[i] = kernel_detail::draw_step(nbrs, lanes.rng[i]);
    ++lanes.steps[i];
  };
  auto read = [&](std::size_t i) {
    const NodeId at = *lanes.next[i];
    const std::uint64_t steps = lanes.steps[i];
    if (at == origin || steps >= max_steps) {
      const bool completed = at == origin;
      const std::size_t walk = lanes.walk[i];
      if constexpr (probe_enabled_v<P>)
        probes[walk].tour_end(steps, completed);
      if (tracing)
        trace_complete("walk", "tour", lanes.trace_t0[i], "steps", steps);
      out[walk] = {d_origin * lanes.acc[i], steps, completed};
      return true;
    }
    if constexpr (probe_enabled_v<P>) probes[lanes.walk[i]].on_visit(at);
    lanes.at[i] = at;
    kernel_prefetch(g, at);
    return false;
  };
  lanes.run(cursor, start, process, read);
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

  // One active-recorder check per kernel call; spans are per WALK, never per
  // step, and touch no stream (see tour_kernel).
  const bool tracing = trace_active();
  kernel_detail::Lanes<> lanes(width);
  auto start = [&](std::size_t i, std::size_t walk) {
    lanes.walk[i] = walk;
    lanes.rng[i] = streams[walk];
    if (tracing) lanes.trace_t0[i] = trace_now_us();
    kernel_detail::ctrw_begin(lanes, i, origin, timer, probes);
  };
  auto process = [&](std::size_t i) {
    kernel_detail::ctrw_process(g, lanes, i, probes);
  };
  auto read = [&](std::size_t i) {
    if (!kernel_detail::ctrw_read(g, lanes, i, probes)) return false;
    if (tracing)
      trace_complete("walk", "ctrw_sample", lanes.trace_t0[i], "hops",
                     lanes.steps[i]);
    out[lanes.walk[i]] = {lanes.at[i], lanes.steps[i]};
    return true;
  };
  lanes.run(cursor, start, process, read);
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

  // Trial-level state; the lane's shared fields hold the current sampling
  // walk (acc = timer left, steps = its hops).
  struct Trial {
    std::unordered_set<NodeId> seen;
    std::uint64_t samples = 0;
    std::uint64_t collisions = 0;
    std::uint64_t hops = 0;
    std::uint64_t prev_collision_at = 0;
  };

  // One active-recorder check per kernel call; one span per TRIAL plus an
  // instant per collision — never per step (see tour_kernel).
  const bool tracing = trace_active();
  kernel_detail::Lanes<Trial> lanes(width);
  auto start = [&](std::size_t i, std::size_t trial) {
    lanes.walk[i] = trial;
    lanes.rng[i] = streams[trial];
    if (tracing) lanes.trace_t0[i] = trace_now_us();
    Trial& t = lanes.extra[i];
    t.seen.clear();
    t.samples = 0;
    t.collisions = 0;
    t.hops = 0;
    t.prev_collision_at = 0;
    kernel_detail::ctrw_begin(lanes, i, origin, timer, probes);
  };
  auto process = [&](std::size_t i) {
    kernel_detail::ctrw_process(g, lanes, i, probes);
  };
  auto read = [&](std::size_t i) {
    if (!kernel_detail::ctrw_read(g, lanes, i, probes)) return false;
    // the timer died at lanes.at[i]: one sample delivered
    Trial& t = lanes.extra[i];
    t.hops += lanes.steps[i];
    ++t.samples;
    if (!t.seen.insert(lanes.at[i]).second) {
      ++t.collisions;
      if constexpr (probe_enabled_v<P>)
        probes[lanes.walk[i]].on_collision(t.samples - t.prev_collision_at);
      if (tracing)
        trace_instant("walk", "sc.collision", "gap",
                      t.samples - t.prev_collision_at);
      t.prev_collision_at = t.samples;
    }
    if (t.collisions < ell) {
      kernel_detail::ctrw_begin(lanes, i, origin, timer, probes);
      return false;
    }
    if (tracing)
      trace_complete("walk", "sc.trial", lanes.trace_t0[i], "samples",
                     t.samples);
    out[lanes.walk[i]] = {t.samples, t.hops};
    return true;
  };
  lanes.run(cursor, start, process, read);
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
