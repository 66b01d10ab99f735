// Scheduler property test: the hierarchical timing wheel (sim::EventQueue)
// must reproduce, for ANY operation stream, exactly what an ordered-map
// oracle does — the same (time, seq) pop sequence, the same dispatch order
// and clock through run_until_time/run_all, and the same executed counts.
// This is the proof obligation that lets the wheel's internals be optimized
// without re-blessing a single golden file.
//
// Strategy: run the same seeded random script against the wheel and against
// OracleQueue and compare the full traces. The scripts deliberately hit
// every structural path of the wheel: same-tick FIFO bursts, near-future
// events (ready run), all four wheel levels, far-future overflow and
// rebases, pushes below the cursor after partial drains, zero-delay
// self-rescheduling from inside a dispatch, clear()/reset() mid-stream, and
// gap-hint retunes that change bucket widths mid-run.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace scn::sim {
namespace {

using Pop = std::pair<Tick, std::uint64_t>;

/// The scheduling contract, literally: pending events ordered by
/// (time, seq), with seq assigned here in push order. Deliberately naive —
/// it is the reference the wheel is checked against, not a scheduler.
class OracleQueue {
 public:
  struct Entry {
    Tick time;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] Tick next_time() const { return pending_.begin()->first.first; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  template <typename F>
  void push(Tick time, F&& fn) {
    pending_.emplace(Pop{time, next_seq_++}, std::forward<F>(fn));
  }

  Entry pop() {
    auto node = pending_.extract(pending_.begin());
    return Entry{node.key().first, node.key().second, std::move(node.mapped())};
  }

  void run_all(Tick* now, std::uint64_t* executed) {
    while (!empty()) run_one(now, executed);
  }

  void run_until_time(Tick deadline, Tick* now, std::uint64_t* executed) {
    while (!empty() && next_time() <= deadline) run_one(now, executed);
  }

  void clear() { pending_.clear(); }
  void reset() {
    clear();
    next_seq_ = 0;
  }
  void set_gap_hint(Tick /*gap*/) {}

 private:
  void run_one(Tick* now, std::uint64_t* executed) {
    Entry e = pop();
    ++*executed;
    *now = e.time;
    e.fn();
  }

  std::map<Pop, std::function<void()>> pending_;
  std::uint64_t next_seq_ = 0;
};

/// One deterministic mixed-operation script, driven by `seed`, recording
/// every push, pop and dispatch. Dispatched events record (clock, seq) from
/// inside the callable, so the clock published before invocation and the
/// callable's delivery are checked, not just the ordering.
template <typename Q>
struct Script {
  Q q;
  Tick now = 0;
  std::uint64_t executed = 0;
  std::uint64_t invoked = 0;
  std::vector<Pop> trace;  // pushes (-1, seq), pops and dispatches (time, seq)
  std::vector<Pop> stops;  // (now, executed) after every run_until_time/run_all

  /// Event body. A nonzero `hops` makes it a self-rescheduling chain with a
  /// pseudo-random stride derived from its time, so every queue computes
  /// identical successor times without sharing the script Rng.
  struct Event {
    Script* s;
    std::uint64_t seq;
    Tick at;
    int hops;
    void operator()() const {
      ++s->invoked;
      s->trace.emplace_back(s->now, seq);
      if (hops <= 0) return;
      std::uint64_t h = static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
      h ^= h >> 29;
      const Tick stride = static_cast<Tick>(h & 0x3FF) - 64;  // sometimes below the cursor
      s->push(at + (stride > 0 ? stride : 0), hops - 1);
    }
  };

  void push(Tick t, int hops) { q.push(t, Event{this, q.next_seq(), t, hops}); }

  void run(std::uint64_t seed, std::size_t ops) {
    Rng rng(seed);
    trace.reserve(ops);
    // Lowest time pushed below the clock since the last deadline drain. The
    // dispatch paths require the clock to be at or before every pending
    // event, so a drain first winds the clock back to it.
    constexpr Tick kNoLate = std::numeric_limits<Tick>::max();
    Tick late = kNoLate;

    // Delta classes chosen to land in: same tick, ready/level-0, levels 1-3,
    // and past the top wheel level (overflow) for the default bucket widths.
    const auto random_delta = [&]() -> Tick {
      switch (rng.below(8)) {
        case 0: return 0;  // same-tick FIFO stress
        case 1: return static_cast<Tick>(rng.below(16));
        case 2: return static_cast<Tick>(rng.below(1 << 10));
        case 3: return static_cast<Tick>(rng.below(1 << 16));
        case 4: return static_cast<Tick>(rng.below(1u << 22));
        case 5: return static_cast<Tick>(rng.below(std::uint64_t{1} << 32));
        case 6: return static_cast<Tick>(rng.below(std::uint64_t{1} << 44));
        default:  // beyond any wheel span: forces the overflow list
          return static_cast<Tick>((std::uint64_t{1} << 45) + rng.below(std::uint64_t{1} << 45));
      }
    };

    const auto pop_one = [&] {
      const auto e = q.pop();
      if (e.time > now) now = e.time;
      trace.emplace_back(e.time, e.seq);
    };

    for (std::size_t i = 0; i < ops; ++i) {
      const std::uint64_t op = rng.below(100);
      if (op < 46) {
        // Plain push. Occasionally below `now` (legal at queue level: the
        // pending set orders whatever it holds) to stress the ready run.
        Tick t = now + random_delta();
        if (op < 3 && now > 128) {
          t = now - static_cast<Tick>(rng.below(128));
          if (t < late) late = t;
        }
        push(t, 0);
        trace.emplace_back(-1, q.next_seq() - 1);  // record pushes too: seq streams must align
      } else if (op < 56) {
        // Same-tick burst: FIFO order among these is pure seq discipline.
        const Tick t = now + random_delta();
        const std::size_t burst = 2 + rng.below(6);
        for (std::size_t b = 0; b < burst; ++b) push(t, 0);
      } else if (op < 64) {
        if (!q.empty()) pop_one();
      } else if (op < 72) {
        // Drain burst.
        std::size_t n = rng.below(32);
        while (n-- > 0 && !q.empty()) pop_one();
      } else if (op < 80) {
        // Simulator::run_until: dispatch everything up to a deadline in
        // place (callables may push), then clamp the clock to the deadline.
        // One in eight deadlines sits exactly on the next pending event, as
        // in the co-simulation's run_until(next_event_time()).
        const Tick step = static_cast<Tick>(rng.below(1 << 20));
        const Tick deadline = step < (1 << 17) && !q.empty() ? q.next_time() : now + step;
        if (late < now) now = late;
        late = kNoLate;
        q.run_until_time(deadline, &now, &executed);
        stops.emplace_back(now, executed);
        if (now < deadline) now = deadline;
      } else if (op < 88) {
        // Seed a self-rescheduling chain (zero and small strides).
        push(now + random_delta(), static_cast<int>(rng.below(8)));
      } else if (op < 92) {
        q.set_gap_hint(static_cast<Tick>(1 + rng.below(std::uint64_t{1} << 20)));
      } else if (op < 94) {
        if (rng.bernoulli(0.5)) {
          q.clear();
        } else {
          q.reset();
          now = 0;
        }
        trace.emplace_back(-2, q.next_seq());
      } else {
        // Storm: many pushes at one tick followed by an immediate drain.
        const Tick t = now + static_cast<Tick>(rng.below(64));
        const std::size_t n = rng.below(64);
        for (std::size_t b = 0; b < n; ++b) push(t, 0);
        while (!q.empty() && q.next_time() <= t) pop_one();
      }
    }
    // Simulator::run: drain the rest, chains included.
    if (late < now) now = late;
    q.run_all(&now, &executed);
    stops.emplace_back(now, executed);
  }
};

/// Run the same script on the wheel and on the oracle; require identical
/// traces, clocks and counts.
void expect_equivalent(std::uint64_t seed, std::size_t ops) {
  Script<EventQueue> wheel;
  Script<OracleQueue> oracle;
  wheel.run(seed, ops);
  oracle.run(seed, ops);
  ASSERT_EQ(wheel.trace.size(), oracle.trace.size()) << "seed " << seed;
  for (std::size_t i = 0; i < wheel.trace.size(); ++i) {
    ASSERT_EQ(wheel.trace[i], oracle.trace[i])
        << "seed " << seed << " diverges at trace index " << i << " (time,seq): wheel=("
        << wheel.trace[i].first << "," << wheel.trace[i].second << ") oracle=("
        << oracle.trace[i].first << "," << oracle.trace[i].second << ")";
  }
  EXPECT_EQ(wheel.stops, oracle.stops) << "seed " << seed;
  EXPECT_EQ(wheel.invoked, oracle.invoked) << "seed " << seed;
  EXPECT_TRUE(wheel.q.empty());
}

// Three independent seeds x 400k mixed operations each = 1.2M operations,
// satisfying (and exceeding) the 1M-operation proof floor. Each op expands
// to several queue calls (bursts, chains, drains), so the actual push/pop
// volume is several times higher still.
TEST(SimEquiv, RandomizedMixedOperationsSeedA) { expect_equivalent(0xA11CE5EEDULL, 400000); }
TEST(SimEquiv, RandomizedMixedOperationsSeedB) { expect_equivalent(0xB0BACAFEULL, 400000); }
TEST(SimEquiv, RandomizedMixedOperationsSeedC) { expect_equivalent(0xC001D00DULL, 400000); }

constexpr Tick kSpan = Tick{1} << 24;  // wheel span at gap hint 1 (shift 0)

/// The top-window crossing script: returns the dispatch trace (clock, seq).
template <typename Q>
std::vector<Pop> top_crossing_trace(std::uint64_t* executed) {
  Q q;
  q.set_gap_hint(1);
  Tick now = 0;
  std::vector<Pop> trace;
  q.push(kSpan - 1, [&] {
    trace.emplace_back(now, 0);
    // Runs with the cursor exactly on the top-window boundary; this push
    // lands in the *new* window, later than the parked overflow event.
    q.push(kSpan + 1023, [&] { trace.emplace_back(now, 2); });
  });
  q.push(kSpan + 512, [&] { trace.emplace_back(now, 1); });  // beyond the top level: overflow
  q.run_all(&now, executed);
  return trace;
}

// Deterministic top-window crossing: the cursor drains past the end of the
// wheel's entire span (last bucket of the last level) while an overflow event
// is parked just beyond that boundary, and an event callback then schedules
// slightly *later* into the new window. The overflow event must still run
// first — this is the one structural spot where a calendar scheduler can
// invert order without losing an event, so it gets its own regression.
TEST(SimEquiv, OverflowPopsBeforeNewWindowEventsAfterTopCrossing) {
  const std::vector<Pop> want{{kSpan - 1, 0}, {kSpan + 512, 1}, {kSpan + 1023, 2}};
  std::uint64_t wheel_executed = 0;
  std::uint64_t oracle_executed = 0;
  EXPECT_EQ(top_crossing_trace<EventQueue>(&wheel_executed), want);
  EXPECT_EQ(top_crossing_trace<OracleQueue>(&oracle_executed), want);
  EXPECT_EQ(wheel_executed, 3u);
  EXPECT_EQ(oracle_executed, 3u);
}

/// Pop trace of the anchor-thrash script for one seed.
template <typename Q>
std::vector<Pop> anchor_thrash_trace(std::uint64_t seed) {
  Q q;
  Rng rng(seed);
  Tick now = 0;
  std::vector<Pop> trace;
  for (int i = 0; i < 50000; ++i) {
    const Tick delta = rng.bernoulli(0.5)
                           ? static_cast<Tick>(rng.below(4))
                           : static_cast<Tick>(std::uint64_t{1} << (40 + rng.below(20)));
    q.push(now + delta, [] {});
    if (rng.bernoulli(0.7) && !q.empty()) {
      const auto e = q.pop();
      if (e.time > now) now = e.time;
      trace.emplace_back(e.time, e.seq);
    }
  }
  while (!q.empty()) {
    const auto e = q.pop();
    trace.emplace_back(e.time, e.seq);
  }
  return trace;
}

// Focused adversarial script: keep the pending set tiny so anchor()/retune()
// fire constantly, while deltas oscillate between zero and overflow-sized.
TEST(SimEquiv, AnchorThrashWithOverflowDeltas) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ASSERT_EQ(anchor_thrash_trace<EventQueue>(seed), anchor_thrash_trace<OracleQueue>(seed))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace scn::sim
