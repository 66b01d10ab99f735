// Unit tests: discrete-event engine, time arithmetic, deterministic RNG.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace scn::sim {
namespace {

TEST(Time, NsRoundTrip) {
  EXPECT_EQ(from_ns(1.0), kTicksPerNs);
  EXPECT_DOUBLE_EQ(to_ns(from_ns(123.456)), 123.456);
  EXPECT_EQ(from_us(1.0), kTicksPerUs);
  EXPECT_EQ(from_ms(1.0), kTicksPerMs);
}

TEST(Time, FractionalNsRoundsToNearest) {
  EXPECT_EQ(from_ns(0.0004), 0);
  EXPECT_EQ(from_ns(0.0006), 1);
  EXPECT_EQ(from_ns(1.24), 1240);
}

TEST(Time, SerializationNeverExceedsRate) {
  // Rounded-up serialization: cumulative time of n chunks >= exact time.
  const double bw = 25.4;  // bytes/ns
  const double bytes = 64.0;
  const Tick one = serialization_ticks(bytes, bw);
  EXPECT_GE(static_cast<double>(one), bytes / bw * kTicksPerNs - 1e-9);
  EXPECT_LE(static_cast<double>(one), bytes / bw * kTicksPerNs + 1.0);
}

TEST(Time, SerializationZeroCapacityIsFree) {
  EXPECT_EQ(serialization_ticks(64.0, 0.0), 0);
  EXPECT_EQ(serialization_ticks(64.0, -1.0), 0);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&order] { order.push_back(3); });
  q.push(10, [&order] { order.push_back(1); });
  q.push(20, [&order] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeTracksEarliest) {
  EventQueue q;
  q.push(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
  q.push(20, [] {});
  EXPECT_EQ(q.next_time(), 20);
  q.pop();
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, StressRandomOrderIsSorted) {
  EventQueue q;
  Rng rng(7);
  std::vector<Tick> times;
  for (int i = 0; i < 5000; ++i) {
    const Tick t = static_cast<Tick>(rng.below(1000000));
    q.push(t, [] {});
  }
  Tick last = -1;
  while (!q.empty()) {
    auto e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(Simulator, AdvancesTimeToEvent) {
  Simulator s;
  Tick seen = -1;
  s.schedule(100, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<Tick> times;
  s.schedule(10, [&] {
    times.push_back(s.now());
    s.schedule(5, [&] { times.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule(10, [&] { ++fired; });
  s.schedule(100, [&] { ++fired; });
  s.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 50);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesOne) {
  Simulator s;
  int fired = 0;
  s.schedule(1, [&] { ++fired; });
  s.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.executed_count(), 2u);
}

TEST(Simulator, NegativeDelayAssertsInDebug) {
  Simulator s;
  EXPECT_DEBUG_DEATH(s.schedule(-5, [] {}), "past");
}

TEST(Simulator, ScheduleAtPastAssertsInDebug) {
  Simulator s;
  s.schedule(10, [] {});
  s.run();
  EXPECT_DEBUG_DEATH(s.schedule_at(3, [] {}), "past");
}

#ifdef NDEBUG
// Release builds must clamp instead of corrupting the heap's time order.
TEST(Simulator, NegativeDelayClampsToNowInRelease) {
  Simulator s;
  s.schedule(10, [&s] {
    s.schedule(-7, [] {});     // fires "now", i.e. at t=10
    s.schedule_at(3, [] {});   // likewise clamped to t=10
  });
  const Tick end = s.run();
  EXPECT_EQ(end, 10);
  EXPECT_EQ(s.executed_count(), 3u);
}
#endif

TEST(Simulator, ResetClearsEverything) {
  Simulator s;
  s.schedule(10, [] {});
  s.run();
  s.schedule(10, [] {});
  s.reset();
  EXPECT_EQ(s.now(), 0);
  EXPECT_FALSE(s.has_pending());
}

// Regression: reset() used to leave the queue's sequence counter running, so
// a reset simulator numbered events differently from a fresh one and same-tick
// FIFO replays diverged from first runs.
TEST(Simulator, ResetRewindsSequenceNumbers) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule(7, [] {});
  s.run();
  EXPECT_EQ(s.event_queue().next_seq(), 5u);
  s.reset();
  EXPECT_EQ(s.event_queue().next_seq(), 0u);

  // Same-tick pops replay in the same order as a fresh simulator's.
  std::vector<int> replay;
  for (int i = 0; i < 4; ++i) {
    s.schedule(3, [&replay, i] { replay.push_back(i); });
  }
  s.run();
  EXPECT_EQ(replay, (std::vector<int>{0, 1, 2, 3}));
}

// Scheduler edge cases: the wheel structures (overflow list, bucket
// boundaries, rebases) exercised through the public Simulator API.

// Far-future events land beyond the wheel's top level (span 2^(shift+24)
// ticks) and must park in the overflow list, then pop in exact order after a
// rebase once the near-term events drain.
TEST(SchedulerEdgeCases, FarFutureBeyondTopLevelPopsInOrder) {
  Simulator s;
  std::vector<Tick> fired;
  const Tick far = Tick{1} << 50;
  // Near event first: it anchors the wheel's cursor, so the far events are
  // genuinely beyond the top level rather than swallowed by the first-push
  // anchor.
  s.schedule_at(5, [&] { fired.push_back(s.now()); });
  s.schedule_at(far + 3, [&] { fired.push_back(s.now()); });
  s.schedule_at(17, [&] { fired.push_back(s.now()); });
  s.schedule_at(far + 1, [&] { fired.push_back(s.now()); });
  s.run();
  EXPECT_EQ(fired, (std::vector<Tick>{5, 17, far + 1, far + 3}));
  // The far events must actually have exercised the overflow path.
  const QueueStats st = s.queue_stats();
  EXPECT_GE(st.rebases, 1u);
  EXPECT_GE(st.overflow_peak, 2u);
}

// run_until with the deadline exactly on an event time / bucket boundary:
// events AT the deadline fire, events one tick later do not. The gap hint
// pins the wheel's bucket width so the deadline lands on a real boundary.
TEST(SchedulerEdgeCases, RunUntilOnBucketBoundary) {
  Simulator s;
  s.hint_event_gap(256);  // shift = 4: buckets 16 ticks wide
  int fired = 0;
  s.schedule_at(32, [&] { ++fired; });  // exactly a bucket boundary
  s.schedule_at(33, [&] { ++fired; });
  s.run_until(32);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 32);
  s.run_until(33);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 33);
}

// clear()/reset() with events parked in overflow must destroy them cleanly
// (their captures release, nothing leaks — the ASan job keeps this honest)
// and leave the queue reusable.
TEST(SchedulerEdgeCases, ClearWithOverflowParked) {
  Simulator s;
  auto marker = std::make_shared<int>(42);  // leak canary via use_count
  s.schedule_at(9, [] {});
  s.schedule_at(Tick{1} << 55, [marker] {});
  EXPECT_EQ(marker.use_count(), 2);
  s.reset();
  EXPECT_EQ(marker.use_count(), 1);  // parked capture was destroyed
  EXPECT_FALSE(s.has_pending());
  Tick seen = -1;
  s.schedule(4, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 4);
}

// Zero-delay self-rescheduling storm: time must not move, every generation
// must run FIFO within the tick, and the storm must terminate when the
// reschedule chain stops (no livelock, no starvation of the sibling event).
TEST(SchedulerEdgeCases, ZeroDelayStormMakesProgress) {
  Simulator s;
  int generations = 0;
  bool sibling_ran = false;
  // Each generation reschedules itself at delay 0: the event fires at the
  // same tick but with a fresh (later) sequence number.
  struct Storm {
    Simulator* sim;
    int* generations;
    void operator()() const {
      if (++*generations < 10000) sim->schedule(0, Storm{sim, generations});
    }
  };
  s.schedule(5, Storm{&s, &generations});
  s.schedule(5, [&] { sibling_ran = true; });
  const Tick end = s.run();
  EXPECT_EQ(generations, 10000);
  EXPECT_TRUE(sibling_ran);
  EXPECT_EQ(end, 5);  // the whole storm ran inside one tick
}

// The introspection counters exposed through queue_stats() must be coherent:
// they describe mechanism cost, but the pending bookkeeping they report has a
// layout-independent meaning.
TEST(SchedulerEdgeCases, QueueStatsFieldsAreCoherent) {
  Simulator s;
  for (Tick t = 1; t <= 64; ++t) s.schedule_at(t * 3, [] {});
  const QueueStats st = s.queue_stats();
  EXPECT_EQ(st.peak_pending, 64u);
  EXPECT_GE(st.granularity_log2, 0);
  EXPECT_LE(st.granularity_log2, 36);
  // Every pending event is accounted for somewhere: ready run, a wheel
  // level, or overflow.
  std::uint64_t parked = 0;
  for (const std::uint64_t occ : st.level_occupancy) parked += occ;
  EXPECT_LE(parked, 64u);
  s.run();
  EXPECT_EQ(s.executed_count(), 64u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiased) {
  Rng r(11);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / n, 0.1, 0.01);
  }
}

TEST(Rng, BelowZeroAndOne) {
  Rng r(13);
  EXPECT_EQ(r.below(0), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(15);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 0.5);
}

TEST(Rng, BernoulliProbability) {
  Rng r(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ReseedReproduces) {
  Rng r(21);
  const auto a = r();
  r.reseed(21);
  EXPECT_EQ(r(), a);
}

// Property sweep: time conversions invert across magnitudes.
class TimeRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(TimeRoundTrip, NsSurvivesConversion) {
  const double ns = GetParam();
  EXPECT_NEAR(to_ns(from_ns(ns)), ns, 0.0005);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, TimeRoundTrip,
                         ::testing::Values(0.001, 0.5, 1.24, 34.3, 124.0, 243.0, 1749.8, 1e6,
                                           1e9));

}  // namespace
}  // namespace scn::sim
