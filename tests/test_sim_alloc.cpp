// Unit tests for the allocation-free event machinery: InlineFunction (the
// SBO callable that replaced std::function on the hot path) and SlabPool
// (the free-list arena behind event slots and transaction state).
//
// This binary replaces global operator new with a counting shim so tests can
// assert, not just hope, that the steady-state event loop performs zero heap
// allocations.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "sim/slab_pool.hpp"

namespace {
std::size_t g_new_calls = 0;
}  // namespace

// The replacements are kept out of line: once g++ 12 inlines one of them
// into a new- or delete-expression, -Wmismatched-new-delete sees std::malloc
// paired with operator delete (at -O2) or operator new with std::free (at
// -O3), although they free exactly what they allocate.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace scn::sim {
namespace {

// ---------------------------------------------------------------------------
// InlineFunction

TEST(InlineFunction, InvokesInlineCapture) {
  int hits = 0;
  InlineFunction<void()> fn = [&hits] { ++hits; };
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, ReturnsValuesAndTakesArguments) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, CarriesMoveOnlyCapture) {
  // std::function rejects this closure outright (it requires copyability).
  auto owned = std::make_unique<int>(41);
  InlineFunction<int()> fn = [p = std::move(owned)] { return *p + 1; };
  EXPECT_EQ(fn(), 42);
  InlineFunction<int()> moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move) — post-move empty is the contract
  EXPECT_EQ(moved(), 42);
}

TEST(InlineFunction, SmallCapturesAreAllocationFree) {
  struct { void* a; void* b; std::uint64_t c; } ctx{};  // 24 bytes: the hot-path size class
  const std::size_t before = g_new_calls;
  InlineFunction<void()> fn = [ctx] { (void)ctx; };
  InlineFunction<void()> moved = std::move(fn);
  moved();
  moved.reset();
  EXPECT_EQ(g_new_calls, before);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeap) {
  struct Big {
    unsigned char bytes[InlineFunction<int()>::kInlineBytes + 8];
  };
  static_assert(!InlineFunction<int()>::stores_inline<Big>());
  Big big{};
  big.bytes[0] = 7;
  const std::size_t before = g_new_calls;
  InlineFunction<int()> fn = [big] { return static_cast<int>(big.bytes[0]); };
  EXPECT_EQ(g_new_calls, before + 1);  // exactly one heap cell
  EXPECT_EQ(fn(), 7);
  // Moves shuffle the owning pointer, never reallocate.
  InlineFunction<int()> moved = std::move(fn);
  EXPECT_EQ(g_new_calls, before + 1);
  EXPECT_EQ(moved(), 7);
}

TEST(InlineFunction, SizeClassesOfHotPathClosures) {
  using F = InlineFunction<void()>;
  struct Leg { void* w; bool outbound; std::size_t idx; };          // runner walk_leg
  struct Chase { void* self; };                                     // pointer-chase step
  EXPECT_TRUE(F::stores_inline<Leg>());
  EXPECT_TRUE(F::stores_inline<Chase>());
  struct Huge { unsigned char b[F::kInlineBytes + 1]; };
  EXPECT_FALSE(F::stores_inline<Huge>());
}

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& other) noexcept : count(std::exchange(other.count, nullptr)) {}
  DtorCounter(const DtorCounter& other) : count(other.count) {}
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
};

TEST(InlineFunction, DestroysCaptureExactlyOnce) {
  int destroyed = 0;
  {
    InlineFunction<void()> fn = [d = DtorCounter(&destroyed)] { (void)d; };
    EXPECT_EQ(destroyed, 0);
    // Relocation destroys the moved-from shell (count untouched: its pointer
    // was stolen), and the live capture dies exactly once with `moved`.
    InlineFunction<void()> moved = std::move(fn);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, ResetDestroysAndEmpties) {
  int destroyed = 0;
  InlineFunction<void()> fn = [d = DtorCounter(&destroyed)] { (void)d; };
  fn.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(fn);
  fn.reset();  // idempotent
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget) {
  int first = 0;
  int second = 0;
  InlineFunction<void()> fn = [d = DtorCounter(&first)] { (void)d; };
  fn = InlineFunction<void()>([d = DtorCounter(&second)] { (void)d; });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  fn.reset();
  EXPECT_EQ(second, 1);
}

TEST(InlineFunction, NullptrConstructsEmpty) {
  InlineFunction<void()> fn = nullptr;
  EXPECT_FALSE(fn);
}

// ---------------------------------------------------------------------------
// SlabPool

TEST(SlabPool, DestroyedSlotIsReusedFirst) {
  SlabPool<int> pool(8);
  int* a = pool.create(1);
  pool.destroy(a);
  int* b = pool.create(2);
  EXPECT_EQ(a, b);  // LIFO free list hands back the warm slot
  EXPECT_EQ(*b, 2);
  pool.destroy(b);
}

TEST(SlabPool, GrowsAcrossSlabsWithoutInvalidation) {
  SlabPool<std::uint64_t> pool(4);
  std::vector<std::uint64_t*> live;
  for (std::uint64_t i = 0; i < 300; ++i) live.push_back(pool.create(i));
  EXPECT_EQ(pool.live(), 300u);
  EXPECT_GE(pool.capacity(), 300u);
  EXPECT_GT(pool.slab_count(), 1u);
  // Growth never moves existing objects.
  for (std::uint64_t i = 0; i < 300; ++i) EXPECT_EQ(*live[i], i);
  for (auto* p : live) pool.destroy(p);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabPool, SteadyStateChurnIsAllocationFree) {
  SlabPool<std::uint64_t> pool(16);
  // Warm up: force the pool to its steady-state footprint.
  std::vector<std::uint64_t*> warm;
  for (std::uint64_t i = 0; i < 16; ++i) warm.push_back(pool.create(i));
  for (auto* p : warm) pool.destroy(p);
  const std::size_t before = g_new_calls;
  for (std::uint64_t round = 0; round < 1000; ++round) {
    std::uint64_t* a = pool.create(round);
    std::uint64_t* b = pool.create(round + 1);
    pool.destroy(a);
    pool.destroy(b);
  }
  EXPECT_EQ(g_new_calls, before);
}

TEST(SlabPool, RunsDestructorsExactlyOnceOnDestroy) {
  int destroyed = 0;
  SlabPool<DtorCounter> pool(4);
  DtorCounter* a = pool.create(&destroyed);
  DtorCounter* b = pool.create(&destroyed);
  pool.destroy(a);
  EXPECT_EQ(destroyed, 1);
  pool.destroy(b);
  EXPECT_EQ(destroyed, 2);
}

struct ThrowOnDemand {
  explicit ThrowOnDemand(bool do_throw) {
    if (do_throw) throw std::runtime_error("ctor failure");
  }
};

TEST(SlabPool, ConstructorThrowReturnsSlotToFreeList) {
  SlabPool<ThrowOnDemand> pool(4);
  EXPECT_THROW((void)pool.create(true), std::runtime_error);
  EXPECT_EQ(pool.live(), 0u);
  ThrowOnDemand* ok = pool.create(false);
  EXPECT_EQ(pool.live(), 1u);
  pool.destroy(ok);
}

// ---------------------------------------------------------------------------
// The tentpole claim, end to end: a steady-state event loop through the
// public Simulator API performs zero heap allocations per event.

TEST(EventLoopAllocation, SteadyStateIsAllocationFree) {
  Simulator s;
  struct Chain {
    Simulator* simulator;
    std::uint64_t remaining;
    void step() {
      if (remaining-- == 0) return;
      simulator->schedule(3, [this] { step(); });  // same closure shape as the fabric's legs
    }
  };
  std::vector<Chain> chains;
  for (int i = 0; i < 8; ++i) chains.push_back(Chain{&s, 2000});
  // Warm-up: sizes the slot pool and the queue's ready-run storage.
  for (auto& c : chains) c.step();
  s.run_until(from_ns(0.1));
  const std::size_t before = g_new_calls;
  s.run();
  EXPECT_EQ(g_new_calls, before);
  EXPECT_GT(s.executed_count(), 10000u);
}

}  // namespace
}  // namespace scn::sim
