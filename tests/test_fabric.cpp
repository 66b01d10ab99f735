// Unit tests: channels, token pools, token chains, adaptive windows, and
// transaction execution along paths.
#include <gtest/gtest.h>

#include <vector>

#include "fabric/adaptive_window.hpp"
#include "fabric/channel.hpp"
#include "fabric/path.hpp"
#include "fabric/runner.hpp"
#include "fabric/token_chain.hpp"
#include "fabric/token_pool.hpp"
#include "sim/simulator.hpp"
#include "topo/params.hpp"
#include "topo/platform.hpp"

namespace scn::fabric {
namespace {

using sim::from_ns;
using sim::Tick;

TEST(Channel, LatencyOnlyHasNoQueueing) {
  Channel ch("lat", 0.0, from_ns(10));
  auto a = ch.admit(0, 64.0);
  EXPECT_EQ(a.queue_delay, 0);
  EXPECT_EQ(a.deliver, from_ns(10));
  auto b = ch.admit(0, 6400.0);  // size irrelevant without capacity
  EXPECT_EQ(b.deliver, from_ns(10));
}

TEST(Channel, SerializesAtCapacity) {
  Channel ch("c", 32.0, 0);  // 32 bytes/ns
  auto a = ch.admit(0, 64.0);
  EXPECT_EQ(a.queue_delay, 0);
  EXPECT_EQ(a.depart, from_ns(2.0));
}

TEST(Channel, FifoQueueingEmerges) {
  Channel ch("c", 64.0, 0);  // 1 ns per 64B message
  auto a = ch.admit(0, 64.0);
  auto b = ch.admit(0, 64.0);
  auto c = ch.admit(0, 64.0);
  EXPECT_EQ(a.queue_delay, 0);
  EXPECT_EQ(b.queue_delay, from_ns(1.0));
  EXPECT_EQ(c.queue_delay, from_ns(2.0));
  // After the backlog drains, a later arrival sees no queue.
  auto d = ch.admit(from_ns(10.0), 64.0);
  EXPECT_EQ(d.queue_delay, 0);
}

TEST(Channel, BacklogReflectsPendingWork) {
  Channel ch("c", 64.0, 0);
  ch.admit(0, 640.0);  // 10 ns of work
  EXPECT_EQ(ch.backlog(0), from_ns(10.0));
  EXPECT_EQ(ch.backlog(from_ns(4.0)), from_ns(6.0));
  EXPECT_EQ(ch.backlog(from_ns(100.0)), 0);
}

TEST(Channel, StallBlocksSubsequentTraffic) {
  Channel ch("c", 64.0, 0);
  ch.stall(0, from_ns(50.0));
  auto a = ch.admit(0, 64.0);
  EXPECT_EQ(a.queue_delay, from_ns(50.0));
}

TEST(Channel, TelemetryCounts) {
  Channel ch("c", 64.0, 0);
  ch.admit(0, 64.0);
  ch.admit(0, 64.0);
  EXPECT_DOUBLE_EQ(ch.bytes_total(), 128.0);
  EXPECT_EQ(ch.messages_total(), 2u);
  EXPECT_EQ(ch.busy_ticks(), from_ns(2.0));
  EXPECT_EQ(ch.max_queue_delay(), from_ns(1.0));
  EXPECT_NEAR(ch.utilization(from_ns(4.0)), 0.5, 1e-9);
  ch.reset_telemetry();
  EXPECT_DOUBLE_EQ(ch.bytes_total(), 0.0);
  EXPECT_EQ(ch.max_queue_delay(), 0);
}

TEST(TokenPool, GrantsUpToCapacity) {
  sim::Simulator s;
  TokenPool pool("p", 2);
  int granted = 0;
  pool.acquire(s, [&] { ++granted; });
  pool.acquire(s, [&] { ++granted; });
  pool.acquire(s, [&] { ++granted; });
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(pool.outstanding(), 2u);
  EXPECT_EQ(pool.waiting(), 1u);
}

TEST(TokenPool, ReleaseWakesFifo) {
  sim::Simulator s;
  TokenPool pool("p", 1);
  std::vector<int> order;
  pool.acquire(s, [&] { order.push_back(0); });
  pool.acquire(s, [&] { order.push_back(1); });
  pool.acquire(s, [&] { order.push_back(2); });
  pool.release(s);
  s.run();
  pool.release(s);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TokenPool, WaitTimeRecorded) {
  sim::Simulator s;
  TokenPool pool("p", 1);
  pool.acquire(s, [] {});
  pool.acquire(s, [] {});
  s.schedule(from_ns(25.0), [&] { pool.release(s); });
  s.run();
  EXPECT_EQ(pool.max_wait(), from_ns(25.0));
  EXPECT_EQ(pool.acquires(), 2u);
}

TEST(TokenPool, ResizeGrowWakesWaiters) {
  sim::Simulator s;
  TokenPool pool("p", 1);
  int granted = 0;
  pool.acquire(s, [&] { ++granted; });
  pool.acquire(s, [&] { ++granted; });
  pool.resize(s, 2);
  s.run();
  EXPECT_EQ(granted, 2);
}

TEST(TokenPool, ResizeShrinkDrainsGradually) {
  sim::Simulator s;
  TokenPool pool("p", 4);
  for (int i = 0; i < 4; ++i) pool.acquire(s, [] {});
  EXPECT_EQ(pool.outstanding(), 4u);
  pool.resize(s, 2);
  int granted = 0;
  pool.acquire(s, [&] { ++granted; });
  pool.release(s);  // 3 outstanding, still over budget
  s.run();
  EXPECT_EQ(granted, 0);
  pool.release(s);  // 2 outstanding == budget; waiter must keep waiting
  s.run();
  EXPECT_EQ(granted, 0);
  pool.release(s);  // 1 outstanding -> grant
  s.run();
  EXPECT_EQ(granted, 1);
}

TEST(TokenChain, AcquiresInOrderAndReleases) {
  sim::Simulator s;
  TokenPool a("a", 1);
  TokenPool b("b", 1);
  int done = 0;
  acquire_chain(s, {&a, nullptr, &b}, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(a.outstanding(), 1u);
  EXPECT_EQ(b.outstanding(), 1u);
  release_chain(s, {&a, nullptr, &b});
  EXPECT_EQ(a.outstanding(), 0u);
  EXPECT_EQ(b.outstanding(), 0u);
}

TEST(TokenChain, BlocksOnInnerPool) {
  sim::Simulator s;
  TokenPool a("a", 2);
  TokenPool b("b", 1);
  int done = 0;
  acquire_chain(s, {&a, &b}, [&] { ++done; });
  acquire_chain(s, {&a, &b}, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 1);
  // The blocked chain holds its outer token while waiting on the inner one.
  EXPECT_EQ(a.outstanding(), 2u);
  b.release(s);
  s.run();
  EXPECT_EQ(done, 2);
}

TEST(AdaptiveWindow, GrowsWhenUncongested) {
  AdaptiveWindowPolicy p;
  p.max_window = 64;
  p.additive_step = 2;
  EXPECT_EQ(p.update(10, 100.0, 100.0), 12u);
}

TEST(AdaptiveWindow, ShrinksOnCongestion) {
  AdaptiveWindowPolicy p;
  p.decrease_factor = 0.5;
  p.min_window = 2;
  EXPECT_EQ(p.update(10, 200.0, 100.0), 5u);
  EXPECT_EQ(p.update(4, 200.0, 100.0), 2u);  // clamped at min
}

TEST(AdaptiveWindow, NoSamplesNoChange) {
  AdaptiveWindowPolicy p;
  EXPECT_EQ(p.update(10, 0.0, 100.0), 10u);
}

TEST(AdaptiveWindow, ClampsToMax) {
  AdaptiveWindowPolicy p;
  p.max_window = 11;
  EXPECT_EQ(p.update(11, 100.0, 100.0), 11u);
}

class PathFixture : public ::testing::Test {
 protected:
  PathFixture()
      : req_("req", 16.0, 0), resp_("resp", 32.0, 0), svc_r_("svc_r", 21.0, 0),
        svc_w_("svc_w", 19.0, 0) {
    path_.name = "test";
    path_.outbound = {{nullptr, from_ns(40.0)}, {&req_, 0}};
    path_.endpoint = {&svc_r_, &svc_w_, from_ns(50.0), 0.0, 0, true};
    path_.inbound = {{&resp_, 0}, {nullptr, from_ns(10.0)}};
  }

  sim::Simulator sim_;
  Channel req_;
  Channel resp_;
  Channel svc_r_;
  Channel svc_w_;
  Path path_;
};

TEST_F(PathFixture, ZeroLoadRttSumsFixedParts) {
  EXPECT_EQ(path_.zero_load_rtt(), from_ns(100.0));
}

TEST_F(PathFixture, PayloadCapacityIsMinAlongDirection) {
  EXPECT_DOUBLE_EQ(path_.payload_capacity(true), 21.0);   // min(resp 32, svc 21)
  EXPECT_DOUBLE_EQ(path_.payload_capacity(false), 16.0);  // min(req 16, svc 19)
}

TEST_F(PathFixture, ReadRttMatchesAnalytic) {
  Tick done = -1;
  run_transaction(sim_, path_, Op::kRead, 64.0, nullptr,
                  [&](const Completion& c) { done = c.completed - c.issued; });
  sim_.run();
  // 100 ns fixed + 16B/16 + 64B/32 + 64B/21 serialization.
  const double expect_ns = 100.0 + 1.0 + 2.0 + 64.0 / 21.0;
  EXPECT_NEAR(sim::to_ns(done), expect_ns, 0.01);
}

TEST_F(PathFixture, WriteAckReturnsAfterCommit) {
  Tick done = -1;
  run_transaction(sim_, path_, Op::kWrite, 64.0, nullptr,
                  [&](const Completion& c) { done = c.completed - c.issued; });
  sim_.run();
  // 100 ns fixed + 80B/16 (payload+header out) + 64/19 svc + 16B/32 ack.
  const double expect_ns = 100.0 + 5.0 + 64.0 / 19.0 + 0.5;
  EXPECT_NEAR(sim::to_ns(done), expect_ns, 0.01);
}

TEST_F(PathFixture, PostedWriteReleasesBeforeCompletion) {
  Tick released = -1;
  Tick completed = -1;
  run_transaction(
      sim_, path_, Op::kWrite, 64.0, nullptr,
      [&](const Completion& c) { completed = c.completed; },
      [&] { released = sim_.now(); });
  sim_.run();
  ASSERT_GE(released, 0);
  ASSERT_GE(completed, 0);
  EXPECT_LT(released, completed);
}

TEST_F(PathFixture, NonPostedWriteReleasesAtCompletion) {
  path_.endpoint.posted_writes = false;
  Tick released = -1;
  Tick completed = -1;
  run_transaction(
      sim_, path_, Op::kWrite, 64.0, nullptr,
      [&](const Completion& c) { completed = c.completed; },
      [&] { released = sim_.now(); });
  sim_.run();
  EXPECT_EQ(released, completed);
}

TEST_F(PathFixture, ReadReleasesAtCompletion) {
  Tick released = -1;
  Tick completed = -1;
  run_transaction(
      sim_, path_, Op::kRead, 64.0, nullptr,
      [&](const Completion& c) { completed = c.completed; },
      [&] { released = sim_.now(); });
  sim_.run();
  EXPECT_EQ(released, completed);
}

TEST_F(PathFixture, QueueTotalAccumulates) {
  // Two back-to-back reads: the second queues behind the first everywhere.
  Tick q_first = -1;
  Tick q_second = -1;
  run_transaction(sim_, path_, Op::kRead, 64.0, nullptr,
                  [&](const Completion& c) { q_first = c.queue_total; });
  run_transaction(sim_, path_, Op::kRead, 64.0, nullptr,
                  [&](const Completion& c) { q_second = c.queue_total; });
  sim_.run();
  EXPECT_EQ(q_first, 0);
  EXPECT_GT(q_second, 0);
}

TEST_F(PathFixture, HiccupDelaysOnlyThatRequest) {
  path_.endpoint.hiccup_probability = 1.0;  // every request hits it
  path_.endpoint.hiccup_latency = from_ns(300.0);
  sim::Rng rng(1);
  Tick done = -1;
  run_transaction(sim_, path_, Op::kRead, 64.0, &rng,
                  [&](const Completion& c) { done = c.completed - c.issued; });
  sim_.run();
  EXPECT_GT(sim::to_ns(done), 400.0);
}

TEST(Runner, ThroughputBoundedByBottleneck) {
  // 100 concurrent reads through a 32 B/ns bottleneck: total time >= bytes/bw.
  sim::Simulator s;
  Channel bottleneck("b", 32.0, 0);
  Path path;
  path.outbound = {{nullptr, from_ns(5.0)}};
  path.endpoint = {&bottleneck, &bottleneck, 0, 0.0, 0, true};
  path.inbound = {{nullptr, from_ns(5.0)}};
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    run_transaction(s, path, Op::kRead, 64.0, nullptr, [&](const Completion&) { ++done; });
  }
  const Tick end = s.run();
  EXPECT_EQ(done, 100);
  EXPECT_GE(sim::to_ns(end), 100 * 64.0 / 32.0);
}

TEST(Telemetry, FreshPlatformHoldsNoHistogramBuckets) {
  // Every channel keeps a queue-delay histogram and every pool a wait
  // histogram; a platform that has carried no traffic pays for none of their
  // buckets, however many links it has.
  sim::Simulator s;
  topo::Platform platform(s, topo::epyc9634());
  const auto channels = platform.all_channels();
  const auto pools = platform.all_pools();
  ASSERT_FALSE(channels.empty());
  ASSERT_FALSE(pools.empty());
  std::size_t buckets = 0;
  for (const auto* ch : channels) buckets += ch->queue_delay_histogram().bucket_count();
  for (const auto* pool : pools) buckets += pool->wait_histogram().bucket_count();
  EXPECT_EQ(buckets, 0u);
}

}  // namespace
}  // namespace scn::fabric
