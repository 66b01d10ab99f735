// Lockstep barrier executor: persistent pinned workers for epoch-style
// simulations, and the one worker-thread engine in scn::exec.
//
// A mutex-guarded task queue pays a lock acquisition, a deque push and two
// condition-variable round-trips per task. That is fine when tasks are whole
// experiments, but a conservative-lookahead cluster fires one tiny task per
// shard per *epoch*, and with a small link latency the epoch count runs into
// the millions — synchronization, not simulation, dominates.
//
// Lockstep replaces the queue with a generation counter. Workers are pinned
// (shard s is exactly one thread for the object's lifetime, as the fabric
// layer's thread_local slab pools require), and one round of work is
// released by a single atomic increment: every worker observes the new
// generation, runs the installed work function once for its shard, and the
// last arrival publishes the finished generation back to the caller. Waiting
// on either side is hybrid spin-then-park — a bounded spin (skipped outright
// on single-core hosts) followed by a futex park via std::atomic::wait — and
// the generation counter doubles as the sense-reversing flag: a stale
// generation value can never be confused for the next round's release, so
// there is no A/B flag to flip and no missed-wakeup window.
//
// The slow path (post/drain) keeps per-shard task-queue semantics for
// construction and teardown work, where per-call cost is irrelevant but
// per-shard FIFO order still matters. exec::ParallelSweep runs a whole sweep
// as one round: every worker takes tickets from a shared counter until none
// are left, and ticket k runs the k-th point of the sweep's dispatch order
// (index order, or heaviest first when the caller passes a per-point cost).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace scn::exec {

class Lockstep {
 public:
  /// Spawns `shards` pinned workers. With zero shards everything — work
  /// rounds and posted tasks — runs inline on the caller (the --jobs 1
  /// configuration), which keeps single-threaded runs free of any atomics.
  explicit Lockstep(int shards);
  ~Lockstep();

  Lockstep(const Lockstep&) = delete;
  Lockstep& operator=(const Lockstep&) = delete;

  /// Worker count; 0 means inline execution.
  [[nodiscard]] int shards() const noexcept { return static_cast<int>(threads_.size()); }

  /// Install the per-round work function. `work(shard)` runs concurrently on
  /// every worker each round and must touch only shard-partitioned state.
  /// Only callable between rounds (same thread as run()).
  void set_work(std::function<void(int)> work);

  /// Release one round: every worker executes work(shard) exactly once;
  /// returns after the last one finishes. Everything the caller wrote before
  /// run() is visible to the workers, and everything the workers wrote is
  /// visible to the caller afterwards. With zero shards, runs work(0) inline.
  void run();

  /// Queue `task` for shard `shard % shards()`; tasks on one shard execute
  /// in post order at the next drain(). Tasks must not throw. With zero
  /// shards the task runs inline immediately.
  void post(int shard, std::function<void()> task);

  /// Execute every queued task on its shard and wait for completion.
  void drain();

 private:
  enum class Cmd : std::uint8_t { kWork, kTasks, kStop };

  void worker_loop(int shard);
  void fire_and_wait(Cmd cmd);

  std::function<void(int)> work_;
  std::vector<std::vector<std::function<void()>>> tasks_;  ///< per-shard FIFO

  /// Round counter, bumped by the caller to release workers. Workers wait
  /// for gen_ != last-seen — the counter itself is the reversing sense.
  std::atomic<std::uint64_t> gen_{0};
  /// Last fully finished round, published by the final arriving worker.
  std::atomic<std::uint64_t> done_gen_{0};
  /// Workers still running the current round.
  std::atomic<int> remaining_{0};
  /// Workers currently parked in gen_.wait(); the caller only pays the
  /// notify syscall when this is nonzero (Dekker-paired seq_cst accesses).
  std::atomic<int> parked_{0};
  /// Caller parked in done_gen_.wait(); same pairing, worker side.
  std::atomic<bool> caller_waiting_{false};

  Cmd cmd_ = Cmd::kWork;  ///< written before gen_ bump, read after (synchronized)
  int spin_limit_ = 0;    ///< 0 on single-core hosts: park immediately
  std::vector<std::thread> threads_;
};

}  // namespace scn::exec
