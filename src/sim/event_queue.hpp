// Pending-event set for the discrete-event engine: a hierarchical timing
// wheel with O(1) amortized push/pop.
//
// Events are keyed on (time, sequence). The queue assigns the sequence
// number at push, so same-tick events pop FIFO in scheduling order, which
// is essential for bit-exact reproducibility of experiments. Because
// (time, seq) is a total order, the pop sequence is independent of the
// internal layout, which is what lets the internals be optimized freely
// without perturbing results. Sweep-style evaluation lives or dies on
// per-event overhead, so the layout is a calendar structure rather than a
// comparison heap:
//
//   * four levels of 64 power-of-two buckets each. Level 0 buckets are
//     2^shift ticks wide; each level above covers 64x the span of the one
//     below, so the wheel spans 2^(shift+24) ticks ahead of its cursor.
//     Insertion is a shift + mask + intrusive list append; one occupancy
//     bitmap word per level makes empty-bucket skipping a single ctz.
//   * a far-future overflow list for events beyond the top level; when the
//     wheel drains the cursor re-anchors at the overflow minimum and the
//     list is redistributed (counted in stats().rebases).
//   * a "ready" run holding only the current bucket's events, sorted once by
//     (time, seq) when the bucket is spliced in and then consumed by cursor —
//     the pop fast path is an index increment, zero compares. Pushes that
//     land below the cursor's horizon insert into the sorted run from
//     whichever end is cheaper (the consumed prefix doubles as headroom).
//     The ready run is what makes bucketing *deterministic*: the wheel never
//     orders events — it only partitions them by time range — and every event
//     is finally delivered through the run's exact (time, seq) sort.
//     Same-tick events therefore pop FIFO by sequence number no matter which
//     bucket, cascade, or rebase route they took. tests/test_sim_equiv.cpp
//     checks the pop sequence against an ordered-map oracle under randomized
//     interleavings of every operation.
//
// Invariants (the whole correctness argument):
//   (a) every pending event with time <  horizon_ is in the ready run;
//   (b) every wheel event has time >= horizon_ and sits at the first level k
//       whose window contains it: index_{k+1}(t) == index_{k+1}(horizon_),
//       where index_k(t) = t >> (shift + 6k). Membership-by-window (rather
//       than by delta) means no slot ever wraps: all set bits of a level lie
//       at cursor-or-later slots of the current window, so the cursor can
//       jump straight to the next set bit;
//   (c) the cursor only enters an upper-level bucket exactly at its start
//       boundary, where refill() cascades it before any pop — so a parked
//       event is never passed over;
//   (d) the wheel proper only ever holds events of the top-level window
//       pinned at the last anchor/rebase (epoch_). A full-span drain can
//       carry horizon_ onto the next window's boundary; in that state every
//       in-range push goes to overflow rather than the wheel, because the
//       overflow list may already hold earlier events of that next window
//       and overflow is only re-ordered (rebased) when the wheel is empty.
//
// The level-0 bucket width self-tunes from an EMA of observed push deltas
// (or a caller hint via set_gap_hint), re-applied only when the wheel proper
// is empty so no parked event ever needs remapping. Tuning moves work
// between categories (ready-run compares vs bucket skips) but cannot change
// the pop order.
//
// Node layout: one SlabPool slot per event holding {time, seq, link, fn}
// contiguously — the capture is constructed in place at push, invoked in
// place at dispatch, destroyed in place after; it is never relocated. The
// steady state allocates nothing (tests/test_sim_alloc.cpp proves it).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/slab_pool.hpp"
#include "sim/time.hpp"

namespace scn::sim {

using EventFn = InlineFunction<void()>;

/// A popped event: the callable has been moved out of the queue and is owned
/// by the caller.
struct QueueEntry {
  Tick time;
  std::uint64_t seq;
  EventFn fn;
};

/// Scheduler introspection, exposed through EventQueue::stats() and
/// `bench_microperf --json`. Counters describe mechanism cost (how much
/// bucket bookkeeping the workload induced), never ordering — pop order is
/// identical whatever these say.
struct QueueStats {
  std::uint64_t peak_pending = 0;    ///< high-water mark of size()
  std::uint64_t ready_peak = 0;      ///< high-water mark of the near-future sort set
  std::uint64_t cascaded_nodes = 0;  ///< events redistributed from an upper wheel level
  std::uint64_t rebases = 0;         ///< overflow re-anchoring passes
  std::uint64_t overflow_peak = 0;   ///< high-water mark of the far-future overflow list
  std::uint64_t level_occupancy[4] = {0, 0, 0, 0};  ///< events currently parked per level
  int granularity_log2 = 0;          ///< current level-0 bucket width, log2 ticks
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() { clear(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Time of the earliest pending event. Precondition: !empty(). Lazily
  /// advances the cursor to the next occupied bucket, hence not const.
  [[nodiscard]] Tick next_time() {
    if (ready_pos_ == ready_.size()) refill();
    return ready_[ready_pos_]->time;
  }

  /// Schedule a callable; it receives the next sequence number. Templated so
  /// the capture is constructed directly inside its pooled node — there is
  /// no intermediate EventFn to relocate.
  template <typename F>
  void push(Tick time, F&& fn) {
    Node* node = pool_.create(time, next_seq_++, std::forward<F>(fn));
    ++size_;
    if (size_ > peak_pending_) peak_pending_ = size_;
    if (size_ == 1) {
      // The queue was empty, so this event is trivially the minimum: move the
      // cursor just past it and hand it straight to the (empty) ready run.
      // No bucket round trip — this is the whole fast path for ping-pong
      // workloads that drain to zero between events. A forward move that
      // stays inside the current level-1 window keeps the pinned epoch and
      // the cascade boundary valid (boundary <= epoch end whenever the two
      // are synced together), so the full re-anchor is amortized across a
      // whole window of such pushes.
      const Tick h = time + 1;
      if (h >= horizon_ && h < cascade_boundary_) {
        horizon_ = h;
      } else {
        anchor(h);
      }
      ready_.push_back(node);
      return;
    }
    if (time < horizon_) {
      ready_insert(node);
    } else {
      // Track inter-event spacing for the self-tuning bucket width. The
      // shift keeps the EMA allocation-free and branch-free; only ever read
      // at safe retune points, so staleness is harmless.
      avg_gap_ += (time - horizon_ - avg_gap_) >> 3;
      place(node);
    }
  }

  /// Remove and return the earliest event. Precondition: !empty().
  QueueEntry pop() {
    Node* node = take_front();
    QueueEntry out{node->time, node->seq, std::move(node->fn)};
    pool_.destroy(node);
    return out;
  }

  /// Fused dispatch: pop the earliest event, publish its time through `now`
  /// BEFORE invoking it (events read the clock), and invoke it in place.
  /// Precondition: !empty(). The Simulator::step() path.
  void run_next(Tick* now) { dispatch(take_front(), now); }

  /// Drain every pending event — including ones pushed mid-drain — bumping
  /// `*now` and `*executed` per dispatch — the Simulator::run() path. An
  /// event that clear()s the queue ends the loop cleanly (its own node was
  /// already detached).
  void run_all(Tick* now, std::uint64_t* executed) {
    while (size_ > 0) {
      Node* node = take_front();
      ++*executed;
      dispatch(node, now);
    }
  }

  /// Drain events with time <= deadline (later arrivals included), bumping
  /// `*now` and `*executed` per dispatch — the Simulator::run_until() path.
  /// Leaves `*now` at the last executed event's time; the caller owns the
  /// final clamp to the deadline.
  void run_until_time(Tick deadline, Tick* now, std::uint64_t* executed) {
    while (size_ > 0) {
      if (ready_pos_ == ready_.size()) refill();
      Node* node = ready_[ready_pos_];
      if (node->time > deadline) return;
      advance_cursor();
      --size_;
      ++*executed;
      dispatch(node, now);
    }
  }

  /// Drop all pending events wherever they are parked — ready run, any
  /// wheel level, or the overflow list — destroying their callables (and
  /// releasing any captured per-transaction state back to its pools). The
  /// sequence counter keeps running: clear() empties the queue, it does not
  /// rewind history.
  void clear() noexcept {
    for (std::size_t i = ready_pos_; i < ready_.size(); ++i) pool_.destroy(ready_[i]);
    ready_.clear();
    ready_pos_ = 0;
    for (auto& level : levels_) {
      for (List& bucket : level) destroy_list(bucket);
    }
    destroy_list(overflow_);
    for (std::uint64_t& b : bits_) b = 0;
    wheel_count_ = 0;
    cascade_boundary_ = 0;
    overflow_count_ = 0;
    overflow_min_ = 0;
    size_ = 0;
    horizon_ = 0;
    sync_epoch();
  }

  /// clear() plus a sequence-counter rewind: a reset queue numbers events
  /// exactly like a fresh one, so replays after Simulator::reset() are
  /// bit-identical to first runs.
  void reset() noexcept {
    clear();
    next_seq_ = 0;
  }

  /// Pre-size the node arena and the ready run for `n` concurrently
  /// pending events.
  void reserve(std::size_t n) {
    pool_.reserve(n);
    ready_.reserve(n < kSlots ? n : kSlots);
  }

  /// Expected inter-event gap in ticks; seeds the bucket-width tuner and is
  /// applied immediately when no event is parked in the wheel proper.
  /// Purely a performance hint — pop order is unaffected.
  void set_gap_hint(Tick gap) {
    if (gap <= 0) return;
    avg_gap_ = gap;
    if (wheel_count_ == 0 && overflow_count_ == 0) {
      retune();
      sync_epoch();
      sync_boundary();
    }
  }

  /// Sequence number the next push will receive (== pushes since the last
  /// reset). Exposed for the reset-replay regression tests.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Mechanism-cost introspection; see QueueStats.
  [[nodiscard]] QueueStats stats() const noexcept {
    QueueStats out;
    out.peak_pending = peak_pending_;
    out.ready_peak = ready_peak_;
    out.cascaded_nodes = cascaded_;
    out.rebases = rebases_;
    out.overflow_peak = overflow_peak_;
    // Occupancy is counted on demand (stats are cold) so the splice/cascade
    // hot paths carry no per-level bookkeeping.
    for (int k = 0; k < kLevels; ++k) {
      std::uint64_t count = 0;
      std::uint64_t bits = bits_[static_cast<std::size_t>(k)];
      while (bits != 0) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (const Node* n = levels_[static_cast<std::size_t>(k)][slot].head; n != nullptr;
             n = n->next) {
          ++count;
        }
      }
      out.level_occupancy[k] = count;
    }
    out.granularity_log2 = shift_;
    return out;
  }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kLevelBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kLevelBits;  // 64 buckets/level
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  // shift_ + 6*kLevels must stay < 63 so Tick index math cannot overflow.
  static constexpr int kMaxShift = 36;
  // Bucket width ≈ 2^kWidthBias mean gaps — negative: a fraction of the
  // mean gap (see retune()).
  static constexpr int kWidthBias = -4;

  /// Pooled event node: ordering key, intrusive bucket link, callable — one
  /// create per event, contents never relocated.
  struct Node {
    Tick time;
    std::uint64_t seq;
    Node* next = nullptr;
    EventFn fn;

    template <typename F>
    Node(Tick t, std::uint64_t s, F&& f) : time(t), seq(s), fn(std::forward<F>(f)) {}
  };

  /// Intrusive singly-linked bucket, appended at the tail. Order within a
  /// bucket is irrelevant — the ready run re-establishes the total order.
  struct List {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  /// Ready-run ordering. The run stores bare node pointers (8 bytes each,
  /// one store per spliced event); compares chase the pointer, but they only
  /// run on a multi-node splice sort or a below-horizon insert — cursor pops
  /// never compare at all.
  static bool before(const Node* a, const Node* b) noexcept {
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
  }

  static void append(List& list, Node* node) noexcept {
    node->next = nullptr;
    if (list.tail != nullptr) {
      list.tail->next = node;
    } else {
      list.head = node;
    }
    list.tail = node;
  }

  void destroy_list(List& list) noexcept {
    Node* n = list.head;
    while (n != nullptr) {
      Node* next = n->next;
      pool_.destroy(n);
      n = next;
    }
    list.head = nullptr;
    list.tail = nullptr;
  }

  // --- ready run (exact order over the current bucket) ----------------------
  //
  // ready_[ready_pos_ .. ready_.size()) is the pending run, ascending by
  // (time, seq). Pops advance ready_pos_ — zero compares. The consumed
  // prefix [0, ready_pos_) is kept as headroom so a below-horizon insert can
  // shift whichever side of the run is shorter.

  void advance_cursor() noexcept {
    if (++ready_pos_ == ready_.size()) {
      ready_.clear();  // capacity retained; trivially destructible refs
      ready_pos_ = 0;
    }
  }

  /// Insert an event below the horizon into the sorted run.
  void ready_insert(Node* node) {
    const auto first = ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_);
    auto it = std::upper_bound(first, ready_.end(), node, before);
    if (ready_pos_ > 0 && it - first <= ready_.end() - it) {
      // Front half: slide the shorter prefix into the consumed headroom.
      std::move(first, it, first - 1);
      --ready_pos_;
      *(it - 1) = node;
    } else {
      if (ready_.size() == ready_.capacity() && ready_pos_ > 0) {
        // Reclaim the consumed prefix rather than reallocating: with it
        // erased the vector's size tracks the live run again, so the
        // capacity reached during warm-up keeps the steady state
        // allocation-free (tests/test_sim_alloc.cpp holds the line).
        const auto run_offset = it - first;
        ready_.erase(ready_.begin(), first);
        ready_pos_ = 0;
        it = ready_.begin() + run_offset;
      }
      ready_.insert(it, node);
    }
    if (ready_.size() - ready_pos_ > ready_peak_) ready_peak_ = ready_.size() - ready_pos_;
  }

  /// Detach the earliest node. Precondition: size_ > 0. The wheel fast path
  /// pops a single-occupant level-0 bucket straight out — no round trip
  /// through the ready run — which at self-tuned widths (a fraction of the
  /// mean gap) is the steady state for nearly every pop.
  Node* take_front() {
    assert(size_ > 0);
    --size_;
    if (ready_pos_ != ready_.size()) {
      Node* node = ready_[ready_pos_];
      advance_cursor();
      return node;
    }
    if (wheel_count_ != 0 && horizon_ < cascade_boundary_) {
      const auto h = static_cast<std::uint64_t>(horizon_);
      const auto s0 = static_cast<std::size_t>((h >> shift_) & kSlotMask);
      if (const std::uint64_t b0 = bits_[0] & (~std::uint64_t{0} << s0); b0 != 0) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(b0));
        const std::uint64_t bucket_index = ((h >> shift_) & ~kSlotMask) | slot;
        horizon_ = static_cast<Tick>((bucket_index + 1) << shift_);
        List& bucket = levels_[0][slot];
        Node* node = bucket.head;
        if (node->next == nullptr) {
          bucket.head = nullptr;
          bucket.tail = nullptr;
          bits_[0] &= ~(std::uint64_t{1} << slot);
          --wheel_count_;
          return node;
        }
        splice(slot);  // multi-occupant: the run's sort establishes the order
        Node* front = ready_[ready_pos_];
        advance_cursor();
        return front;
      }
    }
    refill_slow();
    Node* node = ready_[ready_pos_];
    advance_cursor();
    return node;
  }

  /// The one in-place dispatch body behind run_next/run_all/run_until_time:
  /// publish the detached node's time, invoke its callable where it sits,
  /// reclaim the node. The node is detached before the call, so the event
  /// may freely push (or clear) new events; RAII reclaims the node even if
  /// the event throws.
  [[gnu::always_inline]] void dispatch(Node* node, Tick* now) {
    assert(node->time >= *now && "event delivered out of order");
    *now = node->time;
    struct NodeReclaim {
      SlabPool<Node>* pool;
      Node* node;
      ~NodeReclaim() { pool->destroy(node); }
    } reclaim{&pool_, node};
    (node->fn)();
  }

  // --- wheel placement ------------------------------------------------------

  /// Park `node` (time >= horizon_) at the first level whose current window
  /// contains it, or in the overflow list beyond the top level.
  ///
  /// Membership in the wheel proper is gated on epoch_ — the top-level window
  /// pinned at the last anchor/rebase — NOT on horizon_'s current top bits.
  /// The two differ in exactly one state: a full-span drain carries horizon_
  /// onto the next top-window boundary while earlier events of that next
  /// window may still sit in overflow. Testing against horizon_ there would
  /// park new pushes in the wheel *ahead* of those trapped overflow events
  /// (the wheel only rebases overflow when it is empty, so they would pop
  /// late). Gating on epoch_ routes every new-window push to overflow
  /// instead, and the next refill re-anchors the whole set in order.
  void place(Node* node) {
    // Same top-level window as the pinned epoch? Every caller guarantees
    // time >= horizon_ >= the epoch window's start, so one compare against
    // the cached window end decides it.
    if (node->time < epoch_end_) {
      const auto t = static_cast<std::uint64_t>(node->time);
      const auto x = t ^ static_cast<std::uint64_t>(horizon_);
      for (int k = 0; k < kLevels; ++k) {
        if ((x >> (shift_ + kLevelBits * (k + 1))) == 0) {
          const auto slot = static_cast<std::size_t>((t >> (shift_ + kLevelBits * k)) & kSlotMask);
          append(levels_[static_cast<std::size_t>(k)][slot], node);
          bits_[static_cast<std::size_t>(k)] |= std::uint64_t{1} << slot;
          ++wheel_count_;
          return;
        }
      }
      // Unreachable while horizon_ shares the epoch window: level kLevels-1's
      // membership test is exactly the epoch comparison. Fall through to
      // overflow as the safe harbor regardless.
    }
    if (overflow_count_ == 0 || node->time < overflow_min_) overflow_min_ = node->time;
    append(overflow_, node);
    ++overflow_count_;
    if (overflow_count_ > overflow_peak_) overflow_peak_ = overflow_count_;
  }

  /// Redistribute one upper-level bucket to the levels below. Every moved
  /// node lands at a strictly lower level (its level-k window now matches
  /// the cursor's), so cascades terminate.
  void cascade(int k, std::size_t slot) {
    List& bucket = levels_[static_cast<std::size_t>(k)][slot];
    Node* n = bucket.head;
    bucket.head = nullptr;
    bucket.tail = nullptr;
    bits_[static_cast<std::size_t>(k)] &= ~(std::uint64_t{1} << slot);
    while (n != nullptr) {
      Node* next = n->next;
      --wheel_count_;
      ++cascaded_;
      assert(n->time >= horizon_);
      place(n);
      n = next;
    }
  }

  /// Move the level-0 bucket at `slot` into the ready run: bulk-append, one
  /// sort. Precondition: the run is empty (refill() is only called then), so
  /// the sort covers the whole vector. Bucket lists are unordered; this sort
  /// is the single point where the total (time, seq) order is established.
  void splice(std::size_t slot) {
    List& bucket = levels_[0][slot];
    Node* n = bucket.head;
    bucket.head = nullptr;
    bucket.tail = nullptr;
    bits_[0] &= ~(std::uint64_t{1} << slot);
    if (n->next == nullptr) {
      // Single-occupant bucket — the steady state at self-tuned widths of a
      // fraction of the mean gap: no loop, no sort, no peak update.
      ready_.push_back(n);
      --wheel_count_;
      return;
    }
    // Insertion sort while appending: bucket populations are tiny (a handful
    // of events at self-tuned widths), where std::sort's dispatch overhead
    // exceeds the sort itself. Stability is irrelevant — (time, seq) keys are
    // unique — so this is exactly the run's total order either way.
    std::size_t moved = 0;
    while (n != nullptr) {
      Node* next = n->next;
      ready_.push_back(n);
      Node** base = ready_.data();
      std::size_t i = ready_.size() - 1;
      while (i > 0 && before(n, base[i - 1])) {
        base[i] = base[i - 1];
        --i;
      }
      base[i] = n;
      ++moved;
      n = next;
    }
    wheel_count_ -= moved;
    if (moved > ready_peak_) ready_peak_ = moved;
  }

  /// Advance the cursor to the next occupied bucket and load it into the
  /// ready run. Precondition: the run is empty && size_ > 0. The steady
  /// state — wheel nonempty, strictly inside the current level-1 window,
  /// next occupied bucket found by the level-0 scan — stays in this small
  /// inlinable body; everything else (cascade crossings, cursor jumps,
  /// overflow rebases) lives in the cold out-of-line half.
  void refill() {
    if (wheel_count_ != 0 && horizon_ < cascade_boundary_) {
      const auto h = static_cast<std::uint64_t>(horizon_);
      const auto s0 = static_cast<std::size_t>((h >> shift_) & kSlotMask);
      if (const std::uint64_t b0 = bits_[0] & (~std::uint64_t{0} << s0); b0 != 0) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(b0));
        splice(slot);
        const std::uint64_t bucket_index = ((h >> shift_) & ~kSlotMask) | slot;
        horizon_ = static_cast<Tick>((bucket_index + 1) << shift_);
        return;
      }
    }
    refill_slow();
  }

  [[gnu::noinline]] void refill_slow() {
    for (;;) {
      if (wheel_count_ == 0) {
        rebase_overflow();
        continue;
      }
      const auto h = static_cast<std::uint64_t>(horizon_);
      // Invariant (c): the cursor only enters upper-level windows at their
      // start boundary, so cursor buckets can only need cascading right
      // after a level-1 boundary crossing (every higher boundary is also a
      // level-1 boundary). One compare skips the whole top-down scan for
      // every refill strictly inside the current level-1 window; upper-level
      // cursor bits cannot get set mid-window because placement at level k
      // requires differing from the cursor's level-(k-1) window.
      if (horizon_ >= cascade_boundary_) {
        if ((bits_[1] | bits_[2] | bits_[3]) != 0) {
          for (int k = kLevels - 1; k >= 1; --k) {
            const auto slot =
                static_cast<std::size_t>((h >> (shift_ + kLevelBits * k)) & kSlotMask);
            if ((bits_[static_cast<std::size_t>(k)] >> slot) & 1u) cascade(k, slot);
          }
        }
        const int s1 = shift_ + kLevelBits;
        cascade_boundary_ = static_cast<Tick>(((h >> s1) + 1) << s1);
      }
      const auto s0 = static_cast<std::size_t>((h >> shift_) & kSlotMask);
      if (const std::uint64_t b0 = bits_[0] & (~std::uint64_t{0} << s0); b0 != 0) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(b0));
        splice(slot);
        const std::uint64_t bucket_index = ((h >> shift_) & ~kSlotMask) | slot;
        horizon_ = static_cast<Tick>((bucket_index + 1) << shift_);
        return;  // ready_ is nonempty: the bucket's bit was set
      }
      // The level-0 window is spent: jump the cursor to the earliest parked
      // bucket above (nearest level first — higher levels cover later spans).
      bool jumped = false;
      for (int k = 1; k < kLevels; ++k) {
        const int level_shift = shift_ + kLevelBits * k;
        const auto sk = static_cast<std::size_t>((h >> level_shift) & kSlotMask);
        // The cursor bucket's bit at sk was cleared above; every other set
        // bit of the current window sits strictly later.
        if (const std::uint64_t bk = bits_[static_cast<std::size_t>(k)] &
                                     (~std::uint64_t{0} << sk);
            bk != 0) {
          const auto slot = static_cast<std::size_t>(std::countr_zero(bk));
          const std::uint64_t index = ((h >> level_shift) & ~kSlotMask) | slot;
          horizon_ = static_cast<Tick>(index << level_shift);
          cascade(k, slot);
          jumped = true;
          break;
        }
      }
      // Invariant (b): a nonempty wheel always has a reachable set bit.
      assert(jumped && "timing wheel lost track of a parked event");
      if (!jumped) return;  // unreachable; avoids a release-build spin
    }
  }

  /// All remaining events are beyond the wheel's span: re-anchor the cursor
  /// at the earliest one and redistribute the overflow list.
  void rebase_overflow() {
    assert(overflow_count_ > 0 && "refill on an empty pending set");
    retune();  // wheel is empty: the one safe point to change bucket width
    horizon_ = overflow_min_ > 0 ? overflow_min_ : 0;
    sync_epoch();
    sync_boundary();
    Node* n = overflow_.head;
    overflow_.head = nullptr;
    overflow_.tail = nullptr;
    overflow_count_ = 0;
    overflow_min_ = 0;
    ++rebases_;
    while (n != nullptr) {
      Node* next = n->next;
      place(n);  // fits now, or re-overflows against the new anchor
      n = next;
    }
  }

  /// First event after a fully drained queue: re-anchor and retune freely.
  void anchor(Tick time) {
    horizon_ = time > 0 ? time : 0;
    retune();
    sync_epoch();
    sync_boundary();
  }

  [[nodiscard]] int top_shift() const noexcept { return shift_ + kLevelBits * kLevels; }

  /// Pin the wheel's top-level window to horizon_'s. Must run after every
  /// retune (epoch_ depends on shift_) and every horizon re-anchor; splices
  /// and jumps deliberately do NOT resync — see place().
  void sync_epoch() noexcept {
    epoch_ = static_cast<std::uint64_t>(horizon_) >> top_shift();
    epoch_end_ = static_cast<Tick>((epoch_ + 1) << top_shift());
  }

  /// Recompute the cascade-skip boundary (the next level-1 boundary past the
  /// cursor) eagerly after an anchor/rebase/retune. Sound for the same reason
  /// refill_slow's recompute is: placement at level k >= 1 always lands in a
  /// slot that differs from the cursor's (sharing the level-k window would
  /// have routed the node to level k-1 instead), so no bucket the cursor sits
  /// in mid-window can ever need cascading.
  void sync_boundary() noexcept {
    const int s1 = shift_ + kLevelBits;
    cascade_boundary_ =
        static_cast<Tick>(((static_cast<std::uint64_t>(horizon_) >> s1) + 1) << s1);
  }

  /// Pick the level-0 bucket width from the observed gap EMA. The negative
  /// bias narrows buckets to a fraction of the mean gap, keeping splices to
  /// a node or two so the push side stays on the O(1) wheel-placement path
  /// instead of the sorted run's insert path — with cursor pops costing zero
  /// compares either way, tiny buckets win (swept empirically on the
  /// microperf event-loop harness). Only called when the wheel proper is
  /// empty (nothing to remap).
  void retune() noexcept {
    const auto gap = static_cast<std::uint64_t>(avg_gap_ > 1 ? avg_gap_ : 1);
    int width = std::bit_width(gap) - 1 + kWidthBias;
    if (width < 0) width = 0;
    shift_ = width < kMaxShift ? width : kMaxShift;
  }

  SlabPool<Node> pool_{256};  // declared first: every container below references nodes
  std::vector<Node*> ready_;      // sorted pending run lives at [ready_pos_, size)
  std::size_t ready_pos_ = 0;     // consumed prefix doubles as insert headroom
  List levels_[kLevels][kSlots];
  std::uint64_t bits_[kLevels] = {0, 0, 0, 0};
  List overflow_;
  std::size_t overflow_count_ = 0;
  Tick overflow_min_ = 0;
  std::size_t wheel_count_ = 0;  // nodes parked in levels_ (excludes ready/overflow)
  std::size_t size_ = 0;         // total pending: ready + wheel + overflow
  std::uint64_t next_seq_ = 0;   // sequence number the next push receives
  Tick horizon_ = 0;             // invariant (a) boundary; also the cursor position
  Tick cascade_boundary_ = 0;    // next level-1 boundary; gates refill's cascade scan
  std::uint64_t epoch_ = 0;      // top-level window pinned at anchor/rebase (see place())
  Tick epoch_end_ = 0;           // cached end of the epoch window: place()'s one compare
  int shift_ = 6;                // level-0 bucket width, log2 ticks
  Tick avg_gap_ = 64;            // EMA of push deltas, feeds retune()

  // introspection (see QueueStats)
  std::size_t peak_pending_ = 0;
  std::size_t ready_peak_ = 0;
  std::uint64_t cascaded_ = 0;
  std::uint64_t rebases_ = 0;
  std::size_t overflow_peak_ = 0;
};

}  // namespace scn::sim
