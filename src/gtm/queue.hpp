// Per-worker pending queue: one binary min-heap keyed on (key, seq).
//
// The caller computes the key from the service discipline: 0 for FIFO, the
// class priority for priority scheduling, the absolute deadline for EDF.
// `seq` is the request's globally unique admission id, which makes the
// comparator a total order — equal-key requests pop in arrival order on
// every platform and at every --jobs, never in pointer or hash order. Ids
// are handed out in increasing order and a request is queued as soon as it
// gets one, so under FIFO (every key 0) a worker pops in push order. That
// total order is what lets EDF and priority scheduling coexist with the
// cluster's bit-identical lockstep contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace scn::gtm {

template <typename T>
class WorkerQueue {
 public:
  /// `key` orders the queue (lower pops first); `seq` breaks key ties
  /// deterministically (lower = earlier arrival).
  void push(T* item, std::uint64_t key, std::uint64_t seq) {
    heap_.push_back(Entry{key, seq, item});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Remove and return the lowest (key, seq) request; nullptr if empty.
  [[nodiscard]] T* pop() {
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    T* item = heap_.back().item;
    heap_.pop_back();
    return item;
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint64_t seq;
    T* item;
  };
  // std::push_heap builds a max-heap; "later" on (key, seq) puts the
  // smallest pair at the root.
  struct Later {
    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
};

}  // namespace scn::gtm
