// Runtime telemetry export — the /proc/chiplet-net analogue of the paper's
// direction #1: per-link byte/transaction counters, utilization, and
// queueing statistics for every interconnect segment and traffic-control
// pool on the platform.
#pragma once

#include <string>
#include <vector>

#include "topo/platform.hpp"

namespace scn::cnet {

struct LinkStats {
  std::string name;
  double capacity_gbps = 0.0;
  double delivered_gbps = 0.0;   ///< bytes observed / elapsed time
  double bytes_total = 0.0;      ///< cumulative payload bytes (for windowed deltas)
  double utilization = 0.0;      ///< occupied fraction of [0, now], <= 1
  double stall_ns = 0.0;         ///< downtime injected via Channel::stall
  std::uint64_t messages = 0;
  double avg_queue_ns = 0.0;
  double p999_queue_ns = 0.0;
  double max_queue_ns = 0.0;
};

struct PoolStats {
  std::string name;
  std::uint32_t capacity = 0;
  std::uint32_t outstanding = 0;
  std::uint64_t acquires = 0;
  double avg_wait_ns = 0.0;
  double max_wait_ns = 0.0;
};

/// Snapshot every channel on the platform at the current simulation time.
[[nodiscard]] std::vector<LinkStats> link_stats(topo::Platform& platform);

/// Snapshot every traffic-control pool.
[[nodiscard]] std::vector<PoolStats> pool_stats(topo::Platform& platform);

/// Human-readable table in the style of a /proc file.
[[nodiscard]] std::string proc_chiplet_net(topo::Platform& platform);

/// Machine-readable JSON (one object with "links" and "pools" arrays).
[[nodiscard]] std::string telemetry_json(topo::Platform& platform);

/// Identify the busiest (highest-utilization) link — the runtime "bandwidth
/// throttling path segment" the paper says one should find (Implication #2).
[[nodiscard]] LinkStats bottleneck_link(topo::Platform& platform);

}  // namespace scn::cnet
