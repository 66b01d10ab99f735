// Route descriptions: the sequence of channels and fixed-latency hops a
// transaction traverses from a source chiplet to a memory/device endpoint
// and back (paper §3.2, "extended data path").
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fabric/channel.hpp"
#include "sim/time.hpp"

namespace scn::fabric {

/// One hop of a route: optional bandwidth-constrained channel followed by a
/// fixed traversal latency (switch hop, I/O hub, link propagation, ...).
struct Hop {
  Channel* channel = nullptr;  ///< nullptr => latency-only hop
  sim::Tick latency = 0;
};

/// The served entity at the end of the route (UMC+DIMM, CXL device, or a
/// remote chiplet's LLC slice). Service rates are modelled as channels so
/// endpoint saturation produces queueing exactly like any other segment.
struct Endpoint {
  Channel* read_service = nullptr;   ///< drains read returns (e.g. UMC read bw)
  Channel* write_service = nullptr;  ///< absorbs write data (e.g. UMC write bw)
  sim::Tick access_latency = 0;      ///< array access time (DRAM/CXL/LLC)
  double hiccup_probability = 0.0;   ///< rare slow accesses (refresh, retry)
  sim::Tick hiccup_latency = 0;
  /// Posted writes (DRAM/NT stores through write-combining buffers) free the
  /// sender's tokens once the endpoint accepts the data; non-posted writes
  /// (CXL.mem NDR) hold them until the ack returns.
  bool posted_writes = true;
  /// Detailed service model (e.g. mem::DramEndpoint): given the arrival tick,
  /// direction, and payload, returns the completion tick. When set it
  /// replaces the service channel + access latency (and models its own
  /// refresh/hiccup behaviour).
  std::function<sim::Tick(sim::Tick now, bool is_write, double bytes)> custom_service{};
};

/// A full route. `outbound` runs source -> endpoint (carries the command,
/// and the data for writes); `inbound` runs endpoint -> source (carries the
/// data for reads, and the ack for writes).
struct Path {
  std::string name;
  std::vector<Hop> outbound;
  std::vector<Hop> inbound;
  Endpoint endpoint;

  /// Sum of fixed latencies + propagation along both legs plus the endpoint
  /// access time — the zero-load round-trip latency (excluding serialization).
  [[nodiscard]] sim::Tick zero_load_rtt() const noexcept {
    sim::Tick total = endpoint.access_latency;
    for (const auto& h : outbound) {
      total += h.latency;
      if (h.channel != nullptr) total += h.channel->propagation();
    }
    for (const auto& h : inbound) {
      total += h.latency;
      if (h.channel != nullptr) total += h.channel->propagation();
    }
    return total;
  }

  /// Minimum capacity over the channels a given direction's payload crosses;
  /// 0 if the leg has no bandwidth-constrained channel. This is the path's
  /// bandwidth-domain bound (paper §3.3) and feeds the analytic model.
  [[nodiscard]] double payload_capacity(bool read) const noexcept {
    double cap = 0.0;
    auto fold = [&cap](const std::vector<Hop>& leg) {
      for (const auto& h : leg) {
        if (h.channel != nullptr && h.channel->capacity_bytes_per_ns() > 0.0) {
          if (cap == 0.0 || h.channel->capacity_bytes_per_ns() < cap) {
            cap = h.channel->capacity_bytes_per_ns();
          }
        }
      }
    };
    if (read) {
      fold(inbound);
      const Channel* svc = endpoint.read_service;
      if (svc != nullptr && svc->capacity_bytes_per_ns() > 0.0 &&
          (cap == 0.0 || svc->capacity_bytes_per_ns() < cap)) {
        cap = svc->capacity_bytes_per_ns();
      }
    } else {
      fold(outbound);
      const Channel* svc = endpoint.write_service;
      if (svc != nullptr && svc->capacity_bytes_per_ns() > 0.0 &&
          (cap == 0.0 || svc->capacity_bytes_per_ns() < cap)) {
        cap = svc->capacity_bytes_per_ns();
      }
    }
    return cap;
  }
};

}  // namespace scn::fabric
