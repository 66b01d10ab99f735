// The communication-flow abstraction the paper argues for (Implication #4):
// "introduce the communication flow abstraction, materialize it in a global
// software-based traffic manager, and expose it to the chiplet network."
//
// A FlowDescriptor names an intra-server flow the way a 5-tuple names a
// network flow: source compute chiplet, destination domain, operation kind,
// and (optionally) a declared demand. The registry hands out dense FlowIds
// used by telemetry, the profiler and the traffic manager.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/types.hpp"

namespace scn::cnet {

/// Destination domain classes of the server chiplet network (Fig. 2).
enum class Domain : std::uint8_t { kDram, kCxl, kPeerLlc, kPcieDevice };

[[nodiscard]] constexpr const char* to_string(Domain d) noexcept {
  switch (d) {
    case Domain::kDram: return "dram";
    case Domain::kCxl: return "cxl";
    case Domain::kPeerLlc: return "peer-llc";
    case Domain::kPcieDevice: return "pcie";
  }
  return "?";
}

struct FlowDescriptor {
  std::string name;
  int src_ccd = 0;
  int src_ccx = 0;
  Domain dst = Domain::kDram;
  int dst_index = -1;  ///< UMC index / peer CCD / device slot; -1 = interleaved
  fabric::Op op = fabric::Op::kRead;
  double demand_gbps = 0.0;  ///< declared demand; 0 = unbounded

  [[nodiscard]] std::string to_string() const {
    // Built by appending: "#" + to_string() trips a g++ 12 -Wrestrict false
    // positive at -O3.
    std::string s = name + " [ccd" + std::to_string(src_ccd) + "/ccx" +
                    std::to_string(src_ccx) + " -> " + cnet::to_string(dst) + "#" +
                    (dst_index >= 0 ? std::to_string(dst_index) : "*") + " " +
                    fabric::to_string(op);
    if (demand_gbps > 0.0) {
      s += " ";
      s += std::to_string(demand_gbps) + "GB/s";
    }
    return s + "]";
  }
};

class FlowRegistry {
 public:
  fabric::FlowId register_flow(FlowDescriptor descriptor) {
    flows_.push_back(std::move(descriptor));
    return static_cast<fabric::FlowId>(flows_.size() - 1);
  }

  [[nodiscard]] const FlowDescriptor& describe(fabric::FlowId id) const {
    return flows_.at(id);
  }
  [[nodiscard]] FlowDescriptor& describe(fabric::FlowId id) { return flows_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return flows_.size(); }

  [[nodiscard]] std::vector<fabric::FlowId> all_ids() const {
    std::vector<fabric::FlowId> ids(flows_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i) ids[i] = static_cast<fabric::FlowId>(i);
    return ids;
  }

 private:
  std::vector<FlowDescriptor> flows_;
};

}  // namespace scn::cnet
