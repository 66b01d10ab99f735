// The two characterized processors, expressed as spec text. These strings
// are the single source of the platform numbers: topo::epyc7302() /
// epyc9634() parse them through the same schema as any user .scn file, and
// tests/test_spec.cpp proves dump() -> parse() round-trips bit-identically.
//
// Every number is either taken directly from the paper (Table 1 specs,
// Table 2 latencies) or calibrated so the emergent behaviour of the fabric
// model reproduces Tables 2-3 and Figures 3-6; the calibration rationale is
// kept inline as comments. tests/test_calibration.cpp asserts the resulting
// model stays within tolerance of the paper.
#include <algorithm>
#include <cctype>
#include <map>

#include "spec/spec.hpp"

namespace scn::spec {
namespace {

/// AMD EPYC 7302 (Zen 2): 16 cores / 8 CCX / 4 CCD, 12 nm I/O die.
const std::string kEpyc7302 = R"scn(# AMD EPYC 7302 (Zen 2) -- Table 1 testbed, no CXL module.
[platform]
name = EPYC 7302
microarchitecture = Zen 2
process_compute = 7nm
process_io = 12nm
pcie = Gen4/128
base_ghz = 3
turbo_ghz = 3.3

[structure]
ccd_count = 4
ccx_per_ccd = 2
cores_per_ccx = 2
umc_count = 8
l1_kb = 32
l2_kb = 512
# 128 MB / 8 CCX
l3_mb_per_ccx = 16

[latency]
# Table 2 cache latencies.
l1_lat = 1.24
l2_lat = 5.66
l3_lat = 34.3
# Fixed path latencies. Budgeted so that zero-load DRAM RTT (near) =
# core_out + gmi_prop + base_shops*shop + cs + dram + return + ~2.5 ns of
# pointer-chase serialization = 124 ns (Table 2).
core_out_lat = 42
return_lat = 7
gmi_prop = 9
shop_lat = 8
base_shops = 2
cs_lat = 5
iohub_lat = 15
rootcplx_lat = 8
plink_prop = 12
dram_access = 32.5
# no CXL module on this box
cxl_access = 0
llc_peer_access = 60
# Measured position deltas: 124/131/141/145 ns.
position_extra = 0 7 17 21

[window]
# Core read 14.9 GB/s at the ~136 ns UMC-interleaved RTT -> 32 lines;
# write 3.6 GB/s at the ~132 ns write-accept RTT -> 7 lines.
core_read_window = 32
core_write_window = 7
# window-limited, no separate issue cap
core_write_issue_bw = 0
cxl_core_read_window = 0
cxl_core_write_window = 0
# Tight pools: bound queueing to the Table 2 maxima and keep Fig. 3-a/c
# latencies flat ("the 7302 provisions enough bandwidth").
ccx_pool = 56
ccd_pool = 90

[bandwidth]
# Capacities (Table 3): CCX read 25.1, CCD/GMI read 32.5, CPU/NoC read
# 106.7, write 55.1; UMC 21.1/19.0. Up-direction caps leave headroom
# because 7302 write throughput is source-window-limited, not link-limited.
ccx_up_bw = 16
ccx_down_bw = 25.4
gmi_up_bw = 17
gmi_down_bw = 32.9
noc_up_bw = 69
noc_down_bw = 107.5
umc_read_bw = 21.1
umc_write_bw = 19
peer_out_bw = 55
peer_in_bw = 55
iodev_ccd_down_bw = 0
iodev_ccd_up_bw = 0
plink_up_bw = 0
plink_down_bw = 0
cxl_read_bw = 0
cxl_write_bw = 0

[noise]
hiccup_prob = 0.0015
dram_hiccup = 330
cxl_hiccup = 0
noise_interval = 30000
noise_burst_every = 10
noise_burst_factor = 3

[model]
detailed_dram = false
# Fig. 5: the 7302 IF module oscillates ("drastic variation"); a large
# multiplicative decrease with a short period reproduces the sawtooth.
if_adjust_period = 10000
plink_adjust_period = 50000
if_decrease_factor = 0.55
if_congestion_ratio = 1.08
)scn";

/// AMD EPYC 9634 (Zen 4): 84 cores / 12 CCX / 12 CCD, 6 nm I/O die,
/// four Micron CZ120 CXL modules behind the P-Links.
const std::string kEpyc9634 = R"scn(# AMD EPYC 9634 (Zen 4) -- Table 1 testbed with CXL memory.
[platform]
name = EPYC 9634
microarchitecture = Zen 4
process_compute = 5nm
process_io = 6nm
pcie = Gen5/128
base_ghz = 2.25
turbo_ghz = 3.7

[structure]
ccd_count = 12
ccx_per_ccd = 1
cores_per_ccx = 7
umc_count = 12
l1_kb = 64
l2_kb = 1024
# 384 MB / 12 CCX
l3_mb_per_ccx = 32

[latency]
l1_lat = 1.19
l2_lat = 7.51
l3_lat = 40.8
# Zero-load DRAM RTT (near) = 141 ns; CXL RTT = 243 ns (Table 2).
core_out_lat = 48
return_lat = 7
gmi_prop = 9
shop_lat = 4
base_shops = 2
cs_lat = 5
iohub_lat = 15
rootcplx_lat = 8
plink_prop = 12
dram_access = 55
cxl_access = 122
llc_peer_access = 60
# Measured deltas: 141/145/150/149 ns (diagonal routes no farther than
# horizontal on this floorplan).
position_extra = 0 4 9 8

[window]
# Core read 14.6 GB/s @ 141 ns -> 32 lines; write 3.3 GB/s -> 7 (the write
# ack path is shorter, ~136 ns). CXL credits: 5.4 GB/s @ 243 ns -> 21
# read; 2.8 GB/s -> 11 write.
core_read_window = 34
core_write_window = 36
# WC-buffer drain rate (core write 3.3 GB/s)
core_write_issue_bw = 3.4
cxl_core_read_window = 21
cxl_core_write_window = 11
# Loose pool: link queueing dominates (Fig. 3-b's ~2x latency rise); no
# CCD-level pool (one CCX per CCD, Table 2 row is N/A).
ccx_pool = 130
ccd_pool = 0

[bandwidth]
# Table 3: CCX read 35.2, GMI read 33.2, CPU 366.2/270.6; UMC 34.9/28.3;
# CXL: per-CCD read return ~24.3, device 88.1/87.7. Fig. 6 thresholds:
# CCX up 38 (write interference at bg read 32.8), GMI up 29.1.
ccx_up_bw = 38
ccx_down_bw = 35.4
gmi_up_bw = 29.1
gmi_down_bw = 33.4
noc_up_bw = 338
noc_down_bw = 366.5
umc_read_bw = 34.9
umc_write_bw = 28.3
peer_out_bw = 55.7
peer_in_bw = 60
iodev_ccd_down_bw = 24.5
iodev_ccd_up_bw = 19.5
plink_up_bw = 112
plink_down_bw = 92
cxl_read_bw = 88.1
cxl_write_bw = 87.7

[noise]
hiccup_prob = 0.0015
dram_hiccup = 230
cxl_hiccup = 420
noise_interval = 30000
noise_burst_every = 10
noise_burst_factor = 3

[model]
detailed_dram = false
# Fig. 5: harvest in ~100 ms on IF and ~500 ms on the P-Link (scaled
# 1000x to 100 us / 500 us; see DESIGN.md).
if_adjust_period = 10000
plink_adjust_period = 60000
if_decrease_factor = 0.9
if_congestion_ratio = 1.15
)scn";

struct Builtin {
  const char* name;
  const std::string* text;
};

const Builtin kBuiltins[] = {
    {"epyc7302", &kEpyc7302},
    {"epyc9634", &kEpyc9634},
};

/// Lowercase and strip separators so "EPYC 9634", "epyc-9634" and
/// "epyc9634" all name the same platform; a bare model number works too.
std::string normalize(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == ' ' || c == '-' || c == '_') continue;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

const Builtin* find_builtin(const std::string& name) {
  const std::string n = normalize(name);
  for (const auto& b : kBuiltins) {
    if (n == b.name) return &b;
    // Bare model number alias: "7302" for "epyc7302".
    if (std::string(b.name).size() > 4 && n == std::string(b.name).substr(4)) return &b;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> builtin_names() {
  std::vector<std::string> out;
  for (const auto& b : kBuiltins) out.emplace_back(b.name);
  return out;
}

bool is_builtin(const std::string& name) { return find_builtin(name) != nullptr; }

const std::string& builtin_text(const std::string& name) {
  const Builtin* b = find_builtin(name);
  if (b == nullptr) {
    std::string msg = "unknown builtin platform '" + name + "' (have:";
    for (const auto& known : kBuiltins) msg += std::string(" ") + known.name;
    msg += ")";
    throw Error(msg);
  }
  return *b->text;
}

topo::PlatformParams lookup(const std::string& name) { return parse(builtin_text(name), name); }

}  // namespace scn::spec
