#include "spec/spec.hpp"

#include <fstream>

namespace scn::spec {

using topo::PlatformParams;

const Schema<PlatformParams>& platform_schema() {
  using P = PlatformParams;
  static const Schema<P> schema({
      // [platform] — identity & Table 1 strings.
      {"platform", "name", "display name (also a lookup alias)", true, at<&P::name>},
      {"platform", "microarchitecture", "", false, at<&P::microarchitecture>},
      {"platform", "process_compute", "", false, at<&P::process_compute>},
      {"platform", "process_io", "", false, at<&P::process_io>},
      {"platform", "pcie", "PCIe gen/lanes, e.g. Gen5/128", false, at<&P::pcie>},
      {"platform", "base_ghz", "", false, at<&P::base_ghz>},
      {"platform", "turbo_ghz", "", false, at<&P::turbo_ghz>},
      // [structure] — Table 1 structural counts.
      {"structure", "ccd_count", "compute chiplets per CPU", true, at<&P::ccd_count>},
      {"structure", "ccx_per_ccd", "core complexes per CCD", true, at<&P::ccx_per_ccd>},
      {"structure", "cores_per_ccx", "", true, at<&P::cores_per_ccx>},
      {"structure", "umc_count", "unified memory controllers on the I/O die", true,
       at<&P::umc_count>},
      {"structure", "l1_kb", "per core", false, at<&P::l1_kb>},
      {"structure", "l2_kb", "per core", false, at<&P::l2_kb>},
      {"structure", "l3_mb_per_ccx", "", false, at<&P::l3_mb_per_ccx>},
      // [latency] — Table 2 constants and calibrated data-path budget, in ns.
      {"latency", "l1_lat", "cache hit, Table 2", false, at<&P::l1_lat>},
      {"latency", "l2_lat", "", false, at<&P::l2_lat>},
      {"latency", "l3_lat", "", false, at<&P::l3_lat>},
      {"latency", "core_out_lat", "miss walk + CCM, outbound", true, at<&P::core_out_lat>},
      {"latency", "return_lat", "fixed response-side tail into the core", false,
       at<&P::return_lat>},
      {"latency", "gmi_prop", "GMI link propagation", false, at<&P::gmi_prop>},
      {"latency", "shop_lat", "switching-hop latency", false, at<&P::shop_lat>},
      {"latency", "base_shops", "I/O-die hops even for a near DIMM", false, at<&P::base_shops>},
      {"latency", "cs_lat", "coherent station", false, at<&P::cs_lat>},
      {"latency", "iohub_lat", "", false, at<&P::iohub_lat>},
      {"latency", "rootcplx_lat", "PCIe root complex + I/O moderator", false, at<&P::rootcplx_lat>},
      {"latency", "plink_prop", "P-Link propagation", false, at<&P::plink_prop>},
      {"latency", "dram_access", "UMC + DRAM array access", true, at<&P::dram_access>},
      {"latency", "cxl_access", "CXL controller + media access", false, at<&P::cxl_access>},
      {"latency", "llc_peer_access", "remote LLC slice access", false, at<&P::llc_peer_access>},
      {"latency", "position_extra",
       "extra RTT per DIMM position: near vertical horizontal diagonal", false,
       at<&P::position_extra>},
      // [window] — source windows and traffic-control pools.
      {"window", "core_read_window", "read tokens per core", true, at<&P::core_read_window>},
      {"window", "core_write_window", "posted NT writes in flight per core", false,
       at<&P::core_write_window>},
      {"window", "core_write_issue_bw", "per-core NT-write issue cap, GB/s (0 = uncapped)", false,
       at<&P::core_write_issue_bw>},
      {"window", "cxl_core_read_window", "P-Link per-requester credits", false,
       at<&P::cxl_core_read_window>},
      {"window", "cxl_core_write_window", "", false, at<&P::cxl_core_write_window>},
      {"window", "ccx_pool", "CCX traffic-control pool (0 = level absent)", false,
       at<&P::ccx_pool>},
      {"window", "ccd_pool", "CCD traffic-control pool (0 = level absent)", false,
       at<&P::ccd_pool>},
      // [bandwidth] — channel capacities, bytes/ns == GB/s.
      {"bandwidth", "ccx_up_bw", "CCX IF port, toward I/O die", true, at<&P::ccx_up_bw>},
      {"bandwidth", "ccx_down_bw", "", true, at<&P::ccx_down_bw>},
      {"bandwidth", "gmi_up_bw", "per-CCD GMI", true, at<&P::gmi_up_bw>},
      {"bandwidth", "gmi_down_bw", "", true, at<&P::gmi_down_bw>},
      {"bandwidth", "noc_up_bw", "I/O-die trunk aggregate", true, at<&P::noc_up_bw>},
      {"bandwidth", "noc_down_bw", "", true, at<&P::noc_down_bw>},
      {"bandwidth", "umc_read_bw", "per-UMC service", true, at<&P::umc_read_bw>},
      {"bandwidth", "umc_write_bw", "", true, at<&P::umc_write_bw>},
      {"bandwidth", "peer_out_bw", "per-CCD LLC egress onto the cross mesh", false,
       at<&P::peer_out_bw>},
      {"bandwidth", "peer_in_bw", "", false, at<&P::peer_in_bw>},
      {"bandwidth", "iodev_ccd_down_bw", "per-CCD device-read return credit (CXL platforms)", false,
       at<&P::iodev_ccd_down_bw>},
      {"bandwidth", "iodev_ccd_up_bw", "", false, at<&P::iodev_ccd_up_bw>},
      {"bandwidth", "plink_up_bw", "", false, at<&P::plink_up_bw>},
      {"bandwidth", "plink_down_bw", "", false, at<&P::plink_down_bw>},
      {"bandwidth", "cxl_read_bw", "CXL device service; <= 0 means no CXL module", false,
       at<&P::cxl_read_bw>},
      {"bandwidth", "cxl_write_bw", "", false, at<&P::cxl_write_bw>},
      // [noise] — tail behaviour.
      {"noise", "hiccup_prob", "per-request slow-access probability", false, at<&P::hiccup_prob>},
      {"noise", "dram_hiccup", "", false, at<&P::dram_hiccup>},
      {"noise", "cxl_hiccup", "", false, at<&P::cxl_hiccup>},
      {"noise", "noise_interval", "refresh-like endpoint stall period (0 disables)", false,
       at<&P::noise_interval>},
      {"noise", "noise_burst_every", "every Nth stall is longer", false, at<&P::noise_burst_every>},
      {"noise", "noise_burst_factor", "", false, at<&P::noise_burst_factor>},
      // [model] — substrate switches and Fig. 5 harvesting dynamics.
      {"model", "detailed_dram",
       "bank-level DRAM endpoints instead of abstract service rates", false,
       at<&P::detailed_dram>},
      {"model", "if_adjust_period", "IF-class window adjustment period", false,
       at<&P::if_adjust_period>},
      {"model", "plink_adjust_period", "", false, at<&P::plink_adjust_period>},
      {"model", "if_decrease_factor", "multiplicative decrease on congestion", false,
       at<&P::if_decrease_factor>},
      {"model", "if_congestion_ratio", "tolerated RTT inflation before backoff", false,
       at<&P::if_congestion_ratio>},
  });
  return schema;
}

bool is_policy_section(std::string_view section) {
  return section == "gtm" || section == "arrivals" || section == "tier";
}

topo::PlatformParams parse(const Document& doc) {
  doc.check_sections([](std::string_view s) {
    return platform_schema().owns(s) || is_policy_section(s);
  });
  PlatformParams p;
  platform_schema().read(doc, p);
  validate_or_throw(p, doc.source);
  return p;
}

topo::PlatformParams parse(std::string_view text, const std::string& source) {
  return parse(tokenize(text, source));
}

topo::PlatformParams load(const std::string& path) { return parse(read_file(path), path); }

std::string dump(const topo::PlatformParams& params) {
  return "# chipletnet platform spec (.scn)\n"
         "# Tick-valued keys are nanoseconds; bandwidths are bytes/ns (GB/s).\n"
         "\n" +
         platform_schema().dump(params);
}

std::vector<std::string> validate(const topo::PlatformParams& p) {
  std::vector<std::string> errors;
  auto check = [&errors](bool ok, const std::string& msg) {
    if (!ok) errors.push_back(msg);
  };

  check(!p.name.empty(), "[platform] name: must not be empty");
  check(p.ccd_count >= 1, "[structure] ccd_count: must be >= 1 (zero compute chiplets)");
  check(p.ccx_per_ccd >= 1, "[structure] ccx_per_ccd: must be >= 1");
  check(p.cores_per_ccx >= 1, "[structure] cores_per_ccx: must be >= 1");
  check(p.umc_count >= 1, "[structure] umc_count: must be >= 1");

  check(p.core_out_lat >= 0 && p.return_lat >= 0 && p.gmi_prop >= 0 && p.shop_lat >= 0 &&
            p.cs_lat >= 0 && p.iohub_lat >= 0 && p.rootcplx_lat >= 0 && p.plink_prop >= 0 &&
            p.dram_access >= 0 && p.cxl_access >= 0 && p.llc_peer_access >= 0,
        "[latency] data-path latencies must be non-negative");
  check(p.base_shops >= 0, "[latency] base_shops: must be non-negative");

  // Source windows without channel capacities would yield NaN/zero-progress
  // flows mid-sweep; every always-built channel needs a positive rate.
  check(p.core_read_window >= 1, "[window] core_read_window: must be >= 1");
  const struct {
    const char* key;
    double v;
  } base_bws[] = {
      {"ccx_up_bw", p.ccx_up_bw},     {"ccx_down_bw", p.ccx_down_bw},
      {"gmi_up_bw", p.gmi_up_bw},     {"gmi_down_bw", p.gmi_down_bw},
      {"noc_up_bw", p.noc_up_bw},     {"noc_down_bw", p.noc_down_bw},
      {"umc_read_bw", p.umc_read_bw}, {"umc_write_bw", p.umc_write_bw},
      {"peer_out_bw", p.peer_out_bw}, {"peer_in_bw", p.peer_in_bw},
  };
  for (const auto& bw : base_bws) {
    check(bw.v > 0.0, std::string("[bandwidth] ") + bw.key +
                          ": must be > 0 (windows would queue on a zero-capacity channel)");
  }

  // A CXL module needs the whole device path configured: P-Link rates,
  // per-CCD device credits, access latency and requester windows.
  if (p.has_cxl()) {
    check(p.cxl_write_bw > 0.0, "[bandwidth] cxl_write_bw: must be > 0 when cxl_read_bw > 0");
    check(p.plink_up_bw > 0.0,
          "[bandwidth] plink_up_bw: must be > 0 on a CXL platform (cxl_read_bw > 0)");
    check(p.plink_down_bw > 0.0,
          "[bandwidth] plink_down_bw: must be > 0 on a CXL platform (cxl_read_bw > 0)");
    check(p.iodev_ccd_down_bw > 0.0,
          "[bandwidth] iodev_ccd_down_bw: must be > 0 on a CXL platform");
    check(p.iodev_ccd_up_bw > 0.0, "[bandwidth] iodev_ccd_up_bw: must be > 0 on a CXL platform");
    check(p.cxl_core_read_window >= 1,
          "[window] cxl_core_read_window: must be >= 1 on a CXL platform");
    check(p.cxl_core_write_window >= 1,
          "[window] cxl_core_write_window: must be >= 1 on a CXL platform");
    check(p.cxl_access > 0, "[latency] cxl_access: must be > 0 on a CXL platform");
  } else {
    check(p.cxl_core_read_window == 0 && p.cxl_core_write_window == 0,
          "[window] cxl_core_*_window set but cxl_read_bw is 0 (no CXL module)");
  }

  check(p.hiccup_prob >= 0.0 && p.hiccup_prob <= 1.0, "[noise] hiccup_prob: must be in [0, 1]");
  check(p.dram_hiccup >= 0 && p.cxl_hiccup >= 0 && p.noise_interval >= 0,
        "[noise] hiccup/interval durations must be non-negative");
  check(p.noise_burst_every >= 1, "[noise] noise_burst_every: must be >= 1");
  check(p.noise_burst_factor >= 1.0, "[noise] noise_burst_factor: must be >= 1");

  check(p.if_adjust_period >= 0 && p.plink_adjust_period >= 0,
        "[model] adjustment periods must be non-negative");
  check(p.if_decrease_factor > 0.0 && p.if_decrease_factor <= 1.0,
        "[model] if_decrease_factor: must be in (0, 1]");
  check(p.if_congestion_ratio >= 1.0, "[model] if_congestion_ratio: must be >= 1");
  return errors;
}

void validate_or_throw(const topo::PlatformParams& params, const std::string& context) {
  throw_if_invalid(validate(params), context, "platform");
}

topo::PlatformParams resolve(const std::string& name_or_path) {
  return parse(resolve_text(name_or_path), name_or_path);
}

std::string resolve_text(const std::string& name_or_path) {
  if (is_builtin(name_or_path)) return builtin_text(name_or_path);
  // A .scn path or any existing file is read as a spec; anything else is a
  // mistyped name, so report the builtin list.
  if (!name_or_path.ends_with(".scn") && !std::ifstream(name_or_path)) {
    std::string msg = "unknown platform '" + name_or_path + "' (builtins:";
    for (const auto& n : builtin_names()) msg += " " + n;
    msg += "; or pass a .scn file path)";
    throw Error(msg);
  }
  return read_file(name_or_path);
}

std::vector<std::string> diff(const topo::PlatformParams& a, const topo::PlatformParams& b) {
  return platform_schema().diff(a, b);
}

}  // namespace scn::spec
