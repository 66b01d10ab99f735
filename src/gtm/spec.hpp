// Declarative GTM policy: traffic policy as data, not code, the same way
// `.scn` files make platforms data. Two sections hold the Global Traffic
// Manager's knobs:
//
//   [gtm]
//   discipline = fifo | priority | edf
//   admission = none | token-bucket
//   admission_rate_per_us = 16
//   admission_burst = 16
//   admission_max_queue = 0
//   hedge_pct = 0            # 0 disables hedging
//   hedge_min_samples = 32
//
//   [arrivals]
//   kind = poisson | deterministic | mmpp | diurnal | trace
//   rate_per_us = 1
//   burst_factor = 1.7
//   calm_factor = 0.3
//   mean_sojourn_ns = 20000
//   diurnal_period_us = 50
//   diurnal_amplitude = 0.6
//   diurnal_phases = 8
//   trace_file =             # kind = trace: one arrival timestamp (ns) per line
//
// Both sections may appear in a `.scn` platform file or a `.scnc` cluster
// file. They are one table of the shared spec::Schema engine
// (spec/schema.hpp), which backs parse, dump and diff, so `platform_spec`
// treats policy exactly like hardware. parse_gtm() reads *only* these two
// sections of a text — platform, cluster and tier sections belong to their
// own schemas — which is what lets one file carry hardware and policy side
// by side. Every default reproduces the pre-GTM behavior, so a spec without
// these sections changes nothing.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "gtm/arrival.hpp"
#include "gtm/policy.hpp"
#include "spec/spec.hpp"

namespace scn::gtm {

/// Flat, string-typed mirror of (TrafficPolicy, ArrivalConfig): the struct
/// the schema binds to. Enum-valued knobs stay strings here so dump/diff
/// print the spec vocabulary; to_policy()/to_arrival() convert and reject
/// unknown words.
struct GtmParams {
  // [gtm]
  std::string discipline = "fifo";
  std::string admission = "none";
  double admission_rate_per_us = 16.0;
  double admission_burst = 16.0;
  int admission_max_queue = 0;
  double hedge_pct = 0.0;
  int hedge_min_samples = 32;
  // [arrivals]
  std::string arrival_kind = "poisson";
  double rate_per_us = 1.0;
  double burst_factor = 1.7;
  double calm_factor = 0.3;
  sim::Tick mean_sojourn = sim::from_us(20.0);
  double diurnal_period_us = 50.0;
  double diurnal_amplitude = 0.6;
  int diurnal_phases = 8;
  std::string trace_file;

  [[nodiscard]] bool operator==(const GtmParams&) const = default;
};

/// Extract [gtm]/[arrivals] settings from spec text. Other sections are
/// skipped untouched (they belong to the platform, cluster or tier schema),
/// so this can run over a full `.scn`/`.scnc` file. Unknown or duplicate
/// keys inside the two GTM sections throw spec::Error; a text without them
/// returns all defaults. Throws unless validate_gtm passes.
[[nodiscard]] GtmParams parse_gtm(std::string_view text, const std::string& source = "<spec>");
[[nodiscard]] GtmParams parse_gtm(const spec::Document& doc);

/// Canonical [gtm] + [arrivals] section text (no file header); dump ->
/// parse_gtm round-trips bit-identically.
[[nodiscard]] std::string dump_gtm(const GtmParams& params);

/// Semantic checks (vocabulary and ranges); empty means valid.
[[nodiscard]] std::vector<std::string> validate_gtm(const GtmParams& params);

/// One line per differing field, "[section] key: a != b" (same convention as
/// spec::diff).
[[nodiscard]] std::vector<std::string> diff_gtm(const GtmParams& a, const GtmParams& b);

/// Convert the declarative form to the runtime policy. Assumes validated
/// params (throws spec::Error on unknown vocabulary as a backstop).
[[nodiscard]] TrafficPolicy to_policy(const GtmParams& params);

/// Convert to the runtime arrival config. `base_dir` anchors a relative
/// trace_file path (the directory of the spec that named it); the trace is
/// loaded here. Throws spec::Error on unreadable or malformed traces.
[[nodiscard]] ArrivalConfig to_arrival(const GtmParams& params, const std::string& base_dir = "");

/// Read an arrival trace: one non-negative, non-decreasing timestamp in
/// nanoseconds per line; blank lines and full-line `#` comments allowed.
/// Throws spec::Error on unreadable files or malformed numbers.
[[nodiscard]] std::vector<double> load_trace(const std::string& path);

}  // namespace scn::gtm
