// Declarative tiered-memory policy: the CXL tier's knobs as data. One
// section holds them:
//
//   [tier]
//   mode = off | track | migrate
//   page_kb = 4
//   epoch_ns = 5000
//   regions = 1024
//   dram_pages = 256
//   dram_reserve = 0.125
//   promote_threshold = 4
//   demote_threshold = 1
//   hysteresis_epochs = 2
//   migrate_gbps = 16
//   ws_pages = 64
//   drift_ns = 0
//
// It may appear in a `.scn` platform file or a `.scnc` cluster file, and a
// `--tier-spec` file may hold it alone. It is one table of the shared
// spec::Schema engine (spec/schema.hpp), which backs parse, dump and diff.
// parse_tier() reads *only* the [tier] section of a text — platform,
// cluster and GTM sections belong to their own schemas — which is what lets
// one file carry hardware, policy and tiering side by side. The default
// (`mode = off`) reproduces the pre-tier behavior exactly, so a spec without
// this section changes nothing.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "spec/spec.hpp"
#include "tier/tier.hpp"

namespace scn::tier {

/// Flat, string-typed mirror of TierConfig: the struct the schema binds
/// to. The mode stays a string here so dump/diff print the spec vocabulary;
/// to_config() converts and rejects unknown words.
struct TierParams {
  std::string mode = "off";
  double page_kb = 4.0;
  sim::Tick epoch = sim::from_us(5.0);
  int regions = 1024;
  int dram_pages = 256;
  double dram_reserve = 0.125;
  double promote_threshold = 4.0;
  double demote_threshold = 1.0;
  int hysteresis_epochs = 2;
  double migrate_gbps = 16.0;
  int ws_pages = 64;
  sim::Tick drift = 0;

  [[nodiscard]] bool operator==(const TierParams&) const = default;
};

/// Extract [tier] settings from spec text. Other sections are skipped
/// untouched (they belong to the platform, cluster or GTM schema), so this
/// can run over a full `.scn`/`.scnc` file. Unknown or duplicate keys inside
/// [tier] throw spec::Error; a text without the section returns all
/// defaults. Throws unless validate_tier passes.
[[nodiscard]] TierParams parse_tier(std::string_view text, const std::string& source = "<spec>");
[[nodiscard]] TierParams parse_tier(const spec::Document& doc);

/// Canonical [tier] section text (no file header); dump -> parse_tier
/// round-trips bit-identically.
[[nodiscard]] std::string dump_tier(const TierParams& params);

/// Semantic checks (vocabulary and ranges); empty means valid.
[[nodiscard]] std::vector<std::string> validate_tier(const TierParams& params);

/// One line per differing field, "[tier] key: a != b" (same convention as
/// spec::diff).
[[nodiscard]] std::vector<std::string> diff_tier(const TierParams& a, const TierParams& b);

/// Convert the declarative form to the runtime config. Assumes validated
/// params (throws spec::Error on unknown vocabulary as a backstop).
[[nodiscard]] TierConfig to_config(const TierParams& params);

}  // namespace scn::tier
