#include "tier/spec.hpp"

namespace scn::tier {
namespace {

const spec::Schema<TierParams>& tier_schema() {
  using T = TierParams;
  using spec::at;
  static const spec::Schema<T> schema({
      {"tier", "mode", "off | track | migrate", false, at<&T::mode>},
      {"tier", "page_kb", "region (page) size", false, at<&T::page_kb>},
      {"tier", "epoch_ns", "hotness decay / classification / migration period", false,
       at<&T::epoch>},
      {"tier", "regions", "tiered address space, in pages", false, at<&T::regions>},
      {"tier", "dram_pages", "DRAM-side capacity, in pages", false, at<&T::dram_pages>},
      {"tier", "dram_reserve", "fraction of dram_pages kept free for incoming promotions", false,
       at<&T::dram_reserve>},
      {"tier", "promote_threshold", "decayed accesses/epoch at/above which a region is hot",
       false, at<&T::promote_threshold>},
      {"tier", "demote_threshold", "decayed accesses/epoch at/below which a region is cold",
       false, at<&T::demote_threshold>},
      {"tier", "hysteresis_epochs", "consecutive epochs past a threshold before the class flips",
       false, at<&T::hysteresis_epochs>},
      {"tier", "migrate_gbps", "migration bandwidth budget per epoch (0 = track-only movement)",
       false, at<&T::migrate_gbps>},
      {"tier", "ws_pages", "serve-layer hot working-set window, pages per segment", false,
       at<&T::ws_pages>},
      {"tier", "drift_ns", "window start advances one page per this period (0 = static)", false,
       at<&T::drift>},
  });
  return schema;
}

}  // namespace

TierParams parse_tier(const spec::Document& doc) {
  TierParams p;
  tier_schema().read(doc, p);
  spec::throw_if_invalid(validate_tier(p), doc.source, "tier");
  return p;
}

TierParams parse_tier(std::string_view text, const std::string& source) {
  return parse_tier(spec::tokenize(text, source));
}

std::string dump_tier(const TierParams& params) { return tier_schema().dump(params); }

std::vector<std::string> validate_tier(const TierParams& p) {
  std::vector<std::string> errors;
  auto check = [&errors](bool ok, const std::string& msg) {
    if (!ok) errors.push_back(msg);
  };

  check(parse_mode(p.mode).has_value(),
        "[tier] mode: unknown value '" + p.mode + "' (off | track | migrate)");
  check(p.page_kb > 0.0, "[tier] page_kb: must be > 0");
  check(p.epoch > 0, "[tier] epoch_ns: must be > 0");
  check(p.regions >= 2, "[tier] regions: must be >= 2");
  check(p.dram_pages >= 1, "[tier] dram_pages: must be >= 1");
  check(p.dram_reserve >= 0.0 && p.dram_reserve < 1.0, "[tier] dram_reserve: must be in [0, 1)");
  check(p.demote_threshold >= 0.0, "[tier] demote_threshold: must be >= 0");
  check(p.promote_threshold > p.demote_threshold,
        "[tier] promote_threshold: must be > demote_threshold");
  check(p.hysteresis_epochs >= 1, "[tier] hysteresis_epochs: must be >= 1");
  check(p.migrate_gbps >= 0.0, "[tier] migrate_gbps: must be >= 0");
  check(p.ws_pages >= 1, "[tier] ws_pages: must be >= 1");
  check(p.drift >= 0, "[tier] drift_ns: must be >= 0");
  if (p.dram_pages >= 1 && p.dram_reserve >= 0.0 && p.dram_reserve < 1.0) {
    const int reserve =
        static_cast<int>(p.dram_reserve * static_cast<double>(p.dram_pages) + 0.5);
    const int resident = p.dram_pages - reserve;
    check(resident >= 1, "[tier] dram_reserve: leaves no resident DRAM pages");
    check(p.regions > resident,
          "[tier] regions: must exceed the resident DRAM pages (nothing to tier)");
  }
  return errors;
}

std::vector<std::string> diff_tier(const TierParams& a, const TierParams& b) {
  return tier_schema().diff(a, b);
}

TierConfig to_config(const TierParams& p) {
  TierConfig c;
  const auto m = parse_mode(p.mode);
  if (!m) throw spec::Error("[tier] mode: unknown value '" + p.mode + "'");
  c.mode = *m;
  c.page_bytes = p.page_kb * 1024.0;
  c.epoch = p.epoch;
  c.regions = p.regions;
  c.dram_pages = p.dram_pages;
  c.dram_reserve = p.dram_reserve;
  c.promote_threshold = p.promote_threshold;
  c.demote_threshold = p.demote_threshold;
  c.hysteresis = p.hysteresis_epochs;
  c.migrate_gbps = p.migrate_gbps;
  c.ws_pages = p.ws_pages;
  c.drift = p.drift;
  return c;
}

}  // namespace scn::tier
