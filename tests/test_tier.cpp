// The CXL tiering subsystem: hotness-tracker edge cases (integer decay to
// exactly zero, saturation, hysteresis), the [tier] spec schema, migration
// mechanics over the real fabric (home flips only after the page copy
// lands, the capacity reserve is restored by demotion, zero budget moves
// nothing), determinism, the track-mode latency-equivalence contract, and
// the headline acceptance property: on the committed epyc9634-tier spec,
// online migration must beat frozen placement at the saturation knee.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "measure/experiment.hpp"
#include "serve/request.hpp"
#include "serve/sweep.hpp"
#include "spec/spec.hpp"
#include "tier/spec.hpp"
#include "tier/tier.hpp"
#include "topo/params.hpp"

namespace {

using namespace scn;

// ---- HotnessTracker --------------------------------------------------------

TEST(TierTracker, DecayReachesExactlyZero) {
  tier::HotnessTracker t(4, 4.0, 1.0, 2);
  for (int i = 0; i < 100; ++i) t.record(0);
  t.epoch();
  EXPECT_EQ(t.score(0), 100u);
  // Integer halving: an idle region's score must hit *exactly* zero in a
  // finite number of epochs, not just tend to it like a float EMA.
  int epochs = 0;
  while (t.score(0) > 0 && epochs < 64) {
    t.epoch();
    ++epochs;
  }
  EXPECT_EQ(t.score(0), 0u);
  EXPECT_LE(epochs, 7);  // ceil(log2(100)) halvings
  t.epoch();
  EXPECT_EQ(t.score(0), 0u);  // and stays there
}

TEST(TierTracker, CountAndScoreSaturateAtCap) {
  tier::HotnessTracker t(1, 4.0, 1.0, 1);
  const std::uint64_t cap = tier::HotnessTracker::kScoreCap;
  for (std::uint64_t i = 0; i < cap + 1000; ++i) t.record(0);
  EXPECT_EQ(t.pending(0), cap);  // per-epoch count saturates, no overflow
  t.epoch();
  EXPECT_EQ(t.score(0), cap);
  // score/2 + a saturated count saturates again instead of wrapping.
  for (std::uint64_t i = 0; i < cap + 1000; ++i) t.record(0);
  t.epoch();
  EXPECT_EQ(t.score(0), cap);
}

TEST(TierTracker, HysteresisDelaysClassFlips) {
  tier::HotnessTracker t(1, 4.0, 1.0, 3);
  // One hot epoch is not enough with hysteresis 3...
  for (int i = 0; i < 10; ++i) t.record(0);
  t.epoch();
  EXPECT_FALSE(t.hot(0));
  for (int i = 0; i < 10; ++i) t.record(0);
  t.epoch();
  EXPECT_FALSE(t.hot(0));
  // ...the third consecutive one is.
  for (int i = 0; i < 10; ++i) t.record(0);
  t.epoch();
  EXPECT_TRUE(t.hot(0));
  // Un-classifying needs 3 consecutive *cold-band* epochs. Idle decay runs
  // the score through 8, 4 (still hot band) and 2 (the neutral middle band)
  // before reaching the cold band at 1, 0, 0 — so the region stays hot and
  // un-demotable through five idle epochs and flips on the sixth.
  for (int i = 0; i < 5; ++i) {
    t.epoch();
    EXPECT_TRUE(t.hot(0)) << "idle epoch " << i;
    EXPECT_FALSE(t.demotable(0)) << "idle epoch " << i;
  }
  t.epoch();  // third cold-band epoch
  EXPECT_FALSE(t.hot(0));
  EXPECT_TRUE(t.demotable(0));
}

TEST(TierTracker, MiddleBandResetsBothStreaks) {
  tier::HotnessTracker t(1, 8.0, 1.0, 2);
  for (int i = 0; i < 8; ++i) t.record(0);
  t.epoch();  // score 8: hot streak 1
  // Land the score between the thresholds (8/2 + 0 = 4): neither streak may
  // survive — this is the anti-ping-pong band.
  t.epoch();
  for (int i = 0; i < 8; ++i) t.record(0);
  t.epoch();  // hot streak restarts at 1, not 2
  EXPECT_FALSE(t.hot(0));
  for (int i = 0; i < 8; ++i) t.record(0);
  t.epoch();
  EXPECT_TRUE(t.hot(0));
}

// ---- [tier] spec schema ----------------------------------------------------

TEST(TierSpec, DumpParseRoundTrip) {
  tier::TierParams p;
  p.mode = "migrate";
  p.epoch = sim::from_ns(2000.0);
  p.regions = 512;
  p.dram_pages = 128;
  p.migrate_gbps = 32.0;
  p.drift = sim::from_ns(2500.0);
  const auto q = tier::parse_tier(tier::dump_tier(p), "<roundtrip>");
  EXPECT_TRUE(p == q);
  EXPECT_EQ(tier::dump_tier(p), tier::dump_tier(q));
}

TEST(TierSpec, RejectsMalformedSections) {
  EXPECT_THROW((void)tier::parse_tier("[tier]\nmode = sideways\n"), spec::Error);
  EXPECT_THROW((void)tier::parse_tier("[tier]\nno_such_key = 1\n"), spec::Error);
  EXPECT_THROW((void)tier::parse_tier("[tier]\nregions = 64\nregions = 65\n"), spec::Error);
  EXPECT_THROW((void)tier::parse_tier("[tier]\n[tier]\n"), spec::Error);
  EXPECT_THROW((void)tier::parse_tier("[tier]\nepoch_ns = fast\n"), spec::Error);
  // Degenerate geometry: everything fits in DRAM, nothing to tier.
  EXPECT_THROW((void)tier::parse_tier("[tier]\nregions = 16\ndram_pages = 256\n"), spec::Error);
  // Keys in *other* sections belong to other schemas and must be skipped.
  EXPECT_NO_THROW((void)tier::parse_tier("[platform]\nname = x\n[tier]\nregions = 512\n"));
}

TEST(TierSpec, ToConfigConvertsUnits) {
  tier::TierParams p;
  p.mode = "track";
  p.page_kb = 2.0;
  const auto c = tier::to_config(p);
  EXPECT_EQ(c.mode, tier::Mode::kTrack);
  EXPECT_DOUBLE_EQ(c.page_bytes, 2048.0);
}

// ---- TieredMemory mechanics ------------------------------------------------

tier::TierConfig small_config() {
  tier::TierConfig c;
  c.mode = tier::Mode::kMigrate;
  c.epoch = sim::from_us(1.0);
  c.regions = 32;
  c.dram_pages = 8;
  c.dram_reserve = 0.25;  // reserve 2 => 6 resident at t = 0
  c.promote_threshold = 4.0;
  c.demote_threshold = 1.0;
  c.hysteresis = 2;
  c.migrate_gbps = 16.0;
  c.ws_pages = 4;
  return c;
}

// Drive `accesses` evenly spaced accesses to `region` over `until`.
void hammer(measure::Experiment& e, tier::TieredMemory& t, int region, sim::Tick until,
            int per_us = 10) {
  const sim::Tick gap = sim::from_us(1.0) / per_us;
  for (sim::Tick at = gap; at <= until; at += gap) {
    e.simulator.run_until(at);
    (void)t.access(region);
  }
}

TEST(TierMemory, ConstructorRejectsDegenerateConfigs) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = small_config();
  cfg.mode = tier::Mode::kOff;
  EXPECT_THROW(tier::TieredMemory(e.simulator, e.platform, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.regions = 4;  // <= resident DRAM pages: nothing to tier
  EXPECT_THROW(tier::TieredMemory(e.simulator, e.platform, cfg), std::invalid_argument);
  measure::Experiment no_cxl(topo::epyc7302());
  EXPECT_THROW(tier::TieredMemory(no_cxl.simulator, no_cxl.platform, small_config()),
               std::invalid_argument);
}

TEST(TierMemory, InitialPlacementAndAccessAccounting) {
  measure::Experiment e(topo::epyc9634());
  tier::TieredMemory t(e.simulator, e.platform, small_config());
  EXPECT_EQ(t.initial_dram(), 6);
  EXPECT_EQ(t.reserve_slots(), 2);
  EXPECT_EQ(t.dram_resident(), 6);
  EXPECT_EQ(t.access(0), tier::Home::kDram);
  EXPECT_EQ(t.access(31), tier::Home::kCxl);
  EXPECT_EQ(t.stats().accesses, 2u);
  EXPECT_EQ(t.stats().dram_hits, 1u);
  EXPECT_DOUBLE_EQ(t.stats().hit_ratio(), 0.5);
}

TEST(TierMemory, PromotionFlipsHomeOnlyAfterFabricCopy) {
  measure::Experiment e(topo::epyc9634());
  tier::TieredMemory t(e.simulator, e.platform, small_config());
  t.start(sim::from_us(50.0));
  const int hot = t.initial_dram() + 3;  // a CXL-resident region
  hammer(e, t, hot, sim::from_us(10.0));
  e.simulator.run_until(sim::from_us(20.0));  // drain in-flight copies
  EXPECT_EQ(t.home(hot), tier::Home::kDram);
  EXPECT_GE(t.stats().promotions, 1u);
  EXPECT_EQ(t.migrations_inflight(), 0);
  // Every completed copy is one page over the fabric, both directions.
  EXPECT_EQ(t.stats().migrated_bytes,
            static_cast<std::uint64_t>(t.page_bytes()) *
                (t.stats().promotions + t.stats().demotions));
}

TEST(TierMemory, DemotionRestoresCapacityReserve) {
  measure::Experiment e(topo::epyc9634());
  tier::TieredMemory t(e.simulator, e.platform, small_config());
  t.start(sim::from_us(60.0));
  // Promote one cold-start CXL region; every initially-DRAM region idles, so
  // the engine has demotable pages to refill the reserve with.
  hammer(e, t, t.initial_dram(), sim::from_us(30.0));
  e.simulator.run_until(sim::from_us(60.0));
  EXPECT_EQ(t.home(t.initial_dram()), tier::Home::kDram);
  EXPECT_GE(t.stats().demotions, 1u);
  // Quiesced: the free-slot reserve is whole again and DRAM never
  // overcommitted.
  EXPECT_LE(t.dram_resident(), t.config().dram_pages - t.reserve_slots());
  EXPECT_GE(t.dram_resident(), 1);
}

TEST(TierMemory, SinglePageWorkingSetPromotesExactlyThatPage) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = small_config();
  cfg.ws_pages = 1;
  tier::TieredMemory t(e.simulator, e.platform, cfg);
  t.start(sim::from_us(40.0));
  // Any hash maps to the segment's first page when the window is one wide.
  for (int step = 1; step <= 300; ++step) {
    e.simulator.run_until(sim::from_ns(100.0) * step);
    std::uint64_t mix = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(step);
    const int r = t.map_region(true, sim::splitmix64(mix), e.simulator.now());
    EXPECT_EQ(r, t.initial_dram());
    (void)t.access(r);
  }
  e.simulator.run_until(sim::from_us(40.0));
  EXPECT_EQ(t.home(t.initial_dram()), tier::Home::kDram);
  EXPECT_EQ(t.stats().promotions, 1u);  // one page hot => exactly one promotion
  for (int r = t.initial_dram() + 1; r < t.region_count(); ++r) {
    EXPECT_EQ(t.home(r), tier::Home::kCxl) << "region " << r;
  }
}

TEST(TierMemory, ZeroMigrationBudgetTracksButNeverMoves) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = small_config();
  cfg.migrate_gbps = 0.0;
  tier::TieredMemory t(e.simulator, e.platform, cfg);
  t.start(sim::from_us(30.0));
  hammer(e, t, t.initial_dram() + 1, sim::from_us(30.0));
  e.simulator.run_until(sim::from_us(40.0));
  EXPECT_GT(t.stats().epochs, 0u);
  EXPECT_GT(t.stats().accesses, 0u);
  EXPECT_EQ(t.stats().promotions, 0u);
  EXPECT_EQ(t.stats().demotions, 0u);
  EXPECT_EQ(t.stats().migrated_bytes, 0u);
  EXPECT_GT(t.stats().deferred, 0u);  // the hot page kept asking
  EXPECT_EQ(t.home(t.initial_dram() + 1), tier::Home::kCxl);
}

TEST(TierMemory, EpochBoundaryExactlyAtStop) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = small_config();
  cfg.epoch = sim::from_us(5.0);
  tier::TieredMemory t(e.simulator, e.platform, cfg);
  // Stop lands exactly on an epoch boundary (25 us = 5 epochs, the quick
  // sweep's warmup): the boundary at stop still fires, and nothing
  // reschedules past it.
  t.start(sim::from_us(25.0));
  e.simulator.run_until(sim::from_us(26.0));
  EXPECT_EQ(t.stats().epochs, 5u);
  e.simulator.run_until(sim::from_us(100.0));
  EXPECT_EQ(t.stats().epochs, 5u);
}

TEST(TierMemory, TrackModeNeverMovesAPage) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = small_config();
  cfg.mode = tier::Mode::kTrack;
  tier::TieredMemory t(e.simulator, e.platform, cfg);
  t.start(sim::from_us(30.0));
  hammer(e, t, t.initial_dram() + 2, sim::from_us(30.0));
  e.simulator.run_until(sim::from_us(40.0));
  EXPECT_GT(t.stats().epochs, 0u);
  EXPECT_TRUE(t.tracker().hot(t.initial_dram() + 2));  // telemetry live
  EXPECT_EQ(t.stats().promotions, 0u);                 // placement frozen
  EXPECT_EQ(t.stats().migrated_bytes, 0u);
  EXPECT_EQ(t.dram_resident(), t.initial_dram());
}

TEST(TierMemory, DriftIsAPureFunctionOfTime) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = small_config();
  cfg.drift = sim::from_us(2.0);
  tier::TieredMemory t(e.simulator, e.platform, cfg);
  // Same (hash, now) => same region, independent of access history.
  const int before = t.map_region(true, 7, sim::from_us(9.0));
  for (int i = 0; i < 50; ++i) (void)t.access(i % t.region_count());
  EXPECT_EQ(t.map_region(true, 7, sim::from_us(9.0)), before);
  // The window start advances exactly one page per drift period.
  const int a = t.map_region(true, 0, sim::from_us(2.0));
  const int b = t.map_region(true, 0, sim::from_us(4.0));
  const int seg_len = t.region_count() - t.initial_dram();
  EXPECT_EQ((b - t.initial_dram()) % seg_len,
            (a - t.initial_dram() + 1) % seg_len);
}

TEST(TierMemory, IdenticalRunsProduceIdenticalStats) {
  auto run = [] {
    measure::Experiment e(topo::epyc9634());
    tier::TieredMemory t(e.simulator, e.platform, small_config());
    t.start(sim::from_us(40.0));
    for (int step = 1; step <= 400; ++step) {
      e.simulator.run_until(sim::from_ns(100.0) * step);
      std::uint64_t mix = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(step);
      (void)t.access(t.map_region(step % 3 != 0, sim::splitmix64(mix), e.simulator.now()));
    }
    e.simulator.run_until(sim::from_us(60.0));
    std::vector<int> homes;
    for (int r = 0; r < t.region_count(); ++r) homes.push_back(static_cast<int>(t.home(r)));
    const auto& s = t.stats();
    return std::make_tuple(s.accesses, s.dram_hits, s.promotions, s.demotions, s.migrated_bytes,
                           s.deferred, s.epochs, homes);
  };
  EXPECT_EQ(run(), run());
}

// ---- serve-layer integration ----------------------------------------------

serve::SweepConfig quick_tier_sweep(const topo::PlatformParams& params) {
  serve::SweepConfig sc;
  sc.rates_per_us = {1.0, 8.0, 32.0};
  sc.policies = {serve::Policy::kLocal};
  sc.classes = serve::tiering_classes(params);
  sc.warmup = sim::from_us(25.0);
  sc.stop = sim::from_us(100.0);
  sc.max_drain = sim::from_ms(1.0);
  sc.seed = 1;
  return sc;
}

TEST(TierServe, TrackModeLatencyEqualsTierOff) {
  // kTrack is pure telemetry: with the default (driftless) placement, the
  // dram segment is DRAM-resident and the cxl segment CXL-resident, so every
  // stage resolves to the exact path the pre-tier code would pick — latency
  // numbers must be *identical*, not merely close.
  const auto params = topo::epyc9634();
  auto sc = quick_tier_sweep(params);
  sc.tier.mode = tier::Mode::kOff;
  const auto off = serve::sweep(params, sc);
  sc.tier = tier::TierConfig{};
  sc.tier.mode = tier::Mode::kTrack;
  const auto track = serve::sweep(params, sc);
  ASSERT_EQ(off.size(), track.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].report.p50_ns, track[i].report.p50_ns) << "point " << i;
    EXPECT_EQ(off[i].report.p99_ns, track[i].report.p99_ns) << "point " << i;
    EXPECT_EQ(off[i].report.completed, track[i].report.completed) << "point " << i;
  }
  // ...but only track carries telemetry.
  EXPECT_GT(track.back().report.tier_accesses, 0u);
  EXPECT_EQ(off.back().report.tier_accesses, 0u);
}

TEST(TierServe, MigrationBeatsFrozenPlacementAtTheKnee) {
  // The acceptance property on the *committed* spec: under the CCD0
  // antagonist, online migration must cut P99 at frozen placement's
  // saturation knee by at least 1.3x (observed ~1.9x; the margin absorbs
  // calibration drift without letting the win disappear).
  const std::string path = std::string(SCN_SPECS_DIR) + "/epyc9634-tier.scn";
  const auto params = spec::resolve(path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream text;
  text << file.rdbuf();
  const auto tier_params = tier::parse_tier(text.str(), path);

  auto sc = quick_tier_sweep(params);
  sc.tier = tier::to_config(tier_params);
  sc.tier.mode = tier::Mode::kTrack;
  const auto track = serve::policy_curve(serve::sweep(params, sc), serve::Policy::kLocal);
  sc.tier.mode = tier::Mode::kMigrate;
  const auto migrate = serve::policy_curve(serve::sweep(params, sc), serve::Policy::kLocal);

  const int knee = serve::knee_index(track);
  ASSERT_GE(knee, 0) << "frozen placement never saturated in the swept range";
  const auto k = static_cast<std::size_t>(knee);
  EXPECT_GE(track[k].report.p99_ns, 1.3 * migrate[k].report.p99_ns)
      << "track p99 " << track[k].report.p99_ns << " vs migrate " << migrate[k].report.p99_ns;
  // The mechanism, not just the effect: migration moved pages and converted
  // far-memory accesses into DRAM hits.
  EXPECT_GT(migrate[k].report.tier_promotions, 0u);
  EXPECT_EQ(track[k].report.tier_promotions, 0u);
  EXPECT_GT(migrate[k].report.tier_hit_ratio, track[k].report.tier_hit_ratio + 0.2);
}

}  // namespace
