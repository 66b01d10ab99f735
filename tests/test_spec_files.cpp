// Spec files through the one schema engine: every committed spec survives
// dump -> parse with all its sections, every schema rejects non-finite and
// out-of-range numbers with a file:line diagnostic, and deterministic
// mutations of real spec texts either parse to a dump fixpoint or fail with a
// spec::Error naming the source.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "cluster/spec.hpp"

namespace {

using namespace scn;

const std::string kSpecs = SCN_SPECS_DIR;

bool is_cluster_file(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".scnc") == 0;
}

std::vector<std::string> committed_specs() {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(kSpecs)) {
    out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- round trip: every section of every committed file --------------------

TEST(SpecFiles, DumpParseKeepsEverySectionOfEveryCommittedSpec) {
  const auto files = committed_specs();
  ASSERT_GE(files.size(), 7u);
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    if (is_cluster_file(path)) {
      const auto a = cluster::load_cluster(path);
      const auto b = cluster::parse_cluster(cluster::dump_cluster(a), "dump", kSpecs);
      EXPECT_TRUE(cluster::diff_cluster(a, b).empty());
      EXPECT_EQ(a.server_tokens, b.server_tokens);
      EXPECT_TRUE(a.gtm == b.gtm);
      EXPECT_TRUE(a.tier == b.tier);
    } else {
      const auto a = cluster::load_platform_file(path);
      const auto b = cluster::parse_platform_file(cluster::dump_platform_file(a), "dump");
      EXPECT_TRUE(cluster::diff_platform_file(a, b).empty());
      EXPECT_TRUE(spec::diff(a.platform, b.platform).empty());
      EXPECT_TRUE(a.gtm == b.gtm);
      EXPECT_TRUE(a.tier == b.tier);
    }
  }
  // The tiered what-if keeps its [tier] section through a dump.
  const auto tiered = cluster::load_platform_file(kSpecs + "/epyc9634-tier.scn");
  EXPECT_EQ(tiered.tier.mode, "migrate");
  const std::string dumped = cluster::dump_platform_file(tiered);
  EXPECT_LT(dumped.find("\n[tier]\n"), dumped.find("\nmode = migrate\n"));
  EXPECT_NE(dumped.find("\nmode = migrate\n"), std::string::npos);
}

TEST(SpecFiles, PlatformFileDiffSeesPolicySections) {
  const auto builtin = cluster::load_platform_file("epyc9634");
  auto tiered = builtin;
  tiered.tier.mode = "track";
  tiered.gtm.discipline = "edf";
  const auto d = cluster::diff_platform_file(builtin, tiered);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], "[gtm] discipline: fifo != edf");
  EXPECT_EQ(d[1], "[tier] mode: off != track");
}

// ---- numbers: one typed parser for all four schemas ------------------------

/// Parse `text` with the named schema's entry point (source "t").
void parse_as(const std::string& schema, const std::string& text) {
  if (schema == "platform") {
    (void)spec::parse(text, "t");
  } else if (schema == "gtm") {
    (void)gtm::parse_gtm(text, "t");
  } else if (schema == "tier") {
    (void)tier::parse_tier(text, "t");
  } else {
    (void)cluster::parse_cluster(text, "t");
  }
}

/// The builtin 9634 spec with one key's value replaced.
std::string platform_with(const std::string& key, const std::string& value) {
  std::string text = spec::dump(spec::lookup("epyc9634"));
  const std::size_t at = text.find("\n" + key + " = ");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t from = at + key.size() + 4;
  text.replace(from, text.find('\n', from) - from, value);
  return text;
}

TEST(SpecFiles, RejectsNonFiniteAndOutOfRangeNumbers) {
  const std::string rack = "[cluster]\nservers = epyc7302\n";
  const struct {
    const char* schema;
    std::string text;
    const char* fragment;
  } cases[] = {
      {"platform", platform_with("l1_lat", "nan"), "bad number 'nan'"},
      {"platform", platform_with("l1_lat", "-inf"), "bad number '-inf'"},
      {"platform", platform_with("base_ghz", "1e400"), "bad number '1e400'"},
      {"platform", platform_with("dram_access", "1e300"), "does not fit in a sim::Tick"},
      {"platform", platform_with("position_extra", "0 4 nan 8"), "bad number 'nan'"},
      {"platform", platform_with("ccd_count", "4294967308"), "out of range"},
      {"platform", platform_with("core_read_window", "4294967297"), "out of range"},
      {"platform", platform_with("core_read_window", "-1"), "must be non-negative"},
      {"gtm", "[gtm]\nhedge_pct = nan\n", "bad number 'nan'"},
      {"gtm", "[gtm]\nadmission_max_queue = 2147483648\n", "out of range"},
      {"gtm", "[arrivals]\nmean_sojourn_ns = inf\n", "bad number 'inf'"},
      {"tier", "[tier]\npage_kb = -nan\n", "bad number '-nan'"},
      {"tier", "[tier]\nepoch_ns = 1e16\n", "does not fit in a sim::Tick"},
      {"tier", "[tier]\nregions = -2147483649\n", "out of range"},
      {"cluster", rack + "link_latency_ns = 1e400\n", "bad number '1e400'"},
      {"cluster", rack + "link_latency_ns = 1e20\n", "does not fit in a sim::Tick"},
      {"cluster", rack + "request_bytes = nan\n", "bad number 'nan'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.schema) + ": " + c.fragment);
    try {
      parse_as(c.schema, c.text);
      ADD_FAILURE() << "accepted";
    } catch (const spec::Error& e) {
      const std::string msg = e.what();
      // "t:<line>: ..." — a file:line diagnostic, not a validation summary.
      EXPECT_EQ(msg.rfind("t:", 0), 0u) << msg;
      EXPECT_TRUE(msg.size() > 2 && std::isdigit(static_cast<unsigned char>(msg[2]))) << msg;
      EXPECT_NE(msg.find(c.fragment), std::string::npos) << msg;
    }
  }
}

// ---- deterministic mutation --------------------------------------------------

struct Corpus {
  std::string source;
  std::string text;
  /// dump(parse(text)); throws what the parser throws.
  std::function<std::string(const std::string& text, const std::string& source)> dump_parse;
};

std::vector<Corpus> corpus() {
  const auto platform = [](const std::string& text, const std::string& source) {
    return cluster::dump_platform_file(cluster::parse_platform_file(text, source));
  };
  const auto rack = [](const std::string& text, const std::string& source) {
    return cluster::dump_cluster(cluster::parse_cluster(text, source, kSpecs));
  };
  std::vector<Corpus> out;
  for (const auto& name : spec::builtin_names()) {
    out.push_back({name, spec::builtin_text(name), platform});
  }
  for (const auto& path : committed_specs()) {
    out.push_back({path, spec::read_file(path), is_cluster_file(path) ? rack : platform});
  }
  return out;
}

/// Line start offsets of `text`, plus text.size().
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> out{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') out.push_back(i + 1);
  }
  if (out.back() != text.size()) out.push_back(text.size());
  return out;
}

/// The contract: parse succeeds and dump -> parse is a fixpoint, or parse
/// throws spec::Error whose message starts with the source name. Any other
/// exception escapes to gtest and fails the test.
void expect_parses_or_diagnoses(const Corpus& c, const std::string& text, const std::string& how,
                                int* parsed) {
  std::string once;
  try {
    once = c.dump_parse(text, c.source);
  } catch (const spec::Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(c.source, 0), 0u) << how << ": " << e.what();
    return;
  }
  ++*parsed;
  EXPECT_EQ(c.dump_parse(once, c.source + ".dump"), once) << how;
}

TEST(SpecFiles, MutatedSpecsParseToAFixpointOrFailWithADiagnostic) {
  constexpr int kFlipsPerText = 64;
  std::mt19937_64 rng(20251017);
  int inputs = 0;
  int parsed = 0;
  for (const auto& c : corpus()) {
    SCOPED_TRACE(c.source);
    const auto starts = line_starts(c.text);
    const auto check = [&](const std::string& text, const std::string& how) {
      ++inputs;
      expect_parses_or_diagnoses(c, text, how, &parsed);
    };

    check(c.text, "unmutated");
    // Truncation after each line.
    for (const std::size_t end : starts) check(c.text.substr(0, end), "truncated");
    // Single-byte flips at seeded positions.
    for (int i = 0; i < kFlipsPerText; ++i) {
      std::string text = c.text;
      const std::size_t at = rng() % text.size();
      text[at] = static_cast<char>(text[at] ^ static_cast<char>(1 + rng() % 255));
      check(text, "byte flip at " + std::to_string(at));
    }
    // Each line's value replaced by a hostile number; a copy of each section
    // appended to the end.
    for (std::size_t l = 0; l + 1 < starts.size(); ++l) {
      const std::string line = c.text.substr(starts[l], starts[l + 1] - starts[l]);
      const std::size_t eq = line.find(" = ");
      if (line[0] == '[') {
        const std::size_t next = c.text.find("\n[", starts[l]);
        const std::string section =
            c.text.substr(starts[l], next == std::string::npos ? std::string::npos
                                                               : next + 1 - starts[l]);
        check(c.text + "\n" + section, "duplicated " + line);
      }
      if (line[0] == '#' || eq == std::string::npos) continue;
      const std::size_t value_len = line.size() - eq - 3 - (line.back() == '\n' ? 1 : 0);
      for (const char* value : {"nan", "inf", "1e308", "-1"}) {
        std::string text = c.text;
        text.replace(starts[l] + eq + 3, value_len, value);
        check(text, line.substr(0, eq) + " = " + value);
      }
    }
  }
  // The corpus exercises both outcomes, within a bounded input count.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(inputs - parsed, 1000);
  EXPECT_LT(inputs, 6000);
}

}  // namespace
