// The declarative platform-spec layer: schema registry, parse/dump
// round-trips, diagnostics with file:line context, semantic validation, the
// builtin registry, and the committed what-if specs under specs/.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <variant>

#include "sim/simulator.hpp"
#include "spec/spec.hpp"
#include "topo/params.hpp"
#include "topo/platform.hpp"

namespace {

using namespace scn;

// Strip every full-line comment and blank line: the canonical payload.
std::string payload(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line[0] != '#') out += line + "\n";
  }
  return out;
}

// ---- round-trip ------------------------------------------------------------

TEST(SpecRoundTrip, DumpParseIsFieldIdentityForBuiltins) {
  for (const auto& name : spec::builtin_names()) {
    const auto original = spec::lookup(name);
    const auto reparsed = spec::parse(spec::dump(original), name + ".dumped");
    const auto delta = spec::diff(original, reparsed);
    EXPECT_TRUE(delta.empty()) << name << ": " << (delta.empty() ? "" : delta.front());
  }
}

TEST(SpecRoundTrip, DumpIsAFixpoint) {
  for (const auto& name : spec::builtin_names()) {
    const auto once = spec::dump(spec::lookup(name));
    const auto twice = spec::dump(spec::parse(once));
    EXPECT_EQ(once, twice) << name;
  }
}

TEST(SpecRoundTrip, LookupMatchesTopoPresets) {
  EXPECT_TRUE(spec::diff(spec::lookup("epyc7302"), topo::epyc7302()).empty());
  EXPECT_TRUE(spec::diff(spec::lookup("epyc9634"), topo::epyc9634()).empty());
}

TEST(SpecRoundTrip, EmbeddedTextEqualsCanonicalPayload) {
  // The embedded builtin text may carry richer calibration comments, but its
  // key/value payload must match the canonical dump's payload: nothing in a
  // builtin escapes the schema.
  for (const auto& name : spec::builtin_names()) {
    EXPECT_EQ(payload(spec::builtin_text(name)), payload(spec::dump(spec::lookup(name)))) << name;
  }
}

TEST(SpecRoundTrip, LoadFromFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "spec_roundtrip.scn";
  {
    std::ofstream out(path);
    out << spec::dump(topo::epyc9634());
  }
  const auto loaded = spec::load(path);
  EXPECT_TRUE(spec::diff(loaded, topo::epyc9634()).empty());
  std::remove(path.c_str());
}

// ---- schema ----------------------------------------------------------------

TEST(SpecSchema, EveryFieldHasExactlyOneBinding) {
  // Each row binds its own PlatformParams member: no two keys share storage.
  topo::PlatformParams p;
  const auto* lo = reinterpret_cast<const char*>(&p);
  std::set<const char*> bound;
  for (const auto& f : spec::platform_schema().fields) {
    const auto* at = std::visit(
        [](auto* v) { return reinterpret_cast<const char*>(v); }, f.slot(p));
    EXPECT_TRUE(at >= lo && at < lo + sizeof(p)) << "[" << f.section << "] " << f.key;
    EXPECT_TRUE(bound.insert(at).second) << "[" << f.section << "] " << f.key;
  }
}

TEST(SpecSchema, KeysAreUniquePerSection) {
  std::set<std::string> seen;
  for (const auto& f : spec::platform_schema().fields) {
    EXPECT_TRUE(seen.insert(std::string(f.section) + "/" + f.key).second)
        << "[" << f.section << "] " << f.key;
  }
}

TEST(SpecSchema, DiffReportsAChangedField) {
  auto a = topo::epyc9634();
  auto b = a;
  b.gmi_up_bw *= 2.0;
  const auto delta = spec::diff(a, b);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_NE(delta[0].find("gmi_up_bw"), std::string::npos) << delta[0];
}

TEST(SpecSchema, DiffIsEmptyForIdenticalSpecs) {
  EXPECT_TRUE(spec::diff(topo::epyc7302(), topo::epyc7302()).empty());
  EXPECT_TRUE(spec::diff(topo::epyc9634(), topo::epyc9634()).empty());
}

TEST(SpecSchema, DiffReportsEveryChangedFieldExactlyOnce) {
  // The `platform_spec diff` subcommand prints these lines verbatim, so the
  // contract is one line per differing field, across value types.
  auto a = topo::epyc9634();
  auto b = a;
  b.name = "EPYC 9634 what-if";  // string field
  b.ccd_count += 4;              // integer field
  b.gmi_up_bw *= 2.0;            // double field
  const auto delta = spec::diff(a, b);
  ASSERT_EQ(delta.size(), 3u);
  std::string joined;
  for (const auto& line : delta) joined += line + "\n";
  EXPECT_NE(joined.find("name"), std::string::npos) << joined;
  EXPECT_NE(joined.find("ccd_count"), std::string::npos) << joined;
  EXPECT_NE(joined.find("gmi_up_bw"), std::string::npos) << joined;
}

TEST(SpecSchema, DiffIsSymmetricInCount) {
  auto a = topo::epyc7302();
  auto b = a;
  b.umc_read_bw *= 0.5;
  EXPECT_EQ(spec::diff(a, b).size(), spec::diff(b, a).size());
}

// ---- diagnostics -----------------------------------------------------------

void expect_error(const std::string& text, const char* fragment) {
  try {
    (void)spec::parse(text, "bad.scn");
    FAIL() << "expected spec::Error containing '" << fragment << "'";
  } catch (const spec::Error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "got: " << e.what() << "\nwanted fragment: " << fragment;
  }
}

std::string valid_text() { return spec::dump(topo::epyc9634()); }

TEST(SpecDiagnostics, UnknownKey) {
  expect_error(valid_text() + "\nfrobnication_delay = 3\n", "unknown key");
}

TEST(SpecDiagnostics, UnknownSection) {
  expect_error(valid_text() + "\n[quantum]\n", "unknown section");
}

TEST(SpecDiagnostics, DuplicateSection) {
  expect_error(valid_text() + "\n[platform]\n", "duplicate section");
}

TEST(SpecDiagnostics, DuplicateKey) {
  auto text = valid_text();
  const auto pos = text.find("umc_count = 12\n");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "umc_count = 12\n");
  expect_error(text, "duplicate key");
}

TEST(SpecDiagnostics, BadNumber) {
  auto text = valid_text();
  const auto pos = text.find("umc_count = 12");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("umc_count = 12").size(), "umc_count = twelve");
  expect_error(text, "umc_count");
}

TEST(SpecDiagnostics, MissingEquals) {
  expect_error("[platform]\nname EPYC\n", "expected 'key = value'");
}

TEST(SpecDiagnostics, KeyOutsideSection) {
  expect_error("name = EPYC\n", "before any [section]");
}

TEST(SpecDiagnostics, MissingRequiredKey) {
  auto text = valid_text();
  const auto pos = text.find("ccd_count");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 1, "#");  // comment the line out
  expect_error(text, "missing required key");
}

TEST(SpecDiagnostics, ErrorsCarrySourceAndLine) {
  // Line 1 comment, line 2 the bad section header.
  try {
    (void)spec::parse("# header\n[nope]\n", "bad.scn");
    FAIL() << "expected spec::Error";
  } catch (const spec::Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.scn:2"), std::string::npos) << e.what();
  }
}

TEST(SpecDiagnostics, UnknownBuiltinListsValidNames) {
  try {
    (void)spec::lookup("epyc404");
    FAIL() << "expected spec::Error";
  } catch (const spec::Error& e) {
    EXPECT_NE(std::string(e.what()).find("epyc9634"), std::string::npos) << e.what();
  }
}

TEST(SpecDiagnostics, LoadOfMissingFileThrows) {
  EXPECT_THROW((void)spec::load("/nonexistent/dir/nope.scn"), spec::Error);
}

// ---- validation ------------------------------------------------------------

TEST(SpecValidate, BuiltinsAreValid) {
  EXPECT_TRUE(spec::validate(topo::epyc7302()).empty());
  EXPECT_TRUE(spec::validate(topo::epyc9634()).empty());
}

TEST(SpecValidate, ZeroCcdCount) {
  auto p = topo::epyc9634();
  p.ccd_count = 0;
  const auto problems = spec::validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("ccd_count"), std::string::npos) << problems[0];
}

TEST(SpecValidate, WindowWithoutChannelCapacity) {
  auto p = topo::epyc9634();
  p.umc_read_bw = 0.0;
  const auto problems = spec::validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("umc_read_bw"), std::string::npos) << problems[0];
}

TEST(SpecValidate, CxlBandwidthWithoutPlink) {
  auto p = topo::epyc9634();
  p.plink_up_bw = 0.0;
  const auto problems = spec::validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("plink"), std::string::npos) << problems[0];
}

TEST(SpecValidate, CxlWindowsOnNonCxlPlatform) {
  auto p = topo::epyc7302();
  p.cxl_core_read_window = 8;
  EXPECT_FALSE(spec::validate(p).empty());
}

TEST(SpecValidate, PlatformCtorFailsFast) {
  auto p = topo::epyc9634();
  p.gmi_down_bw = 0.0;
  sim::Simulator simulator;
  EXPECT_THROW(topo::Platform(simulator, p), spec::Error);
}

// ---- registry / resolve ----------------------------------------------------

TEST(SpecRegistry, AliasesResolve) {
  EXPECT_TRUE(spec::is_builtin("epyc7302"));
  EXPECT_TRUE(spec::is_builtin("7302"));
  EXPECT_TRUE(spec::is_builtin("EPYC 9634"));
  EXPECT_TRUE(spec::is_builtin("epyc-9634"));
  EXPECT_FALSE(spec::is_builtin("epyc404"));
  EXPECT_EQ(spec::lookup("9634").name, "EPYC 9634");
}

TEST(SpecRegistry, ResolveTakesNamesAndPaths) {
  EXPECT_EQ(spec::resolve("epyc7302").name, "EPYC 7302");
  const std::string path = ::testing::TempDir() + "spec_resolve.scn";
  {
    std::ofstream out(path);
    out << spec::dump(topo::epyc7302());
  }
  EXPECT_EQ(spec::resolve(path).name, "EPYC 7302");
  std::remove(path.c_str());
  EXPECT_THROW((void)spec::resolve("no-such-platform"), spec::Error);
}

// ---- the committed what-if specs -------------------------------------------

TEST(SpecWhatIf, CommittedSpecsParseAndValidate) {
  const std::string dir = SCN_SPECS_DIR;
  const auto twice_gmi = spec::load(dir + "/epyc9634-2xgmi.scn");
  EXPECT_DOUBLE_EQ(twice_gmi.gmi_up_bw, 2.0 * topo::epyc9634().gmi_up_bw);

  const auto no_cxl = spec::load(dir + "/epyc9634-nocxl.scn");
  EXPECT_FALSE(no_cxl.has_cxl());

  const auto stretched = spec::load(dir + "/epyc9634-16ccd.scn");
  EXPECT_EQ(stretched.ccd_count, 16);
  EXPECT_EQ(stretched.umc_count, topo::epyc9634().umc_count);
}

}  // namespace
