// Spec files as data: the two file kinds and the sections each may carry.
//
// A `.scn` platform file carries the hardware sections of the platform
// schema (spec/spec.hpp) plus, optionally, [gtm], [arrivals] and [tier].
// A `.scnc` cluster file names the member servers (builtin platform names or
// paths to .scn files, resolved relative to the spec's directory) and the
// inter-server ingress link, and may carry the same optional sections:
//
//   # comment (full line only)
//   [cluster]
//   servers = epyc9634 epyc9634 epyc7302.scn
//   link_latency_ns = 800
//   link_bytes_per_ns = 12.5
//   request_bytes = 512
//   placement = gmi-local
//
// In a cluster file, [gtm]/[arrivals] configure the queue discipline,
// admission control, hedging and front-end arrival schedule for every server
// in the rack, and [tier] configures the tiered-memory subsystem on every
// CXL-equipped member. Each file is tokenized once (spec::tokenize) and every
// section goes to the schema that owns it; all four schemas (platform, GTM,
// tier, cluster) are tables of the one spec::Schema engine, which backs
// parse, dump and diff. Tick-valued keys are nanoseconds and bandwidths
// bytes/ns (GB/s). Malformed input throws spec::Error with file:line
// context.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "gtm/spec.hpp"
#include "spec/spec.hpp"
#include "tier/spec.hpp"

namespace scn::cluster {

struct ClusterSpec {
  std::vector<topo::PlatformParams> servers;
  /// The raw server tokens as written (builtin names / .scn paths), kept so
  /// dump_cluster can round-trip the spec without inventing file names.
  std::vector<std::string> server_tokens;
  LinkConfig link;
  /// Front-end load-balancing policy the rack's global traffic manager uses
  /// to pick a server per request: the serve::parse_policy vocabulary
  /// ("round-robin", "gmi-local", "telemetry"). Benchmarks let the CLI
  /// `--placement` flag override whatever the spec says.
  std::string placement = "gmi-local";
  /// GTM + arrivals sections; defaults (FIFO, no admission, no hedging,
  /// Poisson) when the spec omits them.
  gtm::GtmParams gtm;
  /// [tier] section; defaults (mode = off) when the spec omits it.
  tier::TierParams tier;
};

/// Semantic checks (vocabulary and ranges); empty means valid. parse_cluster
/// runs this on every result, so a loadable spec is always a valid one.
[[nodiscard]] std::vector<std::string> validate_cluster(const ClusterSpec& spec);

/// Parse cluster spec text. `source` names the origin for diagnostics;
/// `base_dir` anchors relative server spec paths (empty = cwd).
[[nodiscard]] ClusterSpec parse_cluster(std::string_view text, const std::string& source,
                                        const std::string& base_dir = "");

/// Read and parse a `.scnc` file; server paths resolve relative to it.
[[nodiscard]] ClusterSpec load_cluster(const std::string& path);

/// Canonical text form: [cluster] followed by the GTM and tier sections.
/// Parsing the dump yields an equal spec (assuming the server tokens still
/// resolve).
[[nodiscard]] std::string dump_cluster(const ClusterSpec& spec);

/// Human-readable field-by-field differences ("[section] key: a != b"),
/// empty when the specs match.
[[nodiscard]] std::vector<std::string> diff_cluster(const ClusterSpec& a, const ClusterSpec& b);

/// A `.scn` platform file read once: its hardware and the policy and
/// tiering sections it may carry. A builtin platform carries the defaults.
struct PlatformFile {
  topo::PlatformParams platform;
  gtm::GtmParams gtm;
  tier::TierParams tier;
};

/// Parse platform file text; each section goes to the schema that owns it.
[[nodiscard]] PlatformFile parse_platform_file(std::string_view text, const std::string& source);

/// A builtin platform name or a `.scn` path (spec::resolve rules).
[[nodiscard]] PlatformFile load_platform_file(const std::string& name_or_path);

/// Canonical text: the platform dump, then the [gtm]/[arrivals] and [tier]
/// sections when they differ from the defaults (a default section changes
/// nothing, so leaving it out keeps builtin dumps unchanged).
[[nodiscard]] std::string dump_platform_file(const PlatformFile& file);

/// Field-by-field differences across all three param sets.
[[nodiscard]] std::vector<std::string> diff_platform_file(const PlatformFile& a,
                                                          const PlatformFile& b);

}  // namespace scn::cluster
