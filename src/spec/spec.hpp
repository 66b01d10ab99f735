// Declarative platform specs: platforms as data, not code (paper §4's
// hardware-abstracted device tree, applied to the simulator's own inputs).
//
// A `.scn` platform file carries the hardware sections of the platform
// schema ([platform], [structure], [latency], [window], [bandwidth],
// [noise], [model]) and may also carry the policy sections [gtm],
// [arrivals] and [tier], which the GTM and tier schemas own
// (cluster::load_platform_file reads all of them from one pass over the
// text). Every PlatformParams field is one row of the platform schema
// (spec::platform_schema(), a spec::Schema driven by the shared engine in
// spec/schema.hpp), which backs parse, dump and diff. Tick-typed fields are
// written in nanoseconds; bandwidths in bytes/ns (== GB/s). The two
// characterized processors are themselves spec texts embedded in this
// library (spec::lookup), so `topo::epyc9634()` and
// `spec::load("epyc9634.scn")` flow through the exact same parser, and
// dump -> parse round-trips bit-identically (proven by tests/test_spec.cpp
// and the golden CI step).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "spec/schema.hpp"
#include "topo/params.hpp"

namespace scn::spec {

/// The platform schema: every PlatformParams field, in canonical (dump)
/// order.
[[nodiscard]] const Schema<topo::PlatformParams>& platform_schema();

/// True for the sections the GTM ([gtm], [arrivals]) and tier ([tier])
/// schemas own. Platform and cluster files may both carry them; the platform
/// parser leaves them to gtm::parse_gtm / tier::parse_tier.
[[nodiscard]] bool is_policy_section(std::string_view section);

// ---- parse / dump ---------------------------------------------------------

/// Parse spec text into parameters. `source` names the origin for
/// diagnostics ("file.scn:12: ..."). Runs validate() on the result.
/// Throws spec::Error.
[[nodiscard]] topo::PlatformParams parse(std::string_view text,
                                         const std::string& source = "<spec>");

/// Parse the platform sections of a tokenized file; rejects sections that
/// are neither platform nor policy sections. Runs validate() on the result.
[[nodiscard]] topo::PlatformParams parse(const Document& doc);

/// Read and parse a `.scn` file. Throws spec::Error.
[[nodiscard]] topo::PlatformParams load(const std::string& path);

/// Serialize parameters to canonical spec text. dump -> parse is the
/// identity on every field (bit-identical doubles and ticks).
[[nodiscard]] std::string dump(const topo::PlatformParams& params);

// ---- validation -----------------------------------------------------------

/// Semantic checks turning silent misconfiguration into actionable errors:
/// zero structure counts, source windows without channel capacities, CXL
/// bandwidth without a P-Link, out-of-range probabilities/factors. Returns
/// one message per problem; empty means valid.
[[nodiscard]] std::vector<std::string> validate(const topo::PlatformParams& params);

/// Throws spec::Error listing every validation failure, prefixed with
/// `context` (a file name or "Platform ctor"). No-op when valid.
void validate_or_throw(const topo::PlatformParams& params, const std::string& context);

// ---- registry of built-in platforms ---------------------------------------

/// Canonical built-in names, e.g. {"epyc7302", "epyc9634"}.
[[nodiscard]] std::vector<std::string> builtin_names();

/// True when `name` resolves to a built-in (aliases like "7302" and the
/// marketing name "EPYC 9634" are accepted, case-insensitively).
[[nodiscard]] bool is_builtin(const std::string& name);

/// Parameters for a built-in platform. Throws spec::Error on unknown names,
/// listing the valid ones.
[[nodiscard]] topo::PlatformParams lookup(const std::string& name);

/// The embedded spec text a built-in is defined by (the single source of
/// the platform's numbers). Throws spec::Error on unknown names.
[[nodiscard]] const std::string& builtin_text(const std::string& name);

/// Resolve a `--platform` argument: a built-in name, else a path to a
/// `.scn` file. Throws spec::Error.
[[nodiscard]] topo::PlatformParams resolve(const std::string& name_or_path);

/// The spec text behind a `--platform` argument: a built-in's embedded text,
/// else the file's contents. Throws spec::Error listing the built-ins when
/// the argument is neither.
[[nodiscard]] std::string resolve_text(const std::string& name_or_path);

// ---- diff -----------------------------------------------------------------

/// Field-by-field comparison via the schema; returns one
/// "[section] key: <a> != <b>" line per differing field. Empty means the
/// two parameter sets are field-equal (exact, bit-level for doubles).
[[nodiscard]] std::vector<std::string> diff(const topo::PlatformParams& a,
                                            const topo::PlatformParams& b);

}  // namespace scn::spec
