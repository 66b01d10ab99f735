#include "cluster/spec.hpp"

#include "serve/placement.hpp"

namespace scn::cluster {
namespace {

const spec::Schema<ClusterSpec>& cluster_schema() {
  // The link fields live inside the nested LinkConfig, so they bind through
  // functions rather than member pointers.
  static const spec::Schema<ClusterSpec> schema({
      {"cluster", "servers", "builtin platform names or .scn paths, one token per server", true,
       spec::at<&ClusterSpec::server_tokens>},
      {"cluster", "link_latency_ns", "inter-server ingress link: one-way propagation delay",
       false, +[](ClusterSpec& s) -> spec::Slot { return &s.link.latency; }},
      {"cluster", "link_bytes_per_ns", "NIC serialization bandwidth; <= 0 disables serialization",
       false, +[](ClusterSpec& s) -> spec::Slot { return &s.link.bytes_per_ns; }},
      {"cluster", "request_bytes", "on-wire size of one forwarded request", false,
       +[](ClusterSpec& s) -> spec::Slot { return &s.link.request_bytes; }},
      {"cluster", "placement",
       "front-end policy: round-robin | gmi-local | telemetry (CLI --placement overrides)", false,
       spec::at<&ClusterSpec::placement>},
  });
  return schema;
}

/// A server token is a builtin platform name or a .scn path; relative paths
/// anchor at the cluster spec's own directory so a spec can sit next to the
/// platform files it composes.
[[nodiscard]] topo::PlatformParams resolve_server(const std::string& token,
                                                  const std::string& base_dir) {
  const bool relative = !spec::is_builtin(token) && !base_dir.empty() && token.front() != '/';
  return spec::resolve(relative ? base_dir + "/" + token : token);
}

template <class T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

std::vector<std::string> validate_cluster(const ClusterSpec& spec) {
  std::vector<std::string> out;
  if (spec.link.latency < 0) {
    out.push_back("[cluster] link_latency_ns must be >= 0");
  }
  if (spec.link.request_bytes < 0.0) {
    out.push_back("[cluster] request_bytes must be >= 0");
  }
  if (!serve::parse_policy(spec.placement)) {
    out.push_back("[cluster] placement: unknown policy '" + spec.placement +
                  "' (want round-robin, gmi-local, or telemetry)");
  }
  return out;
}

ClusterSpec parse_cluster(std::string_view text, const std::string& source,
                          const std::string& base_dir) {
  const spec::Document doc = spec::tokenize(text, source);
  doc.check_sections(
      [](std::string_view s) { return s == "cluster" || spec::is_policy_section(s); });
  ClusterSpec out;
  cluster_schema().read(doc, out);

  // read() succeeded, so [cluster] and its required `servers` key exist.
  int line = 0;
  for (const spec::Entry& e : doc.find("cluster")->entries) {
    if (e.key == "servers") line = e.line;
  }
  if (out.server_tokens.empty()) doc.fail(line, "no servers listed");
  for (const auto& token : out.server_tokens) {
    try {
      out.servers.push_back(resolve_server(token, base_dir));
    } catch (const spec::Error& e) {
      doc.fail(line, "server '" + token + "': " + e.what());
    }
  }
  out.gtm = gtm::parse_gtm(doc);
  out.tier = tier::parse_tier(doc);
  spec::throw_if_invalid(validate_cluster(out), source, "cluster");
  return out;
}

ClusterSpec load_cluster(const std::string& path) {
  return parse_cluster(spec::read_file(path), path, spec::dir_of(path));
}

std::string dump_cluster(const ClusterSpec& spec) {
  return cluster_schema().dump(spec) + "\n" + gtm::dump_gtm(spec.gtm) + "\n" +
         tier::dump_tier(spec.tier);
}

std::vector<std::string> diff_cluster(const ClusterSpec& a, const ClusterSpec& b) {
  auto out = cluster_schema().diff(a, b);
  append(out, gtm::diff_gtm(a.gtm, b.gtm));
  append(out, tier::diff_tier(a.tier, b.tier));
  return out;
}

PlatformFile parse_platform_file(std::string_view text, const std::string& source) {
  const spec::Document doc = spec::tokenize(text, source);
  return {spec::parse(doc), gtm::parse_gtm(doc), tier::parse_tier(doc)};
}

PlatformFile load_platform_file(const std::string& name_or_path) {
  return parse_platform_file(spec::resolve_text(name_or_path), name_or_path);
}

std::string dump_platform_file(const PlatformFile& file) {
  std::string out = spec::dump(file.platform);
  // Appended: "\n" + dump trips a g++ 12 -Wrestrict false positive.
  if (file.gtm != gtm::GtmParams{}) {
    out += "\n";
    out += gtm::dump_gtm(file.gtm);
  }
  if (file.tier != tier::TierParams{}) {
    out += "\n";
    out += tier::dump_tier(file.tier);
  }
  return out;
}

std::vector<std::string> diff_platform_file(const PlatformFile& a, const PlatformFile& b) {
  auto out = spec::diff(a.platform, b.platform);
  append(out, gtm::diff_gtm(a.gtm, b.gtm));
  append(out, tier::diff_tier(a.tier, b.tier));
  return out;
}

}  // namespace scn::cluster
