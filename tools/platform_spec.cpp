// platform_spec — the .scn / .scnc spec toolbox:
//
//   platform_spec list                      the builtin platform names
//   platform_spec dump <name|file> [out]    canonical spec text (stdout or out)
//   platform_spec validate <name|file>...   parse + validate, report per input
//   platform_spec diff <a> <b>              field-level diff of two specs
//
// Arguments ending in `.scnc` are cluster files (rack composition, link,
// GTM and tier sections); everything else is a builtin name or a platform
// file (hardware plus optional GTM and tier sections). Every command reads
// all sections a file carries. `diff` requires both sides to be the same
// file kind.
//
// `dump` emits the canonical form: dump(parse(dump(x))) == dump(x), which is
// what the round-trip golden test in CI relies on.
#include <cstdio>
#include <fstream>
#include <string>

#include "cluster/spec.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s dump <name|file.scn|file.scnc> [out]\n"
               "       %s validate <name|file.scn|file.scnc>...\n"
               "       %s diff <a> <b>   (both .scnc, or both platform specs)\n",
               prog, prog, prog, prog);
  return 2;
}

bool is_cluster_path(const std::string& s) {
  return s.size() >= 5 && s.compare(s.size() - 5, 5, ".scnc") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scn;
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];

  if (cmd == "list") {
    if (argc != 2) return usage(argv[0]);
    for (const auto& name : spec::builtin_names()) {
      const auto p = spec::lookup(name);
      std::printf("%-12s %s (%s, %d compute chiplets, %d cores)\n", name.c_str(), p.name.c_str(),
                  p.microarchitecture.c_str(), p.ccd_count, p.total_cores());
    }
    return 0;
  }

  if (cmd == "dump") {
    if (argc != 3 && argc != 4) return usage(argv[0]);
    try {
      const std::string arg = argv[2];
      const auto text = is_cluster_path(arg)
                            ? cluster::dump_cluster(cluster::load_cluster(arg))
                            : cluster::dump_platform_file(cluster::load_platform_file(arg));
      if (argc == 4) {
        std::ofstream out(argv[3]);
        if (!out) {
          std::fprintf(stderr, "platform_spec: cannot write '%s'\n", argv[3]);
          return 1;
        }
        out << text;
      } else {
        std::fputs(text.c_str(), stdout);
      }
    } catch (const spec::Error& e) {
      std::fprintf(stderr, "platform_spec: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  if (cmd == "diff") {
    // git-diff-style exit codes: 0 identical, 1 differs, 2 usage/parse error.
    if (argc != 4) return usage(argv[0]);
    const bool a_cluster = is_cluster_path(argv[2]);
    const bool b_cluster = is_cluster_path(argv[3]);
    if (a_cluster != b_cluster) {
      std::fprintf(stderr, "platform_spec: cannot diff a cluster spec against a platform spec\n");
      return 2;
    }
    try {
      const auto lines = a_cluster
                             ? cluster::diff_cluster(cluster::load_cluster(argv[2]),
                                                     cluster::load_cluster(argv[3]))
                             : cluster::diff_platform_file(cluster::load_platform_file(argv[2]),
                                                           cluster::load_platform_file(argv[3]));
      for (const auto& line : lines) std::printf("%s\n", line.c_str());
      return lines.empty() ? 0 : 1;
    } catch (const spec::Error& e) {
      std::fprintf(stderr, "platform_spec: %s\n", e.what());
      return 2;
    }
  }

  if (cmd == "validate") {
    if (argc < 3) return usage(argv[0]);
    int failures = 0;
    for (int i = 2; i < argc; ++i) {
      try {
        if (is_cluster_path(argv[i])) {
          const auto cs = cluster::load_cluster(argv[i]);
          std::printf("%s: OK (%d servers)\n", argv[i], static_cast<int>(cs.servers.size()));
        } else {
          const auto file = cluster::load_platform_file(argv[i]);
          std::printf("%s: OK (%s)\n", argv[i], file.platform.name.c_str());
        }
      } catch (const spec::Error& e) {
        std::printf("%s: FAIL\n  %s\n", argv[i], e.what());
        ++failures;
      }
    }
    return failures == 0 ? 0 : 1;
  }

  return usage(argv[0]);
}
