// Shared CLI layer for every bench and example binary.
//
// Replaces the ad-hoc parse_jobs/parse_flag scattered across main()s with
// one parser that knows the three cross-cutting flags:
//
//   --jobs N                 sweep worker threads (0/default: all cores)
//   --quick                  reduced golden-test configuration
//   --platform <name|file>   a builtin (epyc7302/epyc9634) or a .scn spec
//   --seed S                 base RNG seed (full u64) for binaries that take one
//   --fastforward <on|off>   analytic steady-state batch-advance (default off:
//                            strict mode, bit-identical to the golden engine)
//   --placement P            per-server worker placement (round-robin,
//                            gmi-local, telemetry)
//   --discipline D           GTM worker-queue order (fifo, priority, edf)
//   --admission A            GTM admission control (none, token-bucket)
//   --hedge-pct X            GTM hedge percentile in [0, 100); 0 disables
//   --tier <off|track|migrate>  tiered-memory subsystem mode
//   --tier-spec FILE         read a [tier] section from a spec file
//
// plus per-binary flags registered by the caller. Malformed numbers and
// unknown flags are hard errors: usage on stderr and exit(2) — never a
// silent fallback to a default (the old std::atoi path mapped `--jobs abc`
// to the hardware default).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/spec.hpp"
#include "exec/sweep.hpp"
#include "gtm/policy.hpp"
#include "serve/placement.hpp"
#include "topo/params.hpp"

namespace scn::bench {

class Options {
 public:
  explicit Options(const char* prog, const char* tagline = "")
      : prog_(prog), tagline_(tagline) {}

  /// Register a boolean flag (`--name`).
  Options& flag(const char* name, bool* out, const char* help) {
    specs_.push_back({name, Spec::kBool, out, nullptr, nullptr, help});
    return *this;
  }

  /// Register an integer flag (`--name N` or `--name=N`).
  Options& value_int(const char* name, int* out, const char* help) {
    specs_.push_back({name, Spec::kInt, nullptr, out, nullptr, help});
    return *this;
  }

  /// Register a string flag (`--name V` or `--name=V`).
  Options& value(const char* name, std::string* out, const char* help) {
    specs_.push_back({name, Spec::kString, nullptr, nullptr, out, help});
    return *this;
  }

  /// Accept bare (non `--`) arguments; the handler returns false to reject.
  Options& positional(std::function<bool(const std::string&)> handler, const char* help) {
    positional_ = std::move(handler);
    positional_help_ = help;
    return *this;
  }

  void parse(int argc, char** argv) {
    int requested_jobs = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        std::exit(0);
      }
      if (arg == "--quick") {
        quick_ = true;
        continue;
      }
      if (consume_valued(arg, "--jobs", argc, argv, i, [&](const std::string& v) {
            requested_jobs = parse_int(v, "--jobs");
          })) {
        continue;
      }
      if (consume_valued(arg, "--platform", argc, argv, i, [&](const std::string& v) {
            platform_arg_ = v;
          })) {
        continue;
      }
      if (consume_valued(arg, "--seed", argc, argv, i, [&](const std::string& v) {
            seed_ = parse_u64(v, "--seed");
          })) {
        continue;
      }
      if (consume_valued(arg, "--placement", argc, argv, i, [&](const std::string& v) {
            const auto p = serve::parse_policy(v);
            if (!p) {
              die(std::string("flag '--placement': bad value '") + v +
                  "' (want round-robin|gmi-local|telemetry)");
            }
            placement_ = *p;
          })) {
        continue;
      }
      if (consume_valued(arg, "--discipline", argc, argv, i, [&](const std::string& v) {
            const auto d = gtm::parse_discipline(v);
            if (!d) {
              die(std::string("flag '--discipline': bad value '") + v +
                  "' (want fifo|priority|edf)");
            }
            discipline_ = *d;
          })) {
        continue;
      }
      if (consume_valued(arg, "--admission", argc, argv, i, [&](const std::string& v) {
            const auto m = gtm::parse_admission_mode(v);
            if (!m) {
              die(std::string("flag '--admission': bad value '") + v +
                  "' (want none|token-bucket)");
            }
            admission_ = *m;
          })) {
        continue;
      }
      if (consume_valued(arg, "--hedge-pct", argc, argv, i, [&](const std::string& v) {
            const auto pct = spec::to_finite(v);
            if (!pct || *pct < 0.0 || *pct >= 100.0) {
              die(std::string("flag '--hedge-pct': bad value '") + v + "' (want [0, 100))");
            }
            hedge_pct_ = *pct;
          })) {
        continue;
      }
      if (consume_valued(arg, "--tier", argc, argv, i, [&](const std::string& v) {
            const auto m = tier::parse_mode(v);
            if (!m) {
              die(std::string("flag '--tier': bad value '") + v +
                  "' (want off|track|migrate)");
            }
            tier_mode_ = *m;
          })) {
        continue;
      }
      if (consume_valued(arg, "--tier-spec", argc, argv, i, [&](const std::string& v) {
            try {
              tier_params_ = tier::parse_tier(spec::read_file(v), v);
            } catch (const spec::Error& e) {
              die(std::string("--tier-spec: ") + e.what());
            }
          })) {
        continue;
      }
      if (consume_valued(arg, "--fastforward", argc, argv, i, [&](const std::string& v) {
            // Strict on/off vocabulary: anything else is a hard error, never
            // a silent default — an accuracy A/B must not quietly run the
            // wrong engine.
            if (v == "on") {
              fastforward_ = true;
            } else if (v == "off") {
              fastforward_ = false;
            } else {
              die(std::string("flag '--fastforward': bad value '") + v + "' (want on|off)");
            }
          })) {
        continue;
      }
      bool matched = false;
      for (const auto& s : specs_) {
        if (s.kind == Spec::kBool) {
          if (arg == s.name) {
            *s.b = true;
            matched = true;
            break;
          }
          continue;
        }
        if (consume_valued(arg, s.name, argc, argv, i, [&](const std::string& v) {
              if (s.kind == Spec::kInt) {
                *s.i = parse_int(v, s.name);
              } else {
                *s.str = v;
              }
            })) {
          matched = true;
          break;
        }
      }
      if (matched) continue;
      if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') die("unknown flag '" + arg + "'");
      if (positional_ && positional_(arg)) continue;
      die("unexpected argument '" + arg + "'");
    }
    jobs_ = exec::resolve_jobs(requested_jobs);
    if (!platform_arg_.empty()) {
      try {
        platform_ = cluster::load_platform_file(platform_arg_);
      } catch (const spec::Error& e) {
        die(std::string("--platform: ") + e.what());
      }
    }
  }

  // ---- cross-cutting flags -------------------------------------------------
  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] bool has_seed() const { return seed_.has_value(); }
  /// The `--seed` value; `fallback` (the binary's historical hard-coded
  /// seed) when absent, so default output stays byte-identical.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed_ ? *seed_ : fallback;
  }
  /// Analytic steady-state fast-forwarding (stream sweeps honour it; other
  /// harnesses accept the flag for uniform A/B scripting and ignore it).
  [[nodiscard]] bool fastforward() const { return fastforward_; }
  [[nodiscard]] bool has_platform() const { return platform_.has_value(); }
  [[nodiscard]] const std::string& platform_arg() const { return platform_arg_; }
  /// The `--platform` file: hardware plus its [gtm]/[arrivals] and [tier]
  /// sections, read in one pass (default sections for builtins or no flag).
  [[nodiscard]] cluster::PlatformFile platform_file() const {
    return platform_.value_or(cluster::PlatformFile{});
  }

  // ---- GTM / placement flags ----------------------------------------------
  [[nodiscard]] bool has_placement() const { return placement_.has_value(); }
  /// The `--placement` policy; `fallback` (the binary's historical default)
  /// when absent.
  [[nodiscard]] serve::Policy placement_or(serve::Policy fallback) const {
    return placement_ ? *placement_ : fallback;
  }
  /// True when any of --discipline/--admission/--hedge-pct was given.
  [[nodiscard]] bool has_gtm() const {
    return discipline_.has_value() || admission_.has_value() || hedge_pct_.has_value();
  }
  /// `base` with the CLI GTM overrides applied on top. Pass a spec-derived
  /// bundle to get flag-over-file precedence; pass {} for flags-only.
  [[nodiscard]] gtm::TrafficPolicy gtm_or(gtm::TrafficPolicy base = {}) const {
    if (discipline_) base.discipline = *discipline_;
    if (admission_) base.admission.mode = *admission_;
    if (hedge_pct_) base.hedge.pct = *hedge_pct_;
    return base;
  }

  // ---- tiered-memory flags ------------------------------------------------
  /// True when --tier or --tier-spec was given.
  [[nodiscard]] bool has_tier() const {
    return tier_mode_.has_value() || tier_params_.has_value();
  }
  /// `base` with the CLI tier overrides applied on top: --tier-spec replaces
  /// the whole bundle, then --tier overrides the mode (flag-over-file
  /// precedence, like gtm_or). Pass a spec-derived config to compose with a
  /// platform file's own [tier] section; pass {} for flags-only.
  [[nodiscard]] tier::TierConfig tier_or(tier::TierConfig base = {}) const {
    if (tier_params_) base = tier::to_config(*tier_params_);
    if (tier_mode_) base.mode = *tier_mode_;
    return base;
  }

  /// The `--platform` parameters; `default_name` (a builtin) when absent.
  [[nodiscard]] topo::PlatformParams platform_or(const char* default_name) const {
    return platform_ ? platform_->platform : spec::lookup(default_name);
  }

  /// The platform set a comparison binary should run: the `--platform`
  /// override alone, or both characterized builtins.
  [[nodiscard]] std::vector<topo::PlatformParams> platforms() const {
    if (platform_) return {platform_->platform};
    return {spec::lookup("epyc7302"), spec::lookup("epyc9634")};
  }

  [[noreturn]] void die(const std::string& msg) const {
    std::fprintf(stderr, "%s: %s\n", prog_, msg.c_str());
    print_usage(stderr);
    std::exit(2);
  }

 private:
  struct Spec {
    enum Kind { kBool, kInt, kString };
    const char* name;
    Kind kind;
    bool* b;
    int* i;
    std::string* str;
    const char* help;
  };

  /// Handle `--name V` and `--name=V`; advances `i` for the split form.
  template <typename Fn>
  bool consume_valued(const std::string& arg, const char* name, int argc, char** argv, int& i,
                      Fn&& apply) const {
    const std::size_t n = std::strlen(name);
    if (arg == name) {
      if (i + 1 >= argc) die(std::string("flag '") + name + "' needs a value");
      apply(std::string(argv[++i]));
      return true;
    }
    if (arg.size() > n + 1 && arg.compare(0, n, name) == 0 && arg[n] == '=') {
      apply(arg.substr(n + 1));
      return true;
    }
    return false;
  }

  /// strtol with a full-consumption check: `abc`, `3x` and overflow are
  /// errors, not silently 0.
  [[nodiscard]] int parse_int(const std::string& v, const char* name) const {
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE || parsed < 0 || parsed > 1 << 20) {
      die(std::string("flag '") + name + "': bad value '" + v + "'");
    }
    return static_cast<int>(parsed);
  }

  /// strtoull with the same rigor: full consumption, no sign (strtoull would
  /// silently wrap `-1` to 2^64-1), overflow is an error. Any u64 is a valid
  /// seed, so there is no range cap beyond the type's.
  [[nodiscard]] std::uint64_t parse_u64(const std::string& v, const char* name) const {
    errno = 0;
    char* end = nullptr;
    if (v.empty() || v[0] == '-' || v[0] == '+') {
      die(std::string("flag '") + name + "': bad value '" + v + "'");
    }
    const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
      die(std::string("flag '") + name + "': bad value '" + v + "'");
    }
    return static_cast<std::uint64_t>(parsed);
  }

  void print_usage(std::FILE* out) const {
    std::fprintf(out,
                 "usage: %s [--jobs N] [--quick] [--platform <name|file.scn>] [--seed S]"
                 " [--fastforward on|off] [--placement P] [--discipline D] [--admission A]"
                 " [--hedge-pct X] [--tier M] [--tier-spec FILE]",
                 prog_);
    for (const auto& s : specs_) {
      std::fprintf(out, " [%s%s]", s.name, s.kind == Spec::kBool ? "" : " V");
    }
    if (positional_help_ != nullptr) std::fprintf(out, " %s", positional_help_);
    std::fprintf(out, "\n");
    if (tagline_ != nullptr && tagline_[0] != '\0') std::fprintf(out, "  %s\n", tagline_);
    std::fprintf(out, "  --jobs N       sweep worker threads (0/default: all cores)\n");
    std::fprintf(out, "  --quick        reduced golden-test configuration\n");
    std::fprintf(out,
                 "  --platform P   builtin platform name (epyc7302, epyc9634) or .scn spec file\n");
    std::fprintf(out, "  --seed S       base RNG seed, unsigned 64-bit (default: per-binary)\n");
    std::fprintf(out,
                 "  --fastforward  on|off: analytic steady-state batch-advance "
                 "(default off = strict)\n");
    std::fprintf(out,
                 "  --placement P  worker placement: round-robin|gmi-local|telemetry\n");
    std::fprintf(out, "  --discipline D GTM queue order: fifo|priority|edf\n");
    std::fprintf(out, "  --admission A  GTM admission control: none|token-bucket\n");
    std::fprintf(out,
                 "  --hedge-pct X  GTM hedge percentile in [0, 100); 0 disables hedging\n");
    std::fprintf(out, "  --tier M       tiered memory: off|track|migrate (default off)\n");
    std::fprintf(out,
                 "  --tier-spec F  read [tier] parameters from a spec file (--tier overrides "
                 "its mode)\n");
    for (const auto& s : specs_) {
      std::fprintf(out, "  %-14s %s\n", s.name, s.help);
    }
  }

  const char* prog_;
  const char* tagline_;
  std::vector<Spec> specs_;
  std::function<bool(const std::string&)> positional_;
  const char* positional_help_ = nullptr;

  bool quick_ = false;
  bool fastforward_ = false;
  int jobs_ = 1;
  std::optional<serve::Policy> placement_;
  std::optional<gtm::Discipline> discipline_;
  std::optional<gtm::AdmissionMode> admission_;
  std::optional<double> hedge_pct_;
  std::optional<std::uint64_t> seed_;
  std::optional<tier::Mode> tier_mode_;
  std::optional<tier::TierParams> tier_params_;
  std::string platform_arg_;
  std::optional<cluster::PlatformFile> platform_;
};

}  // namespace scn::bench
