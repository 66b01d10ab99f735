#include "gtm/spec.hpp"

#include <fstream>
#include <optional>

namespace scn::gtm {
namespace {

const spec::Schema<GtmParams>& gtm_schema() {
  using G = GtmParams;
  using spec::at;
  static const spec::Schema<G> schema({
      {"gtm", "discipline", "worker queue order: fifo | priority | edf", false,
       at<&G::discipline>},
      {"gtm", "admission", "none | token-bucket", false, at<&G::admission>},
      {"gtm", "admission_rate_per_us", "total admitted load, split across classes by weight",
       false, at<&G::admission_rate_per_us>},
      {"gtm", "admission_burst", "token bucket depth in requests", false,
       at<&G::admission_burst>},
      {"gtm", "admission_max_queue", "reject above this many outstanding requests (0 = off)",
       false, at<&G::admission_max_queue>},
      {"gtm", "hedge_pct", "duplicate to another CCD past this completion percentile (0 = off)",
       false, at<&G::hedge_pct>},
      {"gtm", "hedge_min_samples", "hedge at the class SLO until this many completions observed",
       false, at<&G::hedge_min_samples>},
      {"arrivals", "kind", "poisson | deterministic | mmpp | diurnal | trace", false,
       at<&G::arrival_kind>},
      {"arrivals", "rate_per_us", "mean offered load (sweeps override per grid point)", false,
       at<&G::rate_per_us>},
      {"arrivals", "burst_factor", "MMPP burst-phase rate factor", false, at<&G::burst_factor>},
      {"arrivals", "calm_factor", "MMPP calm-phase rate factor", false, at<&G::calm_factor>},
      {"arrivals", "mean_sojourn_ns", "MMPP mean phase dwell", false, at<&G::mean_sojourn>},
      {"arrivals", "diurnal_period_us", "one full day/night rate cycle", false,
       at<&G::diurnal_period_us>},
      {"arrivals", "diurnal_amplitude", "peak rate swing, fraction of mean (in [0, 1))", false,
       at<&G::diurnal_amplitude>},
      {"arrivals", "diurnal_phases", "piecewise-constant segments per cycle", false,
       at<&G::diurnal_phases>},
      {"arrivals", "trace_file", "kind = trace: arrival timestamps (ns), one per line", false,
       at<&G::trace_file>},
  });
  return schema;
}

std::optional<ArrivalKind> parse_arrival_kind(const std::string& word) {
  for (const ArrivalKind k : {ArrivalKind::kPoisson, ArrivalKind::kDeterministic,
                              ArrivalKind::kMmpp, ArrivalKind::kDiurnal, ArrivalKind::kTrace}) {
    if (word == to_string(k)) return k;
  }
  return std::nullopt;
}

}  // namespace

GtmParams parse_gtm(const spec::Document& doc) {
  GtmParams p;
  gtm_schema().read(doc, p);
  spec::throw_if_invalid(validate_gtm(p), doc.source, "GTM");
  return p;
}

GtmParams parse_gtm(std::string_view text, const std::string& source) {
  return parse_gtm(spec::tokenize(text, source));
}

std::string dump_gtm(const GtmParams& params) { return gtm_schema().dump(params); }

std::vector<std::string> validate_gtm(const GtmParams& p) {
  std::vector<std::string> errors;
  auto check = [&errors](bool ok, const std::string& msg) {
    if (!ok) errors.push_back(msg);
  };

  check(parse_discipline(p.discipline).has_value(),
        "[gtm] discipline: unknown value '" + p.discipline + "' (fifo | priority | edf)");
  check(parse_admission_mode(p.admission).has_value(),
        "[gtm] admission: unknown value '" + p.admission + "' (none | token-bucket)");
  check(p.admission_rate_per_us > 0.0, "[gtm] admission_rate_per_us: must be > 0");
  check(p.admission_burst >= 1.0, "[gtm] admission_burst: must be >= 1");
  check(p.admission_max_queue >= 0, "[gtm] admission_max_queue: must be >= 0");
  check(p.hedge_pct >= 0.0 && p.hedge_pct < 100.0, "[gtm] hedge_pct: must be in [0, 100)");
  check(p.hedge_min_samples >= 1, "[gtm] hedge_min_samples: must be >= 1");

  const auto kind = parse_arrival_kind(p.arrival_kind);
  check(kind.has_value(), "[arrivals] kind: unknown value '" + p.arrival_kind +
                              "' (poisson | deterministic | mmpp | diurnal | trace)");
  check(p.rate_per_us > 0.0, "[arrivals] rate_per_us: must be > 0");
  check(p.burst_factor > 0.0, "[arrivals] burst_factor: must be > 0");
  check(p.calm_factor > 0.0, "[arrivals] calm_factor: must be > 0");
  check(p.mean_sojourn > 0, "[arrivals] mean_sojourn_ns: must be > 0");
  check(p.diurnal_period_us > 0.0, "[arrivals] diurnal_period_us: must be > 0");
  check(p.diurnal_amplitude >= 0.0 && p.diurnal_amplitude < 1.0,
        "[arrivals] diurnal_amplitude: must be in [0, 1)");
  check(p.diurnal_phases >= 2, "[arrivals] diurnal_phases: must be >= 2");
  if (kind == ArrivalKind::kTrace) {
    check(!p.trace_file.empty(), "[arrivals] trace_file: required when kind = trace");
  }
  return errors;
}

std::vector<std::string> diff_gtm(const GtmParams& a, const GtmParams& b) {
  return gtm_schema().diff(a, b);
}

TrafficPolicy to_policy(const GtmParams& p) {
  TrafficPolicy policy;
  const auto d = parse_discipline(p.discipline);
  if (!d) throw spec::Error("[gtm] discipline: unknown value '" + p.discipline + "'");
  policy.discipline = *d;
  const auto m = parse_admission_mode(p.admission);
  if (!m) throw spec::Error("[gtm] admission: unknown value '" + p.admission + "'");
  policy.admission.mode = *m;
  policy.admission.rate_per_us = p.admission_rate_per_us;
  policy.admission.burst = p.admission_burst;
  policy.admission.max_queue = p.admission_max_queue;
  policy.hedge.pct = p.hedge_pct;
  policy.hedge.min_samples = p.hedge_min_samples;
  return policy;
}

ArrivalConfig to_arrival(const GtmParams& p, const std::string& base_dir) {
  ArrivalConfig a;
  const auto kind = parse_arrival_kind(p.arrival_kind);
  if (!kind) throw spec::Error("[arrivals] kind: unknown value '" + p.arrival_kind + "'");
  a.kind = *kind;
  a.rate_per_us = p.rate_per_us;
  a.burst_factor = p.burst_factor;
  a.calm_factor = p.calm_factor;
  a.mean_sojourn = p.mean_sojourn;
  a.diurnal_period_us = p.diurnal_period_us;
  a.diurnal_amplitude = p.diurnal_amplitude;
  a.diurnal_phases = p.diurnal_phases;
  if (a.kind == ArrivalKind::kTrace) {
    std::string path = p.trace_file;
    const bool relative = !path.empty() && path.front() != '/';
    if (relative && !base_dir.empty()) path = base_dir + "/" + path;
    a.trace_ns = load_trace(path);
  }
  return a;
}

std::vector<double> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw spec::Error(path + ": cannot open trace file");
  std::vector<double> out;
  std::string line;
  int line_no = 0;
  double prev = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view sv = spec::trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    const auto t = spec::to_finite(sv);
    const std::string where = path + ":" + std::to_string(line_no) + ": ";
    if (!t || *t >= spec::kMaxTickNs) {
      throw spec::Error(where + "bad trace timestamp '" + std::string(sv) + "'");
    }
    if (*t < 0.0 || *t < prev) {
      throw spec::Error(where + "trace timestamps must be non-negative and non-decreasing");
    }
    prev = *t;
    out.push_back(*t);
  }
  return out;
}

}  // namespace scn::gtm
