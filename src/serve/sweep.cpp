#include "serve/sweep.hpp"

#include "exec/sweep.hpp"
#include "measure/experiment.hpp"

namespace scn::serve {

std::vector<LoadPoint> sweep(const topo::PlatformParams& params, const SweepConfig& config) {
  const int n_rates = static_cast<int>(config.rates_per_us.size());
  const int n_policies = static_cast<int>(config.policies.size());
  const int count = n_rates * n_policies;

  exec::ParallelSweep pool(config.jobs);
  return pool.map(count, [&](int point) {
    const int p = point / n_rates;
    const int r = point % n_rates;

    measure::Experiment e(params);
    ServerConfig sc;
    sc.policy = config.policies[static_cast<std::size_t>(p)];
    sc.arrival = config.arrival_template;
    sc.arrival.rate_per_us = config.rates_per_us[static_cast<std::size_t>(r)];
    sc.gtm = config.gtm;
    sc.tier = config.tier;
    sc.classes = config.classes;
    sc.warmup = config.warmup;
    sc.stop = config.stop;
    sc.antagonist = true;  // every sweep runs beside the CCD 0 batch job
    // Seed depends on the rate index only: every policy replays the same
    // arrival sequence at a given rate (paired policy comparison).
    sc.seed = exec::point_seed(config.seed, static_cast<std::uint64_t>(r));

    ServerSim server(e.simulator, e.platform, std::move(sc));
    server.start();
    server.run(config.max_drain);

    LoadPoint out;
    out.rate_per_us = config.rates_per_us[static_cast<std::size_t>(r)];
    out.policy = config.policies[static_cast<std::size_t>(p)];
    out.report = server.report();
    return out;
  });
}

std::vector<LoadPoint> policy_curve(const std::vector<LoadPoint>& points, Policy policy) {
  std::vector<LoadPoint> out;
  for (const auto& pt : points) {
    if (pt.policy == policy) out.push_back(pt);
  }
  return out;
}

int knee_index(std::span<const double> p99_ns, double factor) {
  // Baseline: the first point where anything completed. Leading zero-P99
  // points (offered load too low, or a pathological config) would make every
  // later point "exceed" a zero reference.
  std::size_t base_at = 0;
  while (base_at < p99_ns.size() && p99_ns[base_at] <= 0.0) ++base_at;
  if (base_at >= p99_ns.size()) return -1;
  const double base = p99_ns[base_at];
  for (std::size_t i = base_at + 1; i < p99_ns.size(); ++i) {
    if (p99_ns[i] > factor * base) return static_cast<int>(i);
  }
  return -1;  // never crossed: the curve has no knee in the swept range
}

int knee_index(const std::vector<LoadPoint>& curve, double factor) {
  std::vector<double> p99;
  p99.reserve(curve.size());
  for (const auto& pt : curve) p99.push_back(pt.report.p99_ns);
  return knee_index(std::span<const double>(p99), factor);
}

}  // namespace scn::serve
