#include "exec/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>

namespace scn::exec {
namespace {

// splitmix64 finalizer (Vigna): full-avalanche mixing so adjacent point
// indices produce uncorrelated seeds.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

int resolve_jobs(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<int> identity_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n > 0 ? n : 0));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

std::vector<int> heaviest_first(const std::vector<double>& costs) {
  std::vector<int> order = identity_order(static_cast<int>(costs.size()));
  std::stable_sort(order.begin(), order.end(), [&costs](int a, int b) {
    return costs[static_cast<std::size_t>(a)] > costs[static_cast<std::size_t>(b)];
  });
  return order;
}

std::uint64_t point_seed(std::uint64_t base, std::uint64_t point) noexcept {
  return mix64(mix64(base) ^ mix64(point + 0x51ed2701ULL));
}

}  // namespace scn::exec
