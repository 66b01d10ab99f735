#include "cnet/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace scn::cnet {
namespace {

LinkStats snapshot(fabric::Channel* ch, sim::Tick now) {
  LinkStats s;
  s.name = ch->name();
  s.capacity_gbps = ch->capacity_bytes_per_ns();
  s.bytes_total = ch->bytes_total();
  s.delivered_gbps = now > 0 ? ch->bytes_total() / sim::to_ns(now) : 0.0;
  s.utilization = ch->utilization(now);
  s.stall_ns = sim::to_ns(ch->stall_ticks());
  s.messages = ch->messages_total();
  const auto& q = ch->queue_delay_histogram();
  s.avg_queue_ns = q.mean() / 1000.0;
  s.p999_queue_ns = static_cast<double>(q.p999()) / 1000.0;
  s.max_queue_ns = sim::to_ns(ch->max_queue_delay());
  return s;
}

}  // namespace

std::vector<LinkStats> link_stats(topo::Platform& platform) {
  const sim::Tick now = platform.simulator().now();
  std::vector<LinkStats> out;
  for (auto* ch : platform.all_channels()) out.push_back(snapshot(ch, now));
  return out;
}

std::vector<PoolStats> pool_stats(topo::Platform& platform) {
  std::vector<PoolStats> out;
  for (auto* pool : platform.all_pools()) {
    PoolStats s;
    s.name = pool->name();
    s.capacity = pool->capacity();
    s.outstanding = pool->outstanding();
    s.acquires = pool->acquires();
    s.avg_wait_ns = pool->wait_histogram().mean() / 1000.0;
    s.max_wait_ns = sim::to_ns(pool->max_wait());
    out.push_back(s);
  }
  return out;
}

std::string proc_chiplet_net(topo::Platform& platform) {
  std::ostringstream os;
  char line[256];
  os << "# /proc/chiplet-net -- " << platform.params().name << " @ t="
     << sim::to_us(platform.simulator().now()) << "us\n";
  os << "# link                 cap(GB/s)  load(GB/s)   util  msgs        avgQ(ns)  p999Q(ns)\n";
  for (const auto& s : link_stats(platform)) {
    std::snprintf(line, sizeof(line), "%-22s %8.1f  %9.2f  %5.1f%%  %-10llu %8.1f  %9.1f\n",
                  s.name.c_str(), s.capacity_gbps, s.delivered_gbps, s.utilization * 100.0,
                  static_cast<unsigned long long>(s.messages), s.avg_queue_ns, s.p999_queue_ns);
    os << line;
  }
  os << "# pool                 cap   outstanding  acquires    avgW(ns)  maxW(ns)\n";
  for (const auto& s : pool_stats(platform)) {
    std::snprintf(line, sizeof(line), "%-22s %-5u %-12u %-11llu %8.1f  %8.1f\n", s.name.c_str(),
                  s.capacity, s.outstanding, static_cast<unsigned long long>(s.acquires),
                  s.avg_wait_ns, s.max_wait_ns);
    os << line;
  }
  return os.str();
}

std::string telemetry_json(topo::Platform& platform) {
  std::ostringstream os;
  os << "{\"platform\":\"" << platform.params().name << "\",";
  os << "\"time_us\":" << sim::to_us(platform.simulator().now()) << ",";
  os << "\"links\":[";
  bool first = true;
  for (const auto& s : link_stats(platform)) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"capacity_gbps\":" << s.capacity_gbps
       << ",\"delivered_gbps\":" << s.delivered_gbps << ",\"utilization\":" << s.utilization
       << ",\"stall_ns\":" << s.stall_ns
       << ",\"messages\":" << s.messages << ",\"avg_queue_ns\":" << s.avg_queue_ns
       << ",\"p999_queue_ns\":" << s.p999_queue_ns << "}";
  }
  os << "],\"pools\":[";
  first = true;
  for (const auto& s : pool_stats(platform)) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"capacity\":" << s.capacity
       << ",\"outstanding\":" << s.outstanding << ",\"acquires\":" << s.acquires
       << ",\"avg_wait_ns\":" << s.avg_wait_ns << ",\"max_wait_ns\":" << s.max_wait_ns << "}";
  }
  os << "]}";
  return os.str();
}

LinkStats bottleneck_link(topo::Platform& platform) {
  auto all = link_stats(platform);
  auto it = std::max_element(all.begin(), all.end(), [](const LinkStats& a, const LinkStats& b) {
    return a.utilization < b.utilization;
  });
  return it == all.end() ? LinkStats{} : *it;
}

}  // namespace scn::cnet
