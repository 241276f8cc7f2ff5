#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> nearest_rank(std::vector<double> values, double p,
                                   std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  if (rank > n || n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

IoCounters io_counters() {
  IoCounters out;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") out.read = value;
    if (key == "wchar:") out.written = value;
  }
  return out;
}

CpuTicks cpu_ticks() {
  CpuTicks out;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user and nice.
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double steal_ratio(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double calibration_ms(int reps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(r);
    for (std::uint32_t i = 0; i < (1u << 22); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;  // keeps the chain before t1
    (void)sink;
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(std::move(samples));
}

}  // namespace perfbench
