#pragma once
// Order statistics and process facts for the benchmark's reports.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
/// Empty unless at least `min_beyond` samples lie above that rank, so a
/// reported tail always rests on that many slower observations.
std::optional<double> nearest_rank(std::vector<double> values, double p,
                                   std::size_t min_beyond = 10);

/// Peak resident set of this process, in MB (getrusage).
double peak_rss_mb();

/// Bytes this process has read / written through syscalls so far
/// (/proc/self/io rchar / wchar; zeros when unavailable).
struct IoCounters {
  std::uint64_t read = 0;
  std::uint64_t written = 0;
};
IoCounters io_counters();

/// Host-wide CPU time from the "cpu" line of /proc/stat, in clock ticks
/// (zeros when unavailable).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_ratio(const CpuTicks& from, const CpuTicks& to);

/// Wall time of a fixed single-thread integer loop (a serial xorshift
/// chain), median of `reps`, in ms.  It reads how fast the host runs at
/// the moment, so runs taken in different host states can be told apart.
double calibration_ms(int reps = 5);

/// True when this binary was compiled with a sanitizer.
constexpr bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace perfbench
