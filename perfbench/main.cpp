// Benchmark binary: runs one workload and prints its report, ending with
// one JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload build_cold|eval_sweep|corpus_edit|rag_serve
//             --seed N --seconds S --trace 0|1
//             [--setup-only] [--workdir DIR] [--trace-out PREFIX]
//
// perfbench/run.py builds this binary and is the benchmark's entry point.
// The load runs on std::thread::hardware_concurrency() threads.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "index/kernels.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--workdir DIR] "
               "[--trace-out PREFIX]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage("missing value");
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") o.trace = std::string_view(v) == "1";
    else if (arg == "--workdir") o.workdir = v;
    else if (arg == "--trace-out") o.trace_out = v;
    else return usage(("unknown argument " + std::string(arg)).c_str());
  }
  if (o.workload.empty()) return usage("--workload is required");
  if (o.seconds <= 0.0) return usage("bad --seconds");
  if (perfbench::sanitized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a sanitizer build\n");
    return 3;
  }

  const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
  perfbench::Result r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // Host state: CPU steal over the whole run, then the calibration loop
  // right after the timed work.  Runs are comparable only when these agree.
  const double steal = perfbench::steal_ratio(ticks0, perfbench::cpu_ticks());
  const double calib_ms = perfbench::calibration_ms();
  if (o.trace) {
    r.metrics["host.calib_ms"] = {calib_ms, "ms"};
    r.metrics["host.steal_ratio"] = {steal, "ratio"};
  }

  using mcqa::index::kernels::dispatched_isa;
  using mcqa::index::kernels::isa_name;
  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%zu kernel_isa=%.*s kernel_tile_q=%zu build_type=%s "
              "host_calib_ms=%.4f host_steal_ratio=%.4f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.threads,
              static_cast<int>(isa_name(dispatched_isa()).size()),
              isa_name(dispatched_isa()).data(),
              mcqa::index::kernels::kTileQ, PERFBENCH_BUILD_TYPE, calib_ms,
              steal);
  for (const auto& line : r.lines) std::printf("%s\n", line.c_str());

  std::string json = "{\"correct\": ";
  json += r.setup_ok && r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
