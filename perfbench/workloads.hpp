#pragma once
// The benchmark's four workloads, each driven through the library's
// public API from one process with at most `threads` threads.
//
//   build_cold   cold PipelineContext builds at nproc threads and at 1
//   eval_sweep   frozen-8 x 5-condition grids over synthetic + Astro
//   corpus_edit  K=10 incremental rebuild from a warm checkpoint cache
//                plus the grouped delta sweep that follows it
//   rag_serve    closed loop of 4 clients: sharded query + assembly
//
// An untraced run reports the end-to-end metrics; a traced run re-drives
// the same work layer by layer under spans (see spans.hpp) and reports
// per-layer metrics.  Every timed operation is checked against a golden
// digest or a reference computed in setup.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run set-up, report setup_s, and stop before the first timed op.
  bool setup_only = false;
  /// Tiny inputs for the benchmark's own tests: golden digests are not
  /// pinned at these scales, so references come from the library's own
  /// output in the same process.
  bool shrunk = false;
  std::size_t threads = 1;
  /// Scratch directory inside the checkout (checkpoint caches).
  std::string workdir = ".bench_build/work";
  /// Path prefix for the traced run's Chrome trace and summary files;
  /// empty writes none.
  std::string trace_out;
  std::chrono::steady_clock::time_point process_start =
      std::chrono::steady_clock::now();
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False when set-up itself produced a wrong output (e.g. a golden
  /// digest mismatch on the warm-up build).
  bool setup_ok = true;
  std::map<std::string, Metric> metrics;
  /// Human-readable report lines (named metrics with units, provenance).
  std::vector<std::string> lines;
};

/// Throws std::invalid_argument for an unknown workload.
Result run_workload(const Options& options);

/// fnv1a digest over every build artifact via the checkpoint serializers
/// (parsed docs, chunks, chunk store, benchmark, per-mode traces and
/// trace stores): digest equality is byte equality.
std::uint64_t artifact_digest(const mcqa::core::PipelineContext& ctx);

/// Digest of a SweepResult's cells, in cell order.
std::uint64_t sweep_digest(const mcqa::eval::SweepResult& sweep);

}  // namespace perfbench
