#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call into
// a library layer's public functions (nothing inside the library is
// instrumented).  Each thread appends to its own buffer, so recording is
// one clock read at each end plus an append; with the recorder disabled
// a Span is a single branch.  Buffers are read only after the traced
// work has joined (pool barriers give the happens-before edge).
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.  Children may run on other threads and
// may overlap one another; the covered part is the union of their
// intervals clipped to the parent's.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* layer = "";    ///< static strings only
  const char* name = "";
  std::int64_t start_ns = 0;  ///< steady_clock, relative to recorder start
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< recorder-local thread number
};

/// Self time (ns) of every span, aligned with `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

struct LayerTotals {
  std::size_t spans = 0;
  double busy_s = 0.0;   ///< sum of self times
  double total_s = 0.0;  ///< sum of durations
};

/// Per-layer and per-"layer.name" totals (keys of both kinds in one map).
std::map<std::string, LayerTotals> summarize(
    const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds), which
/// Perfetto and chrome://tracing open offline.  At most `max_events`
/// spans are written; the rest are counted in the metadata.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              std::size_t max_events);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Parent for spans opened on threads with no open span of their own
  /// (library-owned pool workers calling back into traced code).
  std::uint64_t ambient_parent() const { return ambient_.load(); }
  void set_ambient_parent(std::uint64_t id) { ambient_.store(id); }

  /// Every span recorded so far, ordered by start time.  Call only when
  /// no traced work is running.
  std::vector<SpanRecord> collect() const;

  /// Innermost span open on the calling thread for this recorder, or 0.
  std::uint64_t current() const;

 private:
  friend class Span;
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open;  ///< stack of open span ids
  };
  Buffer& local_buffer() const;
  /// Nanoseconds since the recorder was created.
  std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t generation_;
  std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> ambient_{0};
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  mutable std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span.  The parent is the innermost span open on this thread,
/// else the recorder's ambient parent, unless given explicitly (work
/// handed to pool workers names the span that spawned it).
class Span {
 public:
  Span(SpanRecorder& rec, const char* layer, const char* name);
  Span(SpanRecorder& rec, const char* layer, const char* name,
       std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecorder* rec_;  ///< null when the recorder is disabled
  SpanRecord record_;
};

/// Makes `id` the ambient parent for the scope's lifetime.
class AmbientParent {
 public:
  AmbientParent(SpanRecorder& rec, std::uint64_t id)
      : rec_(rec), saved_(rec.ambient_parent()) {
    rec_.set_ambient_parent(id);
  }
  ~AmbientParent() { rec_.set_ambient_parent(saved_); }
  AmbientParent(const AmbientParent&) = delete;
  AmbientParent& operator=(const AmbientParent&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint64_t saved_;
};

}  // namespace perfbench
