#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint64_t> g_generation{0};

/// Per-thread map from recorder generation to that recorder's buffer.
/// Generations are never reused, so an entry left by a destroyed
/// recorder can never be looked up again.
thread_local std::vector<std::pair<std::uint64_t, void*>> t_buffers;

void json_escape(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
}

}  // namespace

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> at;
  at.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) at[spans[i].id] = i;

  // Children's intervals, clipped to their parent's.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = at.find(s.parent);
    if (it == at.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, LayerTotals> summarize(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double busy = static_cast<double>(self[i]) * 1e-9;
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    for (const std::string& key :
         {std::string(s.layer), std::string(s.layer) + "." + s.name}) {
      LayerTotals& t = out[key];
      ++t.spans;
      t.busy_s += busy;
      t.total_s += total;
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              std::size_t max_events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t n = std::min(spans.size(), max_events);
  char buf[160];
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    json_escape(out, s.name);
    out += "\",\"cat\":\"";
    json_escape(out, s.layer);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
                spans.size(), n);
  out += buf;
  return out;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled),
      generation_(g_generation.fetch_add(1) + 1),
      origin_ns_(steady_ns()) {}

std::int64_t SpanRecorder::now_ns() const { return steady_ns() - origin_ns_; }

SpanRecorder::Buffer& SpanRecorder::local_buffer() const {
  // Newest first: the live recorder is almost always the last one seen.
  for (auto it = t_buffers.rbegin(); it != t_buffers.rend(); ++it) {
    if (it->first == generation_) return *static_cast<Buffer*>(it->second);
  }
  auto buffer = std::make_unique<Buffer>();
  Buffer* raw = buffer.get();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  t_buffers.emplace_back(generation_, raw);
  return *raw;
}

std::uint64_t SpanRecorder::current() const {
  const Buffer& b = local_buffer();
  return b.open.empty() ? 0 : b.open.back();
}

std::vector<SpanRecord> SpanRecorder::collect() const {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

namespace {

std::uint64_t implicit_parent(const SpanRecorder& rec) {
  if (!rec.enabled()) return 0;
  const std::uint64_t current = rec.current();
  return current != 0 ? current : rec.ambient_parent();
}

}  // namespace

Span::Span(SpanRecorder& rec, const char* layer, const char* name)
    : Span(rec, layer, name, implicit_parent(rec)) {}

Span::Span(SpanRecorder& rec, const char* layer, const char* name,
           std::uint64_t parent)
    : rec_(rec.enabled() ? &rec : nullptr) {
  if (rec_ == nullptr) return;
  record_.parent = parent;
  record_.layer = layer;
  record_.name = name;
  record_.id = rec.next_id_.fetch_add(1) + 1;
  rec.local_buffer().open.push_back(record_.id);
  record_.start_ns = rec.now_ns();
}

Span::~Span() {
  if (rec_ == nullptr) return;
  record_.end_ns = rec_->now_ns();
  SpanRecorder::Buffer& b = rec_->local_buffer();
  b.open.pop_back();
  record_.thread = b.thread;
  b.spans.push_back(record_);
}

}  // namespace perfbench
