#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "corpus/corpus_builder.hpp"
#include "embed/embedding_cache.hpp"
#include "embed/hashed_embedder.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/sharded_store.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mcqa;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- inputs and golden outputs ------------------------------------------------

/// Scales of the full workloads.  Golden digests below are pinned for the
/// build/eval scale; they are independent of thread count and kernel ISA
/// (the library's determinism contract).
constexpr double kBuildScale = 0.025;
constexpr double kServeScale = 0.1;
/// Shrunk scales for the benchmark's own tests (no pinned digests).
constexpr double kShrunkScale = 0.004;
constexpr double kShrunkServeScale = 0.008;

constexpr std::uint64_t kGoldenArtifact = 0x47f811a8d9b90108ULL;
constexpr std::uint64_t kGoldenSweepSynthetic = 0x7856533141091b7eULL;
constexpr std::uint64_t kGoldenSweepAstro = 0x536a54a94b38ef67ULL;

constexpr std::size_t kEditCount = 10;
/// Rebuilds timed per delta sweep in corpus_edit (a rebuild is ~20x
/// shorter than the sweep, so it gets more samples).
constexpr std::size_t kRebuildsPerSweep = 3;
constexpr std::size_t kServeClients = 4;
constexpr std::size_t kServeShards = 4;
/// One rag_serve request in this many carries fresh query text, so its
/// query embedding misses the embedding cache.
constexpr std::uint32_t kServeFreshOneIn = 4;

core::PipelineConfig build_config(double scale, std::size_t threads) {
  core::PipelineConfig cfg = core::PipelineConfig::paper_scale(scale);
  cfg.checkpoint_dir.clear();  // never inherit $MCQA_CHECKPOINT_DIR
  cfg.threads = threads;
  cfg.execution = core::ExecutionMode::kOverlapped;
  return cfg;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

struct ArtifactViews {
  const std::vector<parse::ParsedDocument>& parsed;
  const parse::RoutingStats& routing;
  std::size_t parse_failures;
  std::size_t documents;
  const std::vector<chunk::Chunk>& chunks;
  const index::VectorStore& chunk_store;
  const std::vector<qgen::McqRecord>& benchmark;
  const qgen::FunnelStats& funnel;
  std::array<const std::vector<trace::TraceRecord>*, trace::kTraceModeCount>
      traces;
  std::array<const index::VectorStore*, trace::kTraceModeCount> trace_stores;
};

std::uint64_t digest_of(const ArtifactViews& a) {
  core::ParsedArtifact parsed{a.parsed, a.routing, a.parse_failures,
                              a.documents};
  core::BenchmarkArtifact bench{a.benchmark, a.funnel};
  std::uint64_t h = util::fnv1a64(core::serialize_parsed(parsed));
  h = util::hash_combine(h, util::fnv1a64(core::serialize_chunks(a.chunks)));
  h = util::hash_combine(h, util::fnv1a64(a.chunk_store.save()));
  h = util::hash_combine(h, util::fnv1a64(core::serialize_benchmark(bench)));
  for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
    core::TraceArtifact traces{*a.traces[m], {}};
    h = util::hash_combine(h, util::fnv1a64(core::serialize_traces(traces)));
    h = util::hash_combine(h, util::fnv1a64(a.trace_stores[m]->save()));
  }
  return h;
}

// --- tracing helpers ---------------------------------------------------------

/// Forwards to another embedder under an "embed" span, counting texts.
class TracedEmbedder final : public embed::Embedder {
 public:
  TracedEmbedder(const embed::Embedder& base, SpanRecorder& rec)
      : base_(base), rec_(rec) {}
  std::size_t dim() const override { return base_.dim(); }
  embed::Vector embed(std::string_view text) const override {
    const Span span(rec_, "embed", "embed");
    texts_.fetch_add(1, std::memory_order_relaxed);
    return base_.embed(text);
  }
  std::size_t texts() const { return texts_.load(); }

 private:
  const embed::Embedder& base_;
  SpanRecorder& rec_;
  mutable std::atomic<std::size_t> texts_{0};
};

/// Per-layer values of one traced repetition.
using LayerValues = std::map<std::string, double>;

double busy(const std::map<std::string, LayerTotals>& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second.busy_s;
}

std::size_t span_count(const std::map<std::string, LayerTotals>& s,
                       const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0 : it->second.spans;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Counters of the context's embedding cache (zeros when it has none).
embed::EmbeddingCacheStats cache_stats(const core::PipelineContext& ctx) {
  const auto* cache =
      dynamic_cast<const embed::CachingEmbedder*>(&ctx.active_embedder());
  return cache != nullptr ? cache->stats() : embed::EmbeddingCacheStats{};
}

/// Hit share of the embedding-cache lookups made between two readings.
double hit_share(const embed::EmbeddingCacheStats& from,
                 const embed::EmbeddingCacheStats& to) {
  const auto hits = static_cast<double>(to.hits - from.hits);
  return ratio(hits, hits + static_cast<double>(to.misses - from.misses));
}

std::string cache_line(const char* what, const embed::EmbeddingCacheStats& from,
                       const embed::EmbeddingCacheStats& to) {
  return std::string("embedding cache over ") + what + ": " +
         std::to_string(to.hits - from.hits) + " hits, " +
         std::to_string(to.misses - from.misses) + " misses, hit share " +
         fmt("%.4f", hit_share(from, to));
}

/// Median of each key over repetitions.
LayerValues median_values(const std::vector<LayerValues>& reps) {
  std::map<std::string, std::vector<double>> by_key;
  for (const auto& rep : reps) {
    for (const auto& [k, v] : rep) by_key[k].push_back(v);
  }
  LayerValues out;
  for (auto& [k, vs] : by_key) out[k] = median(std::move(vs));
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Writes the last traced repetition's spans and the per-layer table.
void write_trace_files(const Options& o, const std::vector<SpanRecord>& spans,
                       const LayerValues& values, Result& r) {
  if (o.trace_out.empty()) return;
  write_file(o.trace_out + ".trace.json", chrome_trace_json(spans, 400000));
  json::Value summary = json::Value::object();
  summary["workload"] = o.workload;
  json::Value layers = json::Value::object();
  for (const auto& [key, t] : summarize(spans)) {
    json::Value row = json::Value::object();
    row["spans"] = t.spans;
    row["busy_s"] = t.busy_s;
    row["total_s"] = t.total_s;
    layers[key] = std::move(row);
  }
  summary["layers"] = std::move(layers);
  json::Value metrics = json::Value::object();
  for (const auto& [key, v] : values) metrics[key] = v;
  summary["metrics"] = std::move(metrics);
  write_file(o.trace_out + ".summary.json", summary.dump(2) + "\n");
  r.lines.push_back("trace: wrote " + o.trace_out + ".trace.json (" +
                    std::to_string(spans.size()) + " spans) and " +
                    o.trace_out + ".summary.json");
}

// --- stage-by-stage build re-drive ----------------------------------------------

struct LayerCounters {
  std::atomic<std::size_t> fast_attempts{0};
  std::atomic<std::size_t> escalations{0};
  std::size_t chunks = 0;
  double chunk_wall_s = 0.0;
  qgen::FunnelStats funnel;
  std::array<std::size_t, trace::kTraceModeCount> traced{};
  std::array<std::size_t, trace::kTraceModeCount> kept{};
  std::size_t embed_texts = 0;
  double embed_hit_ratio = 0.0;
};

void count_route(const parse::ParseOutcome& outcome, LayerCounters& n) {
  if (outcome.route == "fast" || outcome.route == "fast->accurate") {
    n.fast_attempts.fetch_add(1, std::memory_order_relaxed);
  }
  if (outcome.route == "fast->accurate") {
    n.escalations.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Every artifact of one stage-by-stage build, mirroring
/// PipelineContext's staged schedule call for call.
struct StagedBuild {
  std::unique_ptr<corpus::KnowledgeBase> kb;
  std::unique_ptr<corpus::FactMatcher> matcher;
  std::unique_ptr<embed::HashedNGramEmbedder> raw;
  std::unique_ptr<embed::CachingEmbedder> cached;
  std::unique_ptr<TracedEmbedder> embedder;
  std::unique_ptr<llm::TeacherModel> teacher;
  corpus::SyntheticCorpus corpus;
  std::vector<parse::ParsedDocument> parsed;
  parse::RoutingStats routing;
  std::size_t parse_failures = 0;
  std::size_t documents = 0;
  std::vector<chunk::Chunk> chunks;
  std::unique_ptr<index::VectorStore> chunk_store;
  std::vector<qgen::McqRecord> benchmark;
  qgen::FunnelStats funnel;
  std::array<std::vector<trace::TraceRecord>, trace::kTraceModeCount> traces;
  std::array<std::unique_ptr<index::VectorStore>, trace::kTraceModeCount>
      trace_stores;

  std::uint64_t digest() const {
    ArtifactViews v{parsed, routing, parse_failures, documents, chunks,
                    *chunk_store, benchmark, funnel, {}, {}};
    for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
      v.traces[m] = &traces[m];
      v.trace_stores[m] = trace_stores[m].get();
    }
    return digest_of(v);
  }
};

/// Embeds and indexes one store under index spans; the embed spans that
/// the library's pool workers open attach to the add_batch span.
std::unique_ptr<index::VectorStore> traced_store(
    const embed::Embedder& embedder, index::IndexKind kind,
    std::vector<std::string> ids, std::vector<std::string> texts,
    parallel::ThreadPool& pool, SpanRecorder& rec) {
  auto store = std::make_unique<index::VectorStore>(embedder, kind);
  {
    const Span span(rec, "index", "add_batch");
    const AmbientParent ambient(rec, span.id());
    store->add_batch(std::move(ids), std::move(texts), pool);
  }
  {
    const Span span(rec, "index", "build");
    store->build();
  }
  return store;
}

/// A cold build re-driven stage by stage through the layers' public
/// functions, with a span around every call.
std::unique_ptr<StagedBuild> redrive_build(const core::PipelineConfig& cfg,
                                           parallel::ThreadPool& pool,
                                           SpanRecorder& rec,
                                           LayerCounters& n) {
  auto b = std::make_unique<StagedBuild>();
  const Span root(rec, "bench", "build");
  {
    const Span span(rec, "corpus", "kb_generate");
    b->kb = std::make_unique<corpus::KnowledgeBase>(
        corpus::KnowledgeBase::generate(cfg.kb));
    b->matcher = std::make_unique<corpus::FactMatcher>(*b->kb);
  }
  b->raw = std::make_unique<embed::HashedNGramEmbedder>(
      embed::make_biomed_encoder());
  b->cached = std::make_unique<embed::CachingEmbedder>(*b->raw);
  b->embedder = std::make_unique<TracedEmbedder>(*b->cached, rec);
  {
    const Span span(rec, "corpus", "build_corpus");
    b->corpus = corpus::build_corpus(*b->kb, cfg.corpus, cfg.threads);
  }
  b->teacher = std::make_unique<llm::TeacherModel>(*b->kb, *b->matcher);
  const embed::Embedder& embedder = *b->embedder;

  // Parse, then merge outcomes in document order (as build_staged does).
  {
    const parse::AdaptiveParser parser(cfg.parser);
    const auto& docs = b->corpus.documents;
    std::vector<parse::ParseOutcome> outcomes(docs.size());
    const Span stage(rec, "bench", "parse_stage");
    parallel::parallel_for(pool, 0, docs.size(), [&](std::size_t i) {
      const Span span(rec, "parse", "parse", stage.id());
      outcomes[i] = parser.parse(docs[i].bytes);
    });
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      auto& outcome = outcomes[i];
      count_route(outcome, n);
      ++b->routing.total;
      b->routing.compute_cost += outcome.compute_cost;
      b->routing.always_accurate_cost += 8.0;  // AccurateSpdfParser cost
      if (outcome.route == "fast") ++b->routing.fast_routed;
      else if (outcome.route == "accurate") ++b->routing.accurate_routed;
      else if (outcome.route == "fast->accurate") ++b->routing.escalated;
      else if (outcome.route == "markdown" || outcome.route == "text")
        ++b->routing.non_spdf;
      if (!outcome.ok) {
        ++b->routing.failed;
        ++b->parse_failures;
        continue;
      }
      if (outcome.document.doc_id.empty()) {
        outcome.document.doc_id = docs[i].doc_id;
      }
      b->parsed.push_back(std::move(outcome.document));
    }
    b->documents = docs.size();
  }

  {
    const Clock::time_point t0 = Clock::now();
    const chunk::SemanticChunker chunker(embedder, cfg.chunker);
    std::vector<std::vector<chunk::Chunk>> per_doc(b->parsed.size());
    const Span stage(rec, "bench", "chunk_stage");
    parallel::parallel_for(pool, 0, b->parsed.size(), [&](std::size_t i) {
      const Span span(rec, "chunk", "chunk", stage.id());
      per_doc[i] = chunker.chunk(b->parsed[i]);
    });
    for (auto& doc_chunks : per_doc) {
      for (auto& c : doc_chunks) b->chunks.push_back(std::move(c));
    }
    n.chunks = b->chunks.size();
    n.chunk_wall_s = seconds_since(t0);
  }

  {
    std::vector<std::string> ids;
    std::vector<std::string> texts;
    for (const auto& c : b->chunks) {
      ids.push_back(c.chunk_id);
      texts.push_back(c.text);
    }
    b->chunk_store = traced_store(embedder, cfg.index_kind, std::move(ids),
                                  std::move(texts), pool, rec);
  }

  {
    const qgen::BenchmarkBuilder builder(*b->teacher, cfg.builder);
    std::vector<std::optional<qgen::McqRecord>> slots(b->chunks.size());
    qgen::FunnelCounters tally;
    const Span stage(rec, "bench", "qgen_stage");
    parallel::parallel_for(pool, 0, b->chunks.size(), [&](std::size_t i) {
      const Span span(rec, "qgen", "build_one", stage.id());
      slots[i] = builder.build_one(b->chunks[i], tally);
    });
    for (auto& slot : slots) {
      if (slot.has_value()) b->benchmark.push_back(std::move(*slot));
    }
    b->funnel.chunks = b->chunks.size();
    b->funnel.candidates = tally.candidates.load();
    b->funnel.rejected_no_fact = tally.rejected_no_fact.load();
    b->funnel.rejected_quality = tally.rejected_quality.load();
    b->funnel.rejected_relevance = tally.rejected_relevance.load();
    b->funnel.accepted = b->benchmark.size();
    n.funnel = b->funnel;
  }

  {
    const trace::TraceGenerator tracer(*b->teacher, cfg.tracegen);
    for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
      const auto mode = static_cast<trace::TraceMode>(m);
      auto& traces = b->traces[m];
      traces.resize(b->benchmark.size());
      {
        const Span stage(rec, "bench", "trace_stage");
        parallel::parallel_for(pool, 0, b->benchmark.size(), [&](std::size_t i) {
          const Span span(rec, "trace", "generate", stage.id());
          traces[i] = tracer.generate(b->benchmark[i], mode);
        });
      }
      {
        const Span span(rec, "trace", "grade_all");
        trace::grade_all(traces);
        trace::filter_incorrect(traces);
      }
      n.traced[m] += b->benchmark.size();
      n.kept[m] += traces.size();
      std::vector<std::string> ids;
      std::vector<std::string> texts;
      for (const auto& t : traces) {
        ids.push_back(t.trace_id);
        texts.push_back(t.retrieval_text());
      }
      b->trace_stores[m] = traced_store(embedder, cfg.index_kind,
                                        std::move(ids), std::move(texts),
                                        pool, rec);
    }
  }

  {
    const Span span(rec, "exam", "build");
    std::unordered_set<corpus::FactId> covered;
    for (const auto& record : b->benchmark) covered.insert(record.fact);
    const exam::AstroExamBuilder builder(*b->kb, cfg.exam);
    const exam::Exam exam = builder.build(covered);
    const auto usable = exam.usable();
    const auto no_math = exam::MathClassifier().no_math_subset(exam);
  }

  n.embed_texts = b->embedder->texts();
  n.embed_hit_ratio = b->cached->stats().hit_rate();
  return b;
}

/// Per-layer values of one traced build re-drive.
LayerValues build_layer_values(const std::vector<SpanRecord>& spans,
                               const LayerCounters& n) {
  const auto s = summarize(spans);
  LayerValues v;
  v["corpus.busy_s"] = busy(s, "corpus");
  v["parse.busy_s"] = busy(s, "parse");
  v["parse.escalation_ratio"] =
      ratio(static_cast<double>(n.escalations.load()),
            static_cast<double>(n.fast_attempts.load()));
  v["chunk.busy_s"] = busy(s, "chunk");
  v["chunk.wall_s"] = n.chunk_wall_s;
  v["chunk.chunks"] = static_cast<double>(n.chunks);
  v["exam.busy_s"] = busy(s, "exam");
  v["embed.busy_s"] = busy(s, "embed");
  v["embed.texts"] = static_cast<double>(n.embed_texts);
  v["embed.cache_hit_ratio"] = n.embed_hit_ratio;
  v["index.build_busy_s"] = busy(s, "index");
  v["qgen.busy_s"] = busy(s, "qgen");
  v["qgen.accept_ratio"] = ratio(static_cast<double>(n.funnel.accepted),
                                 static_cast<double>(n.funnel.chunks));
  v["qgen.rejected_no_fact"] = static_cast<double>(n.funnel.rejected_no_fact);
  v["qgen.rejected_quality"] = static_cast<double>(n.funnel.rejected_quality);
  v["qgen.rejected_relevance"] =
      static_cast<double>(n.funnel.rejected_relevance);
  v["trace.generate_busy_s"] = busy(s, "trace.generate");
  v["trace.grade_busy_s"] = busy(s, "trace.grade_all");
  for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
    const std::string mode(
        trace::trace_mode_name(static_cast<trace::TraceMode>(m)));
    v["trace.kept_ratio." + mode] = ratio(static_cast<double>(n.kept[m]),
                                          static_cast<double>(n.traced[m]));
  }
  return v;
}

// --- evaluation grid re-drive ------------------------------------------------------

struct EvalCounters {
  std::size_t plan_queries = 0;
  std::size_t graded = 0;
  std::atomic<std::size_t> unparseable{0};
};

/// The frozen-8 x 5-condition grid re-driven through plan_retrieval,
/// prepare_from_plan, answer and grade; cells in (model, condition)
/// order, as EvalHarness::sweep returns them.
eval::SweepResult redrive_sweep(const core::PipelineContext& ctx,
                                const std::vector<qgen::McqRecord>& records,
                                parallel::ThreadPool& pool, SpanRecorder& rec,
                                EvalCounters& n) {
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  const auto conditions = eval::all_conditions();
  const eval::Judge judge;
  const std::size_t c_count = conditions.size();
  std::vector<std::size_t> correct(models.size() * c_count, 0);
  std::vector<std::size_t> unparseable(models.size() * c_count, 0);

  const Span root(rec, "bench", "sweep");
  for (std::size_t ci = 0; ci < c_count; ++ci) {
    rag::RetrievalPlan plan;
    {
      const Span span(rec, "rag", "plan_retrieval");
      plan = ctx.rag().plan_retrieval(records, conditions[ci], pool);
    }
    if (plan.active) n.plan_queries += records.size();
    for (std::size_t m = 0; m < models.size(); ++m) {
      std::atomic<std::size_t> cell_correct{0};
      std::atomic<std::size_t> cell_unparseable{0};
      const Span cell(rec, "bench", "cell");
      parallel::parallel_for(pool, 0, records.size(), [&](std::size_t i) {
        std::optional<llm::McqTask> task;
        {
          const Span span(rec, "rag", "assemble", cell.id());
          task = ctx.rag().prepare_from_plan(records[i], plan, i, specs[m]);
        }
        std::optional<llm::AnswerResult> answer;
        {
          const Span span(rec, "llm", "answer", cell.id());
          answer = models[m]->answer(*task);
        }
        const Span span(rec, "eval", "judge", cell.id());
        const trace::GradingResult grading = judge.grade(*task, answer->text);
        if (grading.is_correct) cell_correct.fetch_add(1);
        if (grading.extracted_option_number < 0) cell_unparseable.fetch_add(1);
      });
      correct[m * c_count + ci] = cell_correct.load();
      unparseable[m * c_count + ci] = cell_unparseable.load();
    }
  }

  eval::SweepResult out;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t ci = 0; ci < c_count; ++ci) {
      eval::CellResult cell;
      cell.model = std::string(models[m]->name());
      cell.condition = conditions[ci];
      cell.accuracy.correct = correct[m * c_count + ci];
      cell.accuracy.total = records.size();
      cell.accuracy.unparseable = unparseable[m * c_count + ci];
      n.unparseable.fetch_add(cell.accuracy.unparseable);
      n.graded += records.size();
      out.cells.push_back(std::move(cell));
    }
  }
  return out;
}

std::vector<qgen::McqRecord> shuffled(std::vector<qgen::McqRecord> records,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[static_cast<std::size_t>(rng.bounded(static_cast<std::uint32_t>(i)))]);
  }
  return records;
}

// --- the four workloads ---------------------------------------------------------

/// Per-run bookkeeping shared by the workloads.
struct Run {
  const Options& o;
  Result r;
  Clock::time_point timed_start;

  explicit Run(const Options& options) : o(options) {}

  void setup_done() {
    timed_start = Clock::now();
    const double setup_s =
        std::chrono::duration<double>(timed_start - o.process_start).count();
    r.metrics["setup_s"] = {setup_s, "s"};
    r.lines.push_back("setup_s = " + fmt("%.4f", setup_s) +
                      " s (process start to first timed operation)");
  }
  bool more(std::size_t done, std::size_t min_done) const {
    return done < min_done || seconds_since(timed_start) < o.seconds;
  }
  /// Counts one checked operation.
  void check(bool ok, const std::string& what) {
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      if (r.failed <= 5) r.lines.push_back("CHECK FAILED: " + what);
    }
  }
  void line(const std::string& s) { r.lines.push_back(s); }
  void metric(const std::string& name, double value, const std::string& unit) {
    r.metrics[name] = {value, unit};
  }
  void end_to_end(double primary_ms, double secondary_ms, double throughput) {
    metric("primary_ms", primary_ms, "ms");
    metric("secondary_ms", secondary_ms, "ms");
    metric("throughput_per_s", throughput, "1/s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    line("error_rate = " +
         fmt("%.6f", ratio(static_cast<double>(r.failed),
                           static_cast<double>(r.attempted))) +
         " (" + std::to_string(r.failed) + " of " +
         std::to_string(r.attempted) + " operations failed a check)");
  }
  void layers(const LayerValues& values) {
    for (const auto& [k, v] : values) r.metrics[k] = {v, ""};
  }
  /// Check against a pinned golden digest, or against the in-process
  /// reference when running shrunk.
  std::uint64_t golden(std::uint64_t pinned, std::uint64_t reference) const {
    return o.shrunk ? reference : pinned;
  }
};

/// "name: n=.. min .. p25 .. median .. p75 .. max .. ms" for op times in s.
std::string distribution(const char* name, std::vector<double> samples_s) {
  std::sort(samples_s.begin(), samples_s.end());
  const auto at = [&](double q) {
    return 1e3 * samples_s[static_cast<std::size_t>(q * static_cast<double>(samples_s.size() - 1))];
  };
  if (samples_s.empty()) return std::string(name) + ": no samples";
  return std::string(name) + ": n=" + std::to_string(samples_s.size()) +
         " min " + fmt("%.2f", at(0.0)) + " p25 " + fmt("%.2f", at(0.25)) +
         " median " + fmt("%.2f", 1e3 * median(samples_s)) + " p75 " +
         fmt("%.2f", at(0.75)) + " max " + fmt("%.2f", at(1.0)) + " ms";
}

/// Tracing overhead: the same re-drive with spans on against spans off.
void overhead_line(Run& run, const char* what, const std::vector<double>& on,
                   const std::vector<double>& off, const char* unit) {
  const double overhead = ratio(median(on), median(off)) - 1.0;
  run.r.metrics["bench.trace_overhead_ratio"] = {overhead, ""};
  run.line(std::string("trace overhead: ") + what + " " +
           fmt("%.4f", median(on)) + " " + unit + " with spans vs " +
           fmt("%.4f", median(off)) + " " + unit + " without (medians of " +
           std::to_string(on.size()) + " / " + std::to_string(off.size()) +
           "): " + fmt("%+.2f%%", 100.0 * overhead));
}

// build_cold ---------------------------------------------------------------------

Result build_cold(const Options& o) {
  Run run(o);
  const double scale = o.shrunk ? kShrunkScale : kBuildScale;
  const core::PipelineConfig cfg = build_config(scale, o.threads);
  const core::PipelineConfig cfg_1t = build_config(scale, 1);

  // The first build in a process pays one-off costs (allocator growth,
  // page faults, lazy statics) that later builds do not.  It runs here,
  // so it counts in setup_s and never in build_s.
  const Clock::time_point first_t0 = Clock::now();
  std::uint64_t reference = 0;
  std::size_t documents = 0;
  {
    const core::PipelineContext first(cfg);
    reference = artifact_digest(first);
    documents = first.stats().documents;
    run.line("build_cold: " + std::to_string(documents) + " docs, " +
             std::to_string(first.stats().chunks) + " chunks, " +
             std::to_string(first.benchmark().size()) + " questions at scale " +
             fmt("%.3f", scale) + ", overlapped, no checkpoint dir");
  }
  const double first_build_s = seconds_since(first_t0);
  const std::uint64_t golden = run.golden(kGoldenArtifact, reference);
  run.r.setup_ok = reference == golden;
  if (!run.r.setup_ok) {
    run.line("setup: first build digest " + hex(reference) + " != golden " +
             hex(golden));
  }
  run.line("first build in this process: " + fmt("%.4f", first_build_s) +
           " s, counted in setup_s and excluded from build_s");
  run.setup_done();
  if (o.setup_only) return run.r;

  const auto timed_build = [&](const core::PipelineConfig& c, std::vector<double>& out) {
    const Clock::time_point t0 = Clock::now();
    const auto ctx = std::make_unique<core::PipelineContext>(c);
    out.push_back(seconds_since(t0));
    run.check(artifact_digest(*ctx) == golden,
              "build digest at " + std::to_string(c.threads) + " threads");
  };

  if (!o.trace) {
    std::vector<double> nproc_s;
    std::vector<double> one_s;
    const bool one_first = o.seed % 2 == 1;
    for (std::size_t pair = 0; run.more(pair, 3); ++pair) {
      // Alternate which build of the pair runs first.
      if ((pair % 2 == 1) == one_first) {
        timed_build(cfg, nproc_s);
        timed_build(cfg_1t, one_s);
      } else {
        timed_build(cfg_1t, one_s);
        timed_build(cfg, nproc_s);
      }
    }
    const double build_s = median(nproc_s);
    const double build_1t_s = median(one_s);
    run.line(distribution("cold build, nproc threads", nproc_s));
    run.line(distribution("cold build, 1 thread", one_s));
    run.line("build_s = " + fmt("%.4f", build_s) + " s (median of " +
             std::to_string(nproc_s.size()) + " cold builds at " +
             std::to_string(o.threads) + " threads)");
    run.line("build_1t_s = " + fmt("%.4f", build_1t_s) + " s (median of " +
             std::to_string(one_s.size()) + " cold builds at 1 thread)");
    run.end_to_end(build_s * 1e3, build_1t_s * 1e3,
                   static_cast<double>(documents) / build_s);
    return run.r;
  }

  // Traced: library builds untraced, then the stage-by-stage re-drive
  // with spans off and on; every build must reproduce the golden digest.
  parallel::ThreadPool pool(o.threads);
  std::vector<double> lib_s;
  std::vector<double> one_s;
  std::vector<double> off_s;
  std::vector<double> on_s;
  std::vector<LayerValues> reps;
  std::vector<SpanRecord> last_spans;
  timed_build(cfg_1t, one_s);
  for (std::size_t round = 0; run.more(round, 2); ++round) {
    timed_build(cfg, lib_s);
    for (const bool enabled : {false, true}) {
      SpanRecorder rec(enabled);
      LayerCounters n;
      const Clock::time_point t0 = Clock::now();
      const auto b = redrive_build(cfg, pool, rec, n);
      (enabled ? on_s : off_s).push_back(seconds_since(t0));
      run.check(b->digest() == golden, "stage-by-stage re-drive digest");
      if (enabled) {
        last_spans = rec.collect();
        reps.push_back(build_layer_values(last_spans, n));
      }
    }
  }
  LayerValues values = median_values(reps);
  values["parallel.build_speedup"] = ratio(median(one_s), median(lib_s));
  run.layers(values);
  overhead_line(run, "stage-by-stage build", on_s, off_s, "s");
  run.line("re-drive vs library build: " + fmt("%.4f", median(on_s)) +
           " s traced staged re-drive, " + fmt("%.4f", median(lib_s)) +
           " s overlapped library build");
  write_trace_files(o, last_spans, values, run.r);
  return run.r;
}

// eval_sweep ---------------------------------------------------------------------

Result eval_sweep(const Options& o) {
  Run run(o);
  const double scale = o.shrunk ? kShrunkScale : kBuildScale;
  const core::PipelineContext ctx(build_config(scale, o.threads));
  parallel::ThreadPool pool(o.threads);
  // Sums over records are order-free, so the seed's record order leaves
  // the golden SweepResult digests unchanged.
  const std::array<std::vector<qgen::McqRecord>, 2> sets{
      shuffled(ctx.benchmark(), o.seed), shuffled(ctx.exam_all(), o.seed + 1)};
  const std::array<const char*, 2> set_names{"synthetic", "astro"};
  eval::HarnessConfig hc;
  hc.pool = &pool;
  const eval::EvalHarness harness(ctx.rag(), hc);
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  const auto conditions = eval::all_conditions();

  // One untimed grid per set fills the embedding cache with the query
  // texts, and yields the shrunk-run reference digests.  Every timed grid
  // repeats those queries, so its query embeddings are cache hits (the
  // hit share is reported): the workload measures retrieval, assembly,
  // answering and grading, not query embedding.
  std::array<std::uint64_t, 2> golden{};
  std::array<eval::SweepStats, 2> sweep_stats{};
  for (std::size_t s = 0; s < 2; ++s) {
    const std::uint64_t d = sweep_digest(
        harness.sweep(models, specs, sets[s], conditions, &sweep_stats[s]));
    golden[s] = run.golden(s == 0 ? kGoldenSweepSynthetic : kGoldenSweepAstro, d);
    if (d != golden[s]) {
      run.r.setup_ok = false;
      run.line(std::string("setup: ") + set_names[s] + " sweep digest " +
               hex(d) + " != golden " + hex(golden[s]));
    }
  }
  const std::size_t evals_per_grid =
      models.size() * conditions.size() * (sets[0].size() + sets[1].size());
  run.line("eval_sweep: " + std::to_string(models.size()) + " models x " +
           std::to_string(conditions.size()) + " conditions over " +
           std::to_string(sets[0].size()) + " synthetic + " +
           std::to_string(sets[1].size()) + " Astro records = " +
           std::to_string(evals_per_grid) + " evaluations per grid, " +
           std::to_string(o.threads) + "-thread caller-owned pool, no cell cache");
  run.setup_done();
  if (o.setup_only) return run.r;

  if (!o.trace) {
    std::array<std::vector<double>, 2> grid_s;
    double total_s = 0.0;
    std::size_t evals = 0;
    const embed::EmbeddingCacheStats cache0 = cache_stats(ctx);
    for (std::size_t it = 0; run.more(it, 3); ++it) {
      for (std::size_t s = 0; s < 2; ++s) {
        const Clock::time_point t0 = Clock::now();
        const eval::SweepResult result =
            harness.sweep(models, specs, sets[s], conditions);
        const double dt = seconds_since(t0);
        grid_s[s].push_back(dt);
        total_s += dt;
        evals += models.size() * conditions.size() * sets[s].size();
        run.check(sweep_digest(result) == golden[s],
                  std::string(set_names[s]) + " sweep digest");
      }
    }
    run.line(cache_line("the timed grids", cache0, cache_stats(ctx)));
    const double evals_per_s = static_cast<double>(evals) / total_s;
    run.line("sweep_evals_per_s = " + fmt("%.1f", evals_per_s) + " 1/s (" +
             std::to_string(evals) + " evaluations in " + fmt("%.3f", total_s) +
             " s)");
    run.line(distribution("synthetic grid", grid_s[0]));
    run.line(distribution("Astro grid", grid_s[1]));
    run.end_to_end(median(grid_s[0]) * 1e3, median(grid_s[1]) * 1e3,
                   evals_per_s);
    return run.r;
  }

  std::vector<double> lib_s;
  std::vector<double> off_s;
  std::vector<double> on_s;
  std::vector<LayerValues> reps;
  std::vector<SpanRecord> last_spans;
  for (std::size_t round = 0; run.more(round, 2); ++round) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t s = 0; s < 2; ++s) {
      run.check(sweep_digest(harness.sweep(models, specs, sets[s],
                                           conditions)) == golden[s],
                "library sweep digest");
    }
    lib_s.push_back(seconds_since(t0));
    for (const bool enabled : {false, true}) {
      SpanRecorder rec(enabled);
      EvalCounters n;
      const embed::EmbeddingCacheStats cache0 = cache_stats(ctx);
      const Clock::time_point t1 = Clock::now();
      for (std::size_t s = 0; s < 2; ++s) {
        run.check(sweep_digest(redrive_sweep(ctx, sets[s], pool, rec, n)) ==
                      golden[s],
                  std::string("re-driven ") + set_names[s] + " sweep digest");
      }
      (enabled ? on_s : off_s).push_back(seconds_since(t1));
      if (!enabled) continue;
      last_spans = rec.collect();
      const auto sum = summarize(last_spans);
      LayerValues v;
      v["rag.plan_busy_s"] = busy(sum, "rag.plan_retrieval");
      v["rag.plan_queries"] = static_cast<double>(n.plan_queries);
      v["llm.answer_busy_s"] = busy(sum, "llm");
      v["eval.judge_busy_s"] = busy(sum, "eval");
      v["eval.unparseable_ratio"] =
          ratio(static_cast<double>(n.unparseable.load()),
                static_cast<double>(n.graded));
      v["rag.assemble_busy_s"] = busy(sum, "rag.assemble");
      v["rag.assemble_us_per_task"] =
          1e6 * ratio(busy(sum, "rag.assemble"),
                      static_cast<double>(span_count(sum, "rag.assemble")));
      v["embed.query_cache_hit_ratio"] = hit_share(cache0, cache_stats(ctx));
      v["eval.query_share_ratio"] = ratio(
          static_cast<double>(sweep_stats[0].retrieval_queries +
                              sweep_stats[1].retrieval_queries),
          static_cast<double>(sweep_stats[0].naive_retrieval_queries +
                              sweep_stats[1].naive_retrieval_queries));
      reps.push_back(std::move(v));
    }
  }
  const LayerValues values = median_values(reps);
  run.layers(values);
  overhead_line(run, "re-driven grids", on_s, off_s, "s");
  run.line("re-drive vs library sweep: " + fmt("%.4f", median(on_s)) +
           " s traced re-drive, " + fmt("%.4f", median(lib_s)) +
           " s EvalHarness::sweep (both sets)");
  write_trace_files(o, last_spans, values, run.r);
  return run.r;
}

// corpus_edit --------------------------------------------------------------------

/// Makes the flat directory `to` a mirror of `from` made of hard links,
/// with as few filesystem operations as possible: files a rebuild added
/// are removed, and files it replaced are linked again.  The checkpoint
/// cache only ever replaces files (temp file + rename), so an
/// iteration's writes never reach the pristine copy, and the metadata
/// churn between two rebuilds stays at the few files one rebuild writes.
void relink(const std::filesystem::path& from, const std::filesystem::path& to) {
  namespace fs = std::filesystem;
  fs::create_directories(to);
  std::vector<fs::path> added;
  for (const auto& entry : fs::directory_iterator(to)) {
    if (!fs::exists(from / entry.path().filename())) added.push_back(entry.path());
  }
  for (const auto& p : added) fs::remove(p);
  for (const auto& entry : fs::directory_iterator(from)) {
    const fs::path copy = to / entry.path().filename();
    std::error_code ec;
    if (fs::equivalent(entry.path(), copy, ec)) continue;
    fs::remove(copy);
    fs::create_hard_link(entry.path(), copy);
  }
}

struct EditIteration {
  std::unique_ptr<core::PipelineContext> ctx;
  double rebuild_s = 0.0;
  double eval_s = 0.0;
  eval::SweepStats sweep;
  IoCounters io;  ///< syscall bytes during the rebuild
};

/// Per-layer values of a traced re-drive of the edit rebuild's pieces:
/// restoring the unchanged documents' artifacts, recomputing the edited
/// documents, and assembling the four stores from the checkpointed rows.
LayerValues redrive_edit(const core::PipelineContext& incr,
                         const core::PipelineConfig& cfg,
                         const std::string& cache_dir,
                         const std::vector<std::size_t>& edited,
                         parallel::ThreadPool& pool, SpanRecorder& rec,
                         Run& run) {
  const auto& docs = incr.corpus().documents;
  const std::vector<std::uint64_t> keys =
      core::derive_doc_keys(cfg, incr.corpus(), incr.embedder().dim());
  std::vector<bool> is_edited(docs.size(), false);
  for (const std::size_t i : edited) is_edited[i] = true;

  const core::ArtifactCache cache(cache_dir);
  std::vector<core::DocArtifact> arts(docs.size());
  {
    const Span stage(rec, "bench", "restore_stage");
    parallel::parallel_for(pool, 0, docs.size(), [&](std::size_t i) {
      const Span span(rec, "core.checkpoint",
                      is_edited[i] ? "load_recomputed" : "restore", stage.id());
      const auto blob = cache.load("docart", keys[i]);
      if (blob.has_value()) arts[i] = core::deserialize_docart(*blob);
    });
  }

  // The edited documents, recomputed layer by layer.
  const embed::CachingEmbedder cached(incr.embedder());
  const TracedEmbedder embedder(cached, rec);
  const parse::AdaptiveParser parser(cfg.parser);
  const chunk::SemanticChunker chunker(embedder, cfg.chunker);
  const qgen::BenchmarkBuilder builder(incr.teacher(), cfg.builder);
  const trace::TraceGenerator tracer(incr.teacher(), cfg.tracegen);
  LayerCounters n;
  std::atomic<std::size_t> mismatched{0};
  {
    const Span stage(rec, "bench", "edited_docs");
    parallel::parallel_for(pool, 0, edited.size(), [&](std::size_t e) {
      const std::size_t d = edited[e];
      parse::ParseOutcome outcome;
      {
        const Span span(rec, "parse", "parse", stage.id());
        outcome = parser.parse(docs[d].bytes);
      }
      count_route(outcome, n);
      if (!outcome.ok) return;
      if (outcome.document.doc_id.empty()) outcome.document.doc_id = docs[d].doc_id;
      std::vector<chunk::Chunk> chunks;
      {
        const Span span(rec, "chunk", "chunk", stage.id());
        chunks = chunker.chunk(outcome.document);
      }
      qgen::FunnelCounters tally;
      std::size_t records = 0;
      for (const auto& c : chunks) {
        std::optional<qgen::McqRecord> record;
        {
          const Span span(rec, "qgen", "build_one", stage.id());
          record = builder.build_one(c, tally);
        }
        if (!record.has_value()) continue;
        ++records;
        for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
          trace::TraceRecord t;
          {
            const Span span(rec, "trace", "generate", stage.id());
            t = tracer.generate(*record, static_cast<trace::TraceMode>(m));
          }
          const Span span(rec, "trace", "grade_all", stage.id());
          trace::grade_trace(t);
        }
      }
      std::size_t expected = 0;
      for (const auto& ca : arts[d].chunks) expected += ca.has_record ? 1 : 0;
      if (chunks.size() != arts[d].chunks.size() || records != expected) {
        mismatched.fetch_add(1);
      }
    });
  }
  run.check(mismatched.load() == 0,
            "edited documents re-driven to the checkpointed chunks/records");

  // The four stores, from the checkpointed rows in document order.
  std::vector<std::string> ids;
  std::vector<std::string> texts;
  std::vector<embed::Vector> vectors;
  std::array<std::vector<std::string>, trace::kTraceModeCount> t_ids;
  std::array<std::vector<std::string>, trace::kTraceModeCount> t_texts;
  std::array<std::vector<embed::Vector>, trace::kTraceModeCount> t_vectors;
  for (const auto& art : arts) {
    for (const auto& ca : art.chunks) {
      ids.push_back(ca.chunk.chunk_id);
      texts.push_back(ca.chunk.text);
      vectors.push_back(ca.vector);
      for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
        if (!ca.has_record || !ca.traces[m].kept) continue;
        t_ids[m].push_back(ca.traces[m].trace.trace_id);
        t_texts[m].push_back(ca.traces[m].retrieval);
        t_vectors[m].push_back(ca.traces[m].vector);
      }
    }
  }
  const auto assemble = [&](std::vector<std::string> i, std::vector<std::string> t,
                            const std::vector<embed::Vector>& v,
                            const index::VectorStore& expected) {
    index::VectorStore store(incr.embedder(), cfg.index_kind);
    {
      const Span span(rec, "index", "add_precomputed");
      store.add_precomputed(std::move(i), std::move(t), v);
    }
    {
      const Span span(rec, "index", "build");
      store.build();
    }
    run.check(store.save() == expected.save(),
              "store assembled from checkpointed rows equals the rebuild's");
  };
  assemble(std::move(ids), std::move(texts), vectors, incr.chunk_store());
  for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
    assemble(std::move(t_ids[m]), std::move(t_texts[m]), t_vectors[m],
             incr.trace_store(static_cast<trace::TraceMode>(m)));
  }

  const auto s = summarize(rec.collect());
  LayerValues v;
  v["core.checkpoint.restore_busy_s"] = busy(s, "core.checkpoint.restore");
  v["index.build_busy_s"] = busy(s, "index");
  v["parse.busy_s"] = busy(s, "parse");
  v["chunk.busy_s"] = busy(s, "chunk");
  v["embed.busy_s"] = busy(s, "embed");
  v["embed.texts"] = static_cast<double>(embedder.texts());
  v["qgen.busy_s"] = busy(s, "qgen");
  v["trace.generate_busy_s"] = busy(s, "trace.generate");
  v["trace.grade_busy_s"] = busy(s, "trace.grade_all");
  v["parse.escalation_ratio"] =
      ratio(static_cast<double>(n.escalations.load()),
            static_cast<double>(n.fast_attempts.load()));
  return v;
}

Result corpus_edit(const Options& o) {
  Run run(o);
  const double scale = o.shrunk ? kShrunkScale : kBuildScale;
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(o.workdir) / ("corpus_edit-" + std::to_string(::getpid()));
  // Build artifacts and eval-group tallies live in separate directories,
  // so each rebuild restarts from a cheap copy of the revision-0 build
  // cache, and each delta sweep from the revision-0 tallies.
  const fs::path build0 = root / "build-rev0";
  const fs::path eval0 = root / "eval-rev0";
  const fs::path build_dir = root / "build";
  fs::remove_all(root);

  core::PipelineConfig rev0_cfg = build_config(scale, o.threads);
  rev0_cfg.checkpoint_dir = build0.string();
  // Set-up runs on nproc threads; the timed rebuilds and delta sweeps on
  // one (PipelineConfig::threads and the sweep's pool).  Both are chains
  // of short parallel steps that wait for the slowest worker, so on
  // nproc threads whichever vCPU the host had just descheduled set the
  // pace: over five alternating runs on a 4-vCPU VM the rebuild medians
  // ranged 25% on 4 threads and 9% on one.  build_cold measures
  // parallel scaling.  The set-up pool is gone before the timed loop,
  // as its idle workers wake every millisecond.
  auto pool = std::make_unique<parallel::ThreadPool>(o.threads);
  parallel::ThreadPool serial(1);
  // The seed orders the models (the plain reference sweeps the same
  // order).  Record order stays fixed: a group's content fingerprint
  // covers its records in order, so reordering would defeat the cache.
  std::vector<std::size_t> model_order(llm::student_registry().size());
  std::iota(model_order.begin(), model_order.end(), 0);
  {
    util::Rng rng(o.seed);
    for (std::size_t i = model_order.size(); i > 1; --i) {
      std::swap(model_order[i - 1],
                model_order[rng.bounded(static_cast<std::uint32_t>(i))]);
    }
  }
  const auto sweep = [&](const core::PipelineContext& ctx, bool grouped,
                         parallel::ThreadPool& on, eval::SweepStats* stats) {
    const auto& records = ctx.benchmark();
    const auto groups = core::record_groups(ctx, records);
    const core::EvalCellCache cache(eval0.string(),
                                    core::EvalCellCache::sweep_key(ctx, records),
                                    core::EvalCellCache::group_base_key(ctx));
    eval::HarnessConfig hc;
    hc.pool = &on;
    if (grouped) {
      hc.cell_cache = &cache;
      hc.groups = &groups;
    }
    const eval::EvalHarness harness(ctx.rag(), hc);
    const auto all = ctx.student_ptrs();
    const auto all_specs = ctx.student_specs();
    std::vector<const llm::LanguageModel*> models;
    std::vector<llm::ModelSpec> specs;
    for (const std::size_t m : model_order) {
      models.push_back(all[m]);
      specs.push_back(all_specs[m]);
    }
    return harness.sweep(models, specs, records, eval::all_conditions(), stats);
  };

  Clock::time_point step = Clock::now();
  std::string setup_steps = "corpus_edit setup:";
  const auto step_done = [&](const char* what) {
    setup_steps += std::string(" ") + what + " " +
                   fmt("%.3f", seconds_since(step)) + " s;";
    step = Clock::now();
  };

  // Revision 0: a cold build through the cache, then a grouped sweep
  // that stores every group's tallies.
  std::size_t documents = 0;
  {
    const core::PipelineContext rev0(rev0_cfg);
    documents = rev0.stats().documents;
    step_done("revision-0 build");
    sweep(rev0, true, *pool, nullptr);
  }
  std::set<fs::path> eval0_files;
  for (const auto& entry : fs::directory_iterator(eval0)) {
    eval0_files.insert(entry.path());
  }
  step_done("grouped sweep");

  // Revision 1: reference digests from a no-cache cold build and a
  // plain sweep.
  core::PipelineConfig rev1_cfg = rev0_cfg;
  rev1_cfg.corpus.edits.count = kEditCount;
  rev1_cfg.corpus.edits.revision = 1;
  rev1_cfg.checkpoint_dir = build_dir.string();
  rev1_cfg.threads = 1;
  const std::vector<std::size_t> edited =
      corpus::edited_doc_indexes(rev1_cfg.corpus, documents);
  std::uint64_t ref_digest = 0;
  std::uint64_t ref_sweep = 0;
  {
    core::PipelineConfig cold_cfg = rev1_cfg;
    cold_cfg.checkpoint_dir.clear();
    cold_cfg.threads = o.threads;
    const core::PipelineContext cold(cold_cfg);
    ref_digest = artifact_digest(cold);
    ref_sweep = sweep_digest(sweep(cold, false, *pool, nullptr));
  }
  pool.reset();
  step_done("revision-1 reference build + plain sweep");

  // One rebuild: from the revision-0 build cache, relinked.
  const auto rebuild = [&](EditIteration& it) {
    it.ctx.reset();  // the previous context's teardown stays untimed
    relink(build0, build_dir);
    ::sync();  // no writeback or journal commit of the reset inside the timing
    const IoCounters io0 = io_counters();
    const Clock::time_point t0 = Clock::now();
    it.ctx = std::make_unique<core::PipelineContext>(rev1_cfg);
    it.rebuild_s = seconds_since(t0);
    const IoCounters io1 = io_counters();
    it.io = {io1.read - io0.read, io1.written - io0.written};
    const auto& st = it.ctx->stats();
    run.check(artifact_digest(*it.ctx) == ref_digest &&
                  st.doc_artifacts_restored == documents - kEditCount &&
                  st.doc_artifacts_recomputed == kEditCount &&
                  st.checkpoint_corrupt == 0,
              "incremental rebuild: digest, restored N-K, recomputed K, 0 corrupt");
  };
  // The delta sweep after a rebuild; afterwards the tallies it stored
  // are removed, so the next one starts from revision 0's again.
  const auto delta_sweep = [&](EditIteration& it) {
    ::sync();  // the last rebuild's writeback stays out of the timing
    const Clock::time_point t0 = Clock::now();
    const eval::SweepResult delta = sweep(*it.ctx, true, serial, &it.sweep);
    it.eval_s = seconds_since(t0);
    run.check(sweep_digest(delta) == ref_sweep,
              "grouped delta sweep bitwise-equal to the plain sweep");
    std::vector<fs::path> added;
    for (const auto& entry : fs::directory_iterator(eval0)) {
      if (eval0_files.count(entry.path()) == 0) added.push_back(entry.path());
    }
    for (const auto& p : added) fs::remove(p);
    ::sync();  // the deletions' journal work stays out of the next timing
  };

  // The first rebuild in a process pays one-off costs later ones do not.
  {
    EditIteration warm;
    rebuild(warm);
    run.r.setup_ok = run.r.failed == 0;
    run.r.attempted = 0;
    run.r.failed = 0;
  }
  // Flush set-up's writes (thousands of cache files) so their writeback
  // does not land inside the timed loop.
  ::sync();
  step_done("warm-up rebuild + sync");
  run.line(setup_steps);
  run.line("corpus_edit: " + std::to_string(documents) + " docs at scale " +
           fmt("%.3f", scale) + "; each rebuild starts from the warm "
           "revision-0 cache and applies the K=" + std::to_string(kEditCount) +
           "-document revision 1; every " + std::to_string(kRebuildsPerSweep) +
           " rebuilds, one grouped delta sweep in the seed's model order");
  run.setup_done();

  std::vector<double> rebuild_s;
  std::vector<double> eval_s;
  std::vector<double> on_s;
  std::vector<double> off_s;
  std::vector<LayerValues> reps;
  std::vector<SpanRecord> last_spans;
  if (!o.setup_only) {
    for (std::size_t i = 0; run.more(i, 3); ++i) {
      EditIteration it;
      for (std::size_t b = 0; b < kRebuildsPerSweep; ++b) {
        rebuild(it);
        rebuild_s.push_back(it.rebuild_s);
      }
      delta_sweep(it);
      eval_s.push_back(it.eval_s);
      if (!o.trace) continue;
      LayerValues v;
      for (const bool enabled : {false, true}) {
        SpanRecorder rec(enabled);
        const Clock::time_point t0 = Clock::now();
        LayerValues piece = redrive_edit(*it.ctx, rev1_cfg, build_dir.string(),
                                         edited, serial, rec, run);
        (enabled ? on_s : off_s).push_back(seconds_since(t0));
        if (enabled) {
          v = std::move(piece);
          last_spans = rec.collect();
        }
      }
      const auto& st = it.ctx->stats();
      v["core.checkpoint.restored"] = static_cast<double>(st.doc_artifacts_restored);
      v["core.checkpoint.recomputed"] =
          static_cast<double>(st.doc_artifacts_recomputed);
      v["core.checkpoint.hits"] = static_cast<double>(st.checkpoint_hits);
      v["core.checkpoint.misses"] = static_cast<double>(st.checkpoint_misses);
      v["core.checkpoint.corrupt"] = static_cast<double>(st.checkpoint_corrupt);
      v["core.checkpoint.bytes_read"] = static_cast<double>(it.io.read);
      v["core.checkpoint.bytes_written"] = static_cast<double>(it.io.written);
      v["core.eval_cache.groups_restored"] =
          static_cast<double>(it.sweep.groups_restored);
      v["core.eval_cache.groups_computed"] =
          static_cast<double>(it.sweep.groups_computed);
      v["core.eval_cache.records_evaluated"] =
          static_cast<double>(it.sweep.records_evaluated);
      reps.push_back(std::move(v));
    }
  }
  fs::remove_all(root);
  ::sync();  // leave no writeback of this run's files to the next process
  if (o.setup_only) return run.r;

  if (!o.trace) {
    run.line(distribution("incremental rebuild", rebuild_s));
    run.line(distribution("grouped delta sweep", eval_s));
    run.line("edit_rebuild_s = " + fmt("%.4f", median(rebuild_s)) +
             " s (median of " + std::to_string(rebuild_s.size()) +
             "), edit_eval_s = " + fmt("%.4f", median(eval_s)) +
             " s (median of " + std::to_string(eval_s.size()) + ")");
    // One edit served: a rebuild followed by its delta sweep.
    run.end_to_end(median(rebuild_s) * 1e3, median(eval_s) * 1e3,
                   1.0 / (median(rebuild_s) + median(eval_s)));
    return run.r;
  }
  const LayerValues values = median_values(reps);
  run.layers(values);
  overhead_line(run, "edit re-drive", on_s, off_s, "s");
  run.line("bytes read/written are /proc/self/io rchar/wchar deltas around "
           "the rebuild");
  write_trace_files(o, last_spans, values, run.r);
  return run.r;
}

// rag_serve ----------------------------------------------------------------------

struct Request {
  std::size_t record = 0;
  rag::Condition condition = rag::Condition::kChunks;
  std::size_t model = 0;
  /// Fresh query text: the record's query tagged with the request's
  /// number, unique in the process, so it is never in the cache.
  bool fresh = false;
  std::size_t ref = 0;  ///< index of the reference digest (repeat requests)
};

/// fnv1a over the hits' ids and score bits, in order.
std::uint64_t hits_digest(const std::vector<index::Hit>& hits) {
  util::Fnv1a h;
  for (const auto& hit : hits) {
    char bits[sizeof(float)];
    std::memcpy(bits, &hit.score, sizeof bits);
    h.update(hit.id).update('\0').update(std::string_view(bits, sizeof bits));
  }
  return h.digest();
}

/// A fresh request's reply, kept for checking after the timed loop.
struct FreshReply {
  std::size_t number = 0;  ///< the request's number in the process
  const Request* request = nullptr;
  std::uint64_t digest = 0;
};

struct LoopResult {
  std::vector<double> latency_ms;
  std::size_t failed = 0;
  double elapsed_s = 0.0;
};

/// Closed loop: each client sends its next request when the previous
/// reply arrives.  Request number i is requests[i % size]; serve_one gets
/// the request, its number and the client index.
template <typename Fn>
LoopResult closed_loop(const std::vector<Request>& requests,
                       std::atomic<std::size_t>& next, double seconds,
                       std::size_t max_requests, Fn&& serve_one) {
  std::vector<LoopResult> per_client(kServeClients);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const std::size_t stop = next.load() + max_requests;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c]() {
      LoopResult& out = per_client[c];
      while (Clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1);
        if (i >= stop) break;
        const Request& req = requests[i % requests.size()];
        const Clock::time_point r0 = Clock::now();
        const bool ok = serve_one(req, i, c);
        out.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - r0).count());
        if (!ok) ++out.failed;
      }
    });
  }
  for (auto& t : clients) t.join();
  LoopResult all;
  all.elapsed_s = seconds_since(t0);
  for (auto& r : per_client) {
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    all.failed += r.failed;
  }
  return all;
}

Result rag_serve(const Options& o) {
  Run run(o);
  const double scale = o.shrunk ? kShrunkServeScale : kServeScale;
  const core::PipelineContext ctx(build_config(scale, o.threads));
  rag::RetrievalStores stores;
  stores.chunks = &ctx.chunk_store();
  for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
    stores.traces[m] = &ctx.trace_store(static_cast<trace::TraceMode>(m));
  }
  const serve::QueryRouter router(stores, kServeShards);
  const rag::RagPipeline& rag = ctx.rag();
  std::vector<qgen::McqRecord> records = ctx.benchmark();
  records.insert(records.end(), ctx.exam_all().begin(), ctx.exam_all().end());
  const auto specs = ctx.student_specs();

  // Requests: records uniform over synthetic + Astro; 40% chunks and
  // 20% for each trace mode; the answering model's window uniform over
  // the eight students; one in kServeFreshOneIn with fresh query text.
  constexpr std::array<rag::Condition, 5> kMix{
      rag::Condition::kChunks, rag::Condition::kChunks,
      rag::Condition::kTraceDetailed, rag::Condition::kTraceFocused,
      rag::Condition::kTraceEfficient};
  util::Rng rng(o.seed);
  std::vector<Request> requests(1 << 17);
  std::map<std::pair<std::size_t, int>, std::size_t> ref_slot;
  std::vector<std::pair<std::size_t, rag::Condition>> ref_keys;
  for (Request& req : requests) {
    req.record = rng.bounded(static_cast<std::uint32_t>(records.size()));
    req.condition = kMix[rng.bounded(static_cast<std::uint32_t>(kMix.size()))];
    req.model = rng.bounded(static_cast<std::uint32_t>(specs.size()));
    req.fresh = rng.bounded(kServeFreshOneIn) == 0;
    if (req.fresh) continue;
    const auto key = std::make_pair(req.record, static_cast<int>(req.condition));
    const auto [it, inserted] = ref_slot.emplace(key, ref_keys.size());
    if (inserted) ref_keys.emplace_back(req.record, req.condition);
    req.ref = it->second;
  }
  const auto query_text = [&](const Request& req, std::size_t number) {
    std::string text = rag.query_for(records[req.record], req.condition);
    if (req.fresh) text += " [request " + std::to_string(number) + "]";
    return text;
  };

  // Reference hits of the repeat requests from the unsharded stores.
  // This leaves their query texts in the embedding cache: repeat traffic
  // is served warm, fresh traffic cold.
  std::vector<std::uint64_t> refs(ref_keys.size());
  {
    parallel::ThreadPool pool(o.threads);
    for (const rag::Condition c : {rag::Condition::kChunks,
                                   rag::Condition::kTraceDetailed,
                                   rag::Condition::kTraceFocused,
                                   rag::Condition::kTraceEfficient}) {
      std::vector<std::string> texts;
      std::vector<std::size_t> slots;
      for (std::size_t i = 0; i < ref_keys.size(); ++i) {
        if (ref_keys[i].second != c) continue;
        texts.push_back(rag.query_for(records[ref_keys[i].first], c));
        slots.push_back(i);
      }
      const auto hits = stores.store_for(c)->query_batch(
          texts, rag.config().top_k_for(c), pool);
      for (std::size_t j = 0; j < slots.size(); ++j) {
        refs[slots[j]] = hits_digest(hits[j]);
      }
    }
  }

  // Fresh replies are checked after the timed loop against the unsharded
  // store queried with the uncached embedder's vector.
  std::vector<std::vector<FreshReply>> fresh(kServeClients);
  const auto answer = [&](const Request& req, std::size_t number,
                          std::size_t client, const std::vector<index::Hit>& hits) {
    if (!req.fresh) return hits_digest(hits) == refs[req.ref];
    fresh[client].push_back({number, &req, hits_digest(hits)});
    return true;
  };
  const auto check_fresh = [&]() {
    std::vector<const FreshReply*> replies;
    for (const auto& per_client : fresh) {
      for (const auto& r : per_client) replies.push_back(&r);
    }
    std::atomic<std::size_t> mismatches{0};
    parallel::ThreadPool pool(o.threads);
    parallel::parallel_for(pool, 0, replies.size(), [&](std::size_t i) {
      const FreshReply& r = *replies[i];
      const rag::Condition c = r.request->condition;
      const auto ref = stores.store_for(c)->query_vector(
          ctx.embedder().embed(query_text(*r.request, r.number)),
          rag.config().top_k_for(c));
      if (hits_digest(ref) != r.digest) mismatches.fetch_add(1);
    });
    if (mismatches > 0) {
      run.line("CHECK FAILED: " + std::to_string(mismatches.load()) +
               " fresh-query replies differ from the unsharded store");
    }
    run.r.failed += mismatches;
    run.line("checked " + std::to_string(replies.size()) +
             " fresh-query replies after the timed loop");
  };

  std::atomic<std::size_t> sink{0};
  const auto library_request = [&](const Request& req, std::size_t number,
                                   std::size_t client) {
    const qgen::McqRecord& record = records[req.record];
    const auto hits = router.query(req.condition, query_text(req, number),
                                   rag.config().top_k_for(req.condition));
    const llm::McqTask task =
        rag.prepare_from_hits(record, req.condition, specs[req.model], hits);
    sink.fetch_add(task.context.size(), std::memory_order_relaxed);
    return answer(req, number, client, hits);
  };
  std::atomic<std::size_t> next{0};
  // Warm-up: code paths and per-thread allocator arenas.  Its fresh
  // replies are not counted as operations.
  closed_loop(requests, next, 10.0, o.shrunk ? 200 : 4000, library_request);
  for (auto& per_client : fresh) per_client.clear();
  std::size_t rows = 0;
  for (const auto* s : {stores.chunks, stores.traces[0], stores.traces[1],
                        stores.traces[2]}) {
    rows += s->size();
  }
  run.line("rag_serve: scale " + fmt("%.3f", scale) + ", " +
           std::to_string(ctx.chunk_store().size()) + " chunk rows (" +
           std::to_string(rows) + " rows in 4 stores), " +
           std::to_string(kServeShards) + " flat shards, " +
           std::to_string(kServeClients) + " closed-loop clients, " +
           std::to_string(records.size()) + " records, " +
           std::to_string(ref_keys.size()) +
           " distinct repeat (record, condition) queries, 1 in " +
           std::to_string(kServeFreshOneIn) + " requests with fresh query text");
  run.setup_done();
  if (o.setup_only) return run.r;
  const std::size_t unlimited = std::numeric_limits<std::size_t>::max() / 2;

  if (!o.trace) {
    const embed::EmbeddingCacheStats cache0 = cache_stats(ctx);
    const LoopResult loop =
        closed_loop(requests, next, o.seconds, unlimited, library_request);
    run.line(cache_line("the timed loop", cache0, cache_stats(ctx)));
    run.r.attempted = loop.latency_ms.size();
    run.r.failed = loop.failed;
    check_fresh();
    const std::size_t n = loop.latency_ms.size();
    const double qps = static_cast<double>(n) / loop.elapsed_s;
    const std::optional<double> p50 = nearest_rank(loop.latency_ms, 50);
    const std::optional<double> p90 = nearest_rank(loop.latency_ms, 90);
    const std::optional<double> p99 = nearest_rank(loop.latency_ms, 99);
    const auto ms = [](const std::optional<double>& v) {
      return v ? fmt("%.4f", *v) + " ms" : std::string("n/a");
    };
    run.line("serve_qps = " + fmt("%.1f", qps) + " 1/s (" + std::to_string(n) +
             " requests in " + fmt("%.3f", loop.elapsed_s) + " s)");
    run.line("serve_p50_ms = " + ms(p50) + ", serve_p90_ms = " + ms(p90) +
             ", serve_p99_ms = " + ms(p99) + " (nearest rank, n = " +
             std::to_string(n) + ")");
    if (const auto p999 = nearest_rank(loop.latency_ms, 99.9)) {
      run.line("serve_p99.9_ms = " + ms(p999));
    }
    if (!p99) {
      run.r.setup_ok = false;
      run.line("too few requests for a p99 with 10 samples beyond it");
    }
    // p90, not p99, is the gated tail: with 4 busy clients on 4 vCPUs the
    // p99 sits on the knee between the chunk-request body and the
    // scheduling-interference tail, and moves by a third between runs.
    run.end_to_end(p50.value_or(0.0), p90.value_or(0.0), qps);
    return run.r;
  }

  // Traced: the same request, split into query embedding, sharded scan +
  // merge, and assembly, in segments alternating with untraced ones.
  SpanRecorder rec(true);
  SpanRecorder off(false);
  const auto redriven = [&](SpanRecorder& r) {
    return [&](const Request& req, std::size_t number, std::size_t client) {
      const qgen::McqRecord& record = records[req.record];
      const Span root(r, "serve", "request");
      const serve::ShardedStore* store = router.store_for(req.condition);
      embed::Vector v;
      {
        const Span span(r, "embed", req.fresh ? "query_miss" : "query");
        v = store->base().embedder().embed(query_text(req, number));
      }
      std::vector<index::Hit> hits;
      {
        const Span span(r, "serve", "scan_merge");
        hits = store->query_vector(v, rag.config().top_k_for(req.condition));
      }
      {
        const Span span(r, "rag", "assemble");
        const llm::McqTask task =
            rag.prepare_from_hits(record, req.condition, specs[req.model], hits);
        sink.fetch_add(task.context.size(), std::memory_order_relaxed);
      }
      return answer(req, number, client, hits);
    };
  };
  std::vector<double> lib_ms;
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  double rows_scanned = 0.0;
  std::size_t traced_requests = 0;
  std::size_t traced_fresh = 0;
  const embed::EmbeddingCacheStats cache0 = cache_stats(ctx);
  const double segment = std::max(0.1, o.seconds / 12.0);
  for (std::size_t round = 0; run.more(round, 1); ++round) {
    for (int mode = 0; mode < 3; ++mode) {
      const std::size_t first = next.load();
      LoopResult loop =
          mode == 0 ? closed_loop(requests, next, segment, unlimited, library_request)
          : mode == 1 ? closed_loop(requests, next, segment, unlimited, redriven(off))
                      : closed_loop(requests, next, segment, unlimited, redriven(rec));
      run.r.attempted += loop.latency_ms.size();
      run.r.failed += loop.failed;
      auto& dst = mode == 0 ? lib_ms : mode == 1 ? off_ms : on_ms;
      dst.insert(dst.end(), loop.latency_ms.begin(), loop.latency_ms.end());
      if (mode != 2) continue;
      const std::size_t done = std::min(next.load(), first + loop.latency_ms.size());
      for (std::size_t i = first; i < done; ++i) {
        const Request& req = requests[i % requests.size()];
        rows_scanned += static_cast<double>(router.store_for(req.condition)->rows());
        if (req.fresh) ++traced_fresh;
      }
      traced_requests += done - first;
    }
  }
  const double hit_ratio = hit_share(cache0, cache_stats(ctx));
  check_fresh();
  const std::vector<SpanRecord> spans = rec.collect();
  const auto s = summarize(spans);
  const double requests_n = static_cast<double>(span_count(s, "serve.request"));
  const double scan_s = busy(s, "serve.scan_merge");
  LayerValues v;
  v["embed.query_busy_us"] =
      1e6 * ratio(busy(s, "embed.query") + busy(s, "embed.query_miss"), requests_n);
  v["embed.query_miss_us"] =
      1e6 * ratio(busy(s, "embed.query_miss"),
                  static_cast<double>(span_count(s, "embed.query_miss")));
  v["embed.query_cache_hit_ratio"] = hit_ratio;
  v["serve.scan_merge_busy_us"] = 1e6 * ratio(scan_s, requests_n);
  v["serve.rows_scanned_per_query"] =
      ratio(rows_scanned, static_cast<double>(traced_requests));
  v["index.scan_gbps_computed"] =
      ratio(rows_scanned * static_cast<double>(ctx.embedder().dim()) * 2.0,
            scan_s) * 1e-9;
  v["rag.assemble_busy_s"] = busy(s, "rag.assemble");
  v["rag.assemble_us_per_task"] =
      1e6 * ratio(busy(s, "rag.assemble"), requests_n);
  run.layers(v);
  run.line("traced requests: " + std::to_string(traced_requests) + ", " +
           std::to_string(traced_fresh) + " with fresh query text; "
           "embedding cache hit share over all segments " +
           fmt("%.4f", hit_ratio));
  overhead_line(run, "request latency", on_ms, off_ms, "ms");
  run.line("re-drive vs library request p50: " + fmt("%.4f", median(on_ms)) +
           " ms traced, " + fmt("%.4f", median(lib_ms)) + " ms library");
  run.line("index.scan_gbps_computed is rows x dim x 2 B over measured "
           "scan+merge time (computed, not a hardware counter)");
  write_trace_files(o, spans, v, run.r);
  return run.r;
}

}  // namespace

std::uint64_t artifact_digest(const core::PipelineContext& ctx) {
  const auto& s = ctx.stats();
  ArtifactViews v{ctx.parsed(), s.routing, s.parse_failures, s.documents,
                  ctx.chunks(), ctx.chunk_store(), ctx.benchmark(), s.funnel,
                  {}, {}};
  for (std::size_t m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    v.traces[m] = &ctx.traces(mode);
    v.trace_stores[m] = &ctx.trace_store(mode);
  }
  return digest_of(v);
}

std::uint64_t sweep_digest(const eval::SweepResult& sweep) {
  util::Fnv1a h;
  for (const auto& cell : sweep.cells) {
    h.update(cell.model);
    h.update('\0');
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(cell.condition),
          static_cast<std::uint64_t>(cell.accuracy.correct),
          static_cast<std::uint64_t>(cell.accuracy.total),
          static_cast<std::uint64_t>(cell.accuracy.unparseable)}) {
      h.update(std::to_string(v));
      h.update(';');
    }
  }
  return h.digest();
}

Result run_workload(const Options& options) {
  if (options.workload == "build_cold") return build_cold(options);
  if (options.workload == "eval_sweep") return eval_sweep(options);
  if (options.workload == "corpus_edit") return corpus_edit(options);
  if (options.workload == "rag_serve") return rag_serve(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
