// The benchmark's own tests: span self-time arithmetic, the nearest-rank
// percentile rule, and a shrunk run of every workload through its output
// checks, untraced and traced.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
                std::int64_t end, std::uint32_t thread = 0) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.layer = "l";
  s.name = "n";
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

TEST(SpanSelfTime, LeafIsItsDuration) {
  const auto self = self_times_ns({span(1, 0, 10, 35)});
  EXPECT_EQ(self[0], 25);
}

TEST(SpanSelfTime, SubtractsDisjointAndNestedChildren) {
  // Parent [0,100); children [10,20) and [50,80); grandchild [55,60)
  // belongs to the second child only.
  const auto self = self_times_ns({span(1, 0, 0, 100), span(2, 1, 10, 20),
                                   span(3, 1, 50, 80), span(4, 3, 55, 60)});
  EXPECT_EQ(self[0], 100 - 10 - 30);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 30 - 5);
  EXPECT_EQ(self[3], 5);
}

TEST(SpanSelfTime, OverlappingCrossThreadChildrenCountOnce) {
  // Three workers run children of one parent at once: their union is
  // [10,70), so the parent keeps 100 - 60 of its own time.
  const auto self = self_times_ns({span(1, 0, 0, 100, 0), span(2, 1, 10, 50, 1),
                                   span(3, 1, 20, 60, 2), span(4, 1, 40, 70, 3)});
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 40);
}

TEST(SpanSelfTime, ChildrenAreClippedToTheParent) {
  // A child that outlives its parent (work handed to another thread)
  // covers only the part inside the parent's interval.
  const auto self =
      self_times_ns({span(1, 0, 100, 200), span(2, 1, 50, 120, 1),
                     span(3, 1, 180, 400, 2)});
  EXPECT_EQ(self[0], 100 - 20 - 20);
}

TEST(SpanSelfTime, SummaryAddsSelfTimePerLayerAndName) {
  std::vector<SpanRecord> spans{span(1, 0, 0, 1000), span(2, 1, 0, 400)};
  spans[1].layer = "child";
  spans[1].name = "work";
  const auto s = summarize(spans);
  EXPECT_EQ(s.at("l").spans, 1u);
  EXPECT_NEAR(s.at("l").busy_s, 600e-9, 1e-15);
  EXPECT_NEAR(s.at("l").total_s, 1000e-9, 1e-15);
  EXPECT_NEAR(s.at("child.work").busy_s, 400e-9, 1e-15);
}

TEST(SpanRecorder, LinksParentsOnThisThreadOtherThreadsAndAmbient) {
  SpanRecorder rec(true);
  std::uint64_t root_id = 0;
  std::uint64_t nested_id = 0;
  {
    const Span root(rec, "a", "root");
    root_id = root.id();
    {
      const Span nested(rec, "a", "nested");
      nested_id = nested.id();
    }
    std::thread explicit_parent([&] { const Span s(rec, "b", "explicit", root_id); });
    explicit_parent.join();
    const AmbientParent ambient(rec, root_id);
    std::thread ambient_child([&] { const Span s(rec, "b", "ambient"); });
    ambient_child.join();
  }
  const auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& s : spans) {
    if (s.id == root_id) EXPECT_EQ(s.parent, 0u);
    else EXPECT_EQ(s.parent, root_id) << s.name;
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_NE(nested_id, 0u);
  std::size_t threads = 0;
  for (const auto& s : spans) threads = std::max<std::size_t>(threads, s.thread + 1);
  EXPECT_EQ(threads, 3u);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  { const Span s(rec, "a", "b"); EXPECT_EQ(s.id(), 0u); }
  EXPECT_TRUE(rec.collect().empty());
}

TEST(SpanRecorder, ChromeTraceHasOneEventPerSpan) {
  const std::string json =
      chrome_trace_json({span(1, 0, 1000, 3000), span(2, 1, 1500, 2000)}, 10);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":2,\"written\":2"), std::string::npos);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(NearestRank, PicksTheCeilRankSample) {
  EXPECT_EQ(nearest_rank(one_to(100), 50, 0), 50.0);
  EXPECT_EQ(nearest_rank(one_to(100), 90, 0), 90.0);
  EXPECT_EQ(nearest_rank(one_to(10), 95, 0), 10.0);
  EXPECT_EQ(nearest_rank(one_to(1), 1, 0), 1.0);
  EXPECT_FALSE(nearest_rank({}, 50, 0).has_value());
}

TEST(NearestRank, NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(nearest_rank(one_to(100), 90), 90.0);     // 10 beyond
  EXPECT_FALSE(nearest_rank(one_to(100), 91).has_value());  // 9 beyond
  EXPECT_EQ(nearest_rank(one_to(1000), 99), 990.0);
  EXPECT_FALSE(nearest_rank(one_to(999), 99).has_value());
  EXPECT_EQ(nearest_rank(one_to(20), 50), 10.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(HostState, StealRatioIsTheStealShareOfTheTickDelta) {
  EXPECT_DOUBLE_EQ(steal_ratio({1000, 10}, {2000, 60}), 0.05);
  EXPECT_EQ(steal_ratio({1000, 10}, {1000, 10}), 0.0);  // no time passed
  EXPECT_EQ(steal_ratio({}, {}), 0.0);                  // no /proc/stat
}

TEST(HostState, CalibrationLoopTakesMeasurableTime) {
  EXPECT_GT(calibration_ms(1), 0.0);
}

class ShrunkWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(ShrunkWorkload, PassesItsOutputChecks) {
  for (const bool traced : {false, true}) {
    Options o;
    o.workload = GetParam();
    o.seed = 7;
    o.seconds = 0.3;
    o.trace = traced;
    o.shrunk = true;
    o.threads = 2;
    o.workdir = "perfbench-test-work";
    const Result r = run_workload(o);
    EXPECT_TRUE(r.setup_ok) << o.workload << " trace=" << traced;
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u) << o.workload << " trace=" << traced;
    EXPECT_GT(r.metrics.at("setup_s").value, 0.0);
    if (traced) {
      EXPECT_TRUE(r.metrics.count("bench.trace_overhead_ratio"));
    } else {
      for (const char* name :
           {"primary_ms", "secondary_ms", "throughput_per_s", "peak_rss_mb"}) {
        EXPECT_GT(r.metrics.at(name).value, 0.0) << o.workload << " " << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, ShrunkWorkload,
                         ::testing::Values("build_cold", "eval_sweep",
                                           "corpus_edit", "rag_serve"));

}  // namespace
}  // namespace perfbench
