#include "bench_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, FailuresCountAsMisses) {
  std::vector<double> ok(99, 1.0);  // 99 fast answers
  // One failure out of 100: p99 still an answered value, p100 a miss.
  EXPECT_DOUBLE_EQ(PercentileWithMisses(ok, 1, 0.99), 1.0);
  EXPECT_TRUE(std::isinf(PercentileWithMisses(ok, 1, 1.0)));
  // Two failures out of 101: more than 1% missed, so p99 is a miss.
  EXPECT_TRUE(std::isinf(PercentileWithMisses(ok, 2, 0.99)));
  // A miss is slower than any latency: the median moves up with misses.
  std::vector<double> ramp = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PercentileWithMisses(ramp, 0, 0.5), 2);
  EXPECT_DOUBLE_EQ(PercentileWithMisses(ramp, 2, 0.5), 3);
  EXPECT_DOUBLE_EQ(PercentileWithMisses(ramp, 4, 0.5), 4);
  EXPECT_TRUE(std::isinf(PercentileWithMisses(ramp, 5, 0.5)));
  EXPECT_TRUE(std::isnan(PercentileWithMisses({}, 0, 0.5)));
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileWithMisses(v, 0, 0.99), 990);
  EXPECT_DOUBLE_EQ(PercentileWithMisses(v, 0, 0.5), 500);
  EXPECT_DOUBLE_EQ(PercentileWithMisses(v, 0, 0.0), 1);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

/// A synthetic server: p99 stays flat until `capacity`, then explodes;
/// beyond 1.1x capacity requests are shed.
ProbeOutcome SyntheticProbe(double rate, double capacity) {
  ProbeOutcome o;
  o.sent = static_cast<size_t>(rate);
  const double load = rate / capacity;
  o.p99_ms = load < 1 ? 2.0 + 3.0 * load / (1.0 - load * 0.99) : 1e9;
  o.shed = load > 1.1 ? o.sent / 10 : 0;
  o.ok = o.sent - o.shed;
  return o;
}

TEST(KneeTest, FindsTheLastRateWithinTheSlo) {
  RateGrid grid;
  for (double capacity : {900.0, 3100.0, 7777.0, 15000.0}) {
    KneeResult knee = FindKnee(
        grid, [&](double rate) { return SyntheticProbe(rate, capacity); }, 25.0,
        16);
    // A deterministic curve: the staircase ends oscillating around the
    // last passing grid rate, so the knee lies within one grid step below
    // it.
    int last_pass = -1;
    for (int i = 0; i < grid.steps; ++i) {
      if (ProbePasses(SyntheticProbe(grid.Rate(i), capacity), 25.0)) last_pass = i;
    }
    ASSERT_GE(last_pass, 1);
    EXPECT_LE(knee.rate, grid.Rate(last_pass) * (1 + 1e-12));
    EXPECT_GT(knee.rate, grid.Rate(last_pass - 1));
    EXPECT_LE(knee.rate, capacity);
    EXPECT_GT(knee.rate, capacity * 0.85);
    EXPECT_EQ(knee.probes, 16);
  }
}

TEST(KneeTest, OneUnluckyProbeCostsAReversalNotTheAnswer) {
  RateGrid grid;
  const double capacity = 4000;
  auto clean_probe = [&](double rate) { return SyntheticProbe(rate, capacity); };
  const KneeResult clean = FindKnee(grid, clean_probe, 25.0, 16);
  // The very first probe, far below capacity, fails by chance (1% shed).
  int calls = 0;
  KneeResult unlucky = FindKnee(
      grid,
      [&](double rate) {
        ProbeOutcome o = clean_probe(rate);
        if (++calls == 1) {
          o.shed = o.sent / 100;
          o.ok = o.sent - o.shed;
        }
        return o;
      },
      25.0, 16);
  EXPECT_FALSE(unlucky.trace[0].second);
  EXPECT_NEAR(unlucky.rate, clean.rate, clean.rate * (grid.ratio - 1));
}

TEST(KneeTest, NothingPasses) {
  KneeResult knee = FindKnee(
      RateGrid{}, [](double rate) { return SyntheticProbe(rate, 1); }, 25.0, 16);
  EXPECT_EQ(knee.rate, 0);
}

TEST(ProbeTest, AnyShedFailedOrUnansweredFails) {
  ProbeOutcome o;
  o.sent = o.ok = 100;
  o.p99_ms = 3;
  EXPECT_TRUE(ProbePasses(o, 25));
  ProbeOutcome shed = o;
  shed.shed = 1;
  shed.ok = 99;
  EXPECT_FALSE(ProbePasses(shed, 25));
  ProbeOutcome lost = o;
  lost.unanswered = 1;
  lost.ok = 99;
  EXPECT_FALSE(ProbePasses(lost, 25));
  ProbeOutcome slow = o;
  slow.p99_ms = 26;
  EXPECT_FALSE(ProbePasses(slow, 25));
  ProbeOutcome growing = o;
  growing.backlog_growing = true;
  EXPECT_FALSE(ProbePasses(growing, 25));
}

TEST(BacklogTest, SteadyVersusGrowing) {
  std::vector<double> due, steady, growing;
  for (int i = 0; i < 1000; ++i) {
    due.push_back(i * 0.001);
    steady.push_back(i * 0.001 + 0.002);    // always ~2 outstanding
    growing.push_back(i * 0.0015 + 0.002);  // served at 2/3 the arrival rate
  }
  EXPECT_FALSE(BacklogGrowing(due, steady, 0.004));
  EXPECT_TRUE(BacklogGrowing(due, growing, 0.004));
  // A one-off 20 ms stall mid-probe is not a growing backlog.
  std::vector<double> stall = steady;
  for (int i = 500; i < 520; ++i) stall[i] = 0.522;
  EXPECT_FALSE(BacklogGrowing(due, stall, 0.005));
}

const char kBefore[] =
    R"({"id": 7, "status": "ok", "stats": {"counters": {"calibration.cache.hits": 1000, "calibration.cache.misses": 200, "net.accepted": 3}, "gauges": {"model.version": 1}, "histograms": {"stmaker.stage.total_ms": {"count": 10, "sum": 5, "mean": 0.5, "p50": 0.4, "p95": 1, "p99": 1.2}}}, "model_version": 1})";
const char kAfter[] =
    R"({"id": 8, "status": "ok", "stats": {"counters": {"calibration.cache.hits": 1090, "calibration.cache.misses": 210, "net.accepted": 3, "threadpool.rejected": 4}, "gauges": {"model.version": 2}, "histograms": {"stmaker.stage.total_ms": {"count": 30, "sum": 25, "mean": 0.8333, "p50": 0.7, "p95": 2, "p99": 3}, "model.reload_ms": {"count": 2, "sum": 800, "mean": 400, "p50": 400, "p95": 400, "p99": 400}}}, "model_version": 2})";

TEST(StatsDeltaTest, CountersThatStartNonZero) {
  StatsSnapshot before, after;
  ASSERT_TRUE(ParseStatsResponse(kBefore, &before));
  ASSERT_TRUE(ParseStatsResponse(kAfter, &after));
  StatsDelta d(before, after);
  EXPECT_TRUE(d.consistent());
  // Only the phase's activity counts, not the totals since start.
  EXPECT_DOUBLE_EQ(d.Counter("calibration.cache.hits"), 90);
  EXPECT_DOUBLE_EQ(d.Counter("calibration.cache.misses"), 10);
  EXPECT_DOUBLE_EQ(d.Ratio("calibration.cache.hits", "calibration.cache.misses"), 0.9);
  EXPECT_DOUBLE_EQ(d.Counter("net.accepted"), 0);
  // Registered during the phase: it started at zero.
  EXPECT_DOUBLE_EQ(d.Counter("threadpool.rejected"), 4);
  EXPECT_DOUBLE_EQ(d.Counter("no.such.counter"), 0);
  // Histogram mean over the phase only: (25-5)/(30-10), not 25/30.
  EXPECT_DOUBLE_EQ(d.HistMean("stmaker.stage.total_ms"), 1.0);
  EXPECT_DOUBLE_EQ(d.HistMean("model.reload_ms"), 400);
  EXPECT_DOUBLE_EQ(d.Ratio("a", "b"), 0);
}

TEST(StatsDeltaTest, SnapshotsOfDifferentProcessesAreInconsistent) {
  StatsSnapshot before, after;
  ASSERT_TRUE(ParseStatsResponse(kAfter, &before));
  ASSERT_TRUE(ParseStatsResponse(kBefore, &after));
  EXPECT_FALSE(StatsDelta(before, after).consistent());
}

TEST(StatsDeltaTest, RejectsNonStatsLines) {
  StatsSnapshot s;
  EXPECT_FALSE(ParseStatsResponse(R"({"id": 1, "status": "ok", "text": "x"})", &s));
  EXPECT_FALSE(ParseStatsResponse(R"({"id": 1, "status": "invalid_argument", "error": "x"})", &s));
  EXPECT_FALSE(ParseStatsResponse("{not json", &s));
}

TEST(JsonTest, FlattensNestedDocuments) {
  FlatJsonDoc doc;
  ASSERT_TRUE(ParseJson(
      R"({"id": 3, "status": "ok", "results": [{"trip": 5, "score": 0.5}], "text": "a \"b\"\nc", "e": [], "n": null})",
      &doc));
  EXPECT_EQ(doc.Number("id"), 3);
  EXPECT_EQ(doc.Number("results/0/trip"), 5);
  EXPECT_EQ(doc.Number("results/0/score"), 0.5);
  EXPECT_EQ(doc.strings.at("text"), "a \"b\"\nc");
  EXPECT_FALSE(doc.Has("results/1/trip"));
  FlatJsonDoc bad;
  EXPECT_FALSE(ParseJson(R"({"a": 1,})", &bad));
  EXPECT_FALSE(ParseJson(R"({"a": 1} x)", &bad));
}

}  // namespace
}  // namespace perfbench
