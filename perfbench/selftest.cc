// Tests of the benchmark's own logic at a tiny size.

#include <bit>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "gtest/gtest.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, PicksTheSmallestSampleCoveringThePercentile) {
  const std::vector<double> samples = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(NearestRank(samples, 50.0), 5.0);
  EXPECT_EQ(NearestRank(samples, 90.0), 9.0);
  EXPECT_EQ(NearestRank(samples, 91.0), 10.0);
  EXPECT_EQ(NearestRank(samples, 100.0), 10.0);
  EXPECT_EQ(NearestRank(samples, 1.0), 1.0);
  EXPECT_EQ(NearestRank({42.0}, 90.0), 42.0);
  EXPECT_EQ(NearestRank({}, 50.0), 0.0);
}

TEST(NearestRankTest, SummaryCarriesTheSampleCount) {
  std::vector<SpanRecord> spans;
  for (int i = 1; i <= 20; ++i) {
    spans.push_back({"layer.call", 0, i * 1000000, -1, i, 0});
  }
  const std::vector<SpanSummary> summary = Summarize(spans);
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].count, 20);
  EXPECT_DOUBLE_EQ(summary[0].p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(summary[0].p90_ms, 18.0);
  EXPECT_DOUBLE_EQ(summary[0].total_ms, 210.0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildIntervals) {
  const int64_t ms = 1000000;
  const std::vector<SpanRecord> spans = {
      {"op", 0, 100 * ms, -1, 0, 0},
      {"a.x", 10 * ms, 30 * ms, 0, 0, 0},
      {"b.y", 20 * ms, 50 * ms, 0, 0, 1},  // overlaps a.x
      {"c.z", 60 * ms, 70 * ms, 0, 0, 0},
      {"d.w", 62 * ms, 65 * ms, 3, 0, 0},  // grandchild of op
      {"e.v", 95 * ms, 120 * ms, 0, 0, 0},  // clipped to the parent
  };
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0 - 5.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0 - 3.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  // 45 of op's 100 ms are covered by no child: a 45% residual.
  EXPECT_DOUBLE_EQ(ResidualPct(spans, 100.0), 45.0);
}

TEST(TracerTest, NestsSpansPerThreadAndRecordsNothingWhenOff) {
  Tracer off(false);
  { const Tracer::Scope span = off.Span("op", 1); }
  EXPECT_TRUE(off.Spans().empty());

  Tracer on(true);
  {
    const Tracer::Scope op = on.Span("op", 7);
    { const Tracer::Scope a = on.Span("a.first", 7); }
    const Tracer::Scope b = on.Span("b.second", 7);
    { const Tracer::Scope c = on.Span("c.inner", 7); }
  }
  { const Tracer::Scope next = on.Span("op", 8); }
  const std::vector<SpanRecord> spans = on.Spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[4].parent, -1);
  EXPECT_EQ(spans[4].request, 8);
  for (const SpanRecord& span : spans) EXPECT_GE(span.end_ns, span.start_ns);
}

class ReplayTest : public testing::TestWithParam<const char*> {};

TEST_P(ReplayTest, ReplayEqualsMultiplayerGameRun) {
  const msopds::Dataset base =
      msopds::MakeExperimentDataset("ciao", 0.03, /*seed=*/5);
  const msopds::MultiplayerGame game(base, msopds::DefaultGameConfig());
  const msopds::AttackFactory factory = msopds::MakeAttackFactory(GetParam());
  for (uint64_t seed : {11u, 12u}) {
    const msopds::GameResult expected = game.Run(factory, 3, seed);
    Tracer tracer(true);
    GameCounters counters;
    const msopds::GameResult replayed =
        ReplayGame(game, factory, 3, seed, &tracer, 0, &counters);
    EXPECT_EQ(CompareGames(expected, replayed), "") << GetParam();
    EXPECT_EQ(replayed.attacker_plan.actions.size(),
              expected.attacker_plan.actions.size());
    EXPECT_EQ(replayed.opponent_ratings, expected.opponent_ratings);
    EXPECT_GT(counters.victim_epochs, 0);
    EXPECT_GT(counters.arena_allocs[2], 0);
    // Every layer call of the game sits inside the op span.
    const std::vector<SpanRecord> spans = tracer.Spans();
    ASSERT_FALSE(spans.empty());
    EXPECT_STREQ(spans[0].name, "op");
    EXPECT_LT(ResidualPct(spans, 100.0), 5.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, ReplayTest,
                         testing::Values("RevAdv", "MSOPDS"));

TEST(CheckTest, CorruptedExpectedValueIsAFailedOp) {
  const msopds::Dataset base =
      msopds::MakeExperimentDataset("ciao", 0.03, /*seed=*/5);
  const msopds::MultiplayerGame game(base, msopds::DefaultGameConfig());
  const msopds::AttackFactory factory = msopds::MakeAttackFactory("RevAdv");
  msopds::GameResult expected = game.Run(factory, 3, 21);
  Tracer off(false);
  const msopds::GameResult replayed =
      ReplayGame(game, factory, 3, 21, &off, -1, nullptr);
  ASSERT_EQ(CompareGames(expected, replayed), "");

  // Flip the lowest bit of rbar: the smallest possible corruption.
  expected.average_rating = std::bit_cast<double>(
      std::bit_cast<uint64_t>(expected.average_rating) ^ 1u);
  Outcome outcome;
  outcome.attempted = 1;
  outcome.op_ms = {1.0};
  outcome.timed_s = 1.0;
  const std::string error = CompareGames(expected, replayed);
  ASSERT_NE(error, "");
  outcome.Fail(error);
  const std::string line = ResultLine(outcome, /*trace=*/false);
  EXPECT_NE(line.find("\"correct\": false"), std::string::npos) << line;
  EXPECT_NE(line.find("\"failed\": 1"), std::string::npos) << line;
}

RunOptions TinyRun(const char* workload) {
  RunOptions options;
  options.workload = workload;
  options.seed = 3;
  options.seconds = 0.2;
  options.trace = true;
  options.out_dir = testing::TempDir();
  return options;
}

/// Failures other than the span-residual check, which tiny ops (tens of
/// microseconds) can trip with the benchmark's own bookkeeping.
int64_t OutputFailures(const Outcome& outcome) {
  int64_t residual = 0;
  for (const std::string& failure : outcome.failures) {
    if (failure.rfind("layer spans leave", 0) == 0) ++residual;
  }
  return outcome.failed - residual;
}

TEST(WorkloadTest, ServeResponsesMatchTopKForUsersAcrossPublishes) {
  ServeShape shape;
  shape.users = 300;
  shape.items = 512;
  shape.dim = 8;
  shape.seen_per_user = 5;
  shape.publish_every = 40;
  shape.check_every = 3;
  shape.warmup_requests = 20;
  const Outcome outcome = RunServeWorkload(shape, TinyRun("serve-topk"));
  EXPECT_EQ(OutputFailures(outcome), 0);
  EXPECT_GT(outcome.attempted, 100);
  EXPECT_EQ(outcome.setup_s.size(), 3u);
  EXPECT_EQ(outcome.per_layer.at("serve.mismatches"), 0.0);
  EXPECT_GT(outcome.per_layer.at("serve.export_ms"), 0.0);
  EXPECT_GT(outcome.per_layer.at("serve.batches"), 0.0);
}

TEST(WorkloadTest, IngestTrainRepeatsAndMatchesTheInMemoryReference) {
  IngestShape shape;
  shape.users = 2000;
  shape.ratings_per_user = 4;
  shape.shards = 3;
  shape.dim = 4;
  shape.epochs = 2;
  const Outcome outcome = RunIngestWorkload(shape, TinyRun("ingest-train"));
  EXPECT_EQ(OutputFailures(outcome), 0);
  EXPECT_GE(outcome.attempted, 3);
  EXPECT_EQ(outcome.per_layer.at("scale.shards_visited"), 3.0 * (2 + 1));
  EXPECT_GT(outcome.per_layer.at("scale.ratings"), 0.0);
  EXPECT_GT(outcome.per_layer.at("recsys.train_mf_ms"), 0.0);
}

std::string Quoted(const char* name) {
  std::string quoted = "\"";
  quoted += name;
  quoted += '"';
  return quoted;
}

TEST(ResultLineTest, PrintsEveryMetricOfTheMode) {
  Outcome outcome;
  outcome.attempted = 3;
  outcome.setup_s = {2.0, 1.0, 3.0};
  outcome.op_ms = {4.0, 5.0, 6.0};
  outcome.timed_s = 1.5;
  const std::string untraced = ResultLine(outcome, false);
  EXPECT_NE(untraced.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(untraced.find("\"setup_s\": {\"value\": 2, \"unit\": \"s\"}"),
            std::string::npos)
      << untraced;
  EXPECT_NE(untraced.find("\"ops_per_s\": {\"value\": 2, \"unit\": \"1/s\"}"),
            std::string::npos)
      << untraced;
  for (const MetricSpec& spec : EndToEndMetrics()) {
    EXPECT_NE(untraced.find(Quoted(spec.name)), std::string::npos);
  }
  const std::string traced = ResultLine(outcome, true);
  for (const MetricSpec& spec : PerLayerMetrics()) {
    EXPECT_NE(traced.find(Quoted(spec.name)), std::string::npos);
  }
  EXPECT_EQ(traced.find("\"setup_s\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
