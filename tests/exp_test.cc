#include <gtest/gtest.h>

#include <string>

#include "datagen/synthetic.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/stats.h"
#include "exp/sweep.h"

namespace fta {
namespace {

MultiCenterInstance TinySyn(uint64_t seed = 31) {
  SynConfig config;
  config.num_centers = 2;
  config.num_workers = 10;
  config.num_delivery_points = 16;
  config.num_tasks = 80;
  config.area = 10.0;
  config.seed = seed;
  return GenerateSyn(config);
}

SolverOptions FastOptions() {
  SolverOptions options;
  options.vdps.epsilon = 3.0;
  options.vdps.max_set_size = 3;
  return options;
}

// ------------------------------------------------------------ ResultTable --

TEST(ResultTableTest, TextRenderingContainsCells) {
  ResultTable t("demo", {"alg", "x=1", "x=2"});
  t.AddNumericRow("GTA", {1.5, 2.25});
  t.AddRow({"FGT", "a", "b"});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("GTA"), std::string::npos);
  EXPECT_NE(text.find("2.25"), std::string::npos);
  EXPECT_NE(text.find("x=2"), std::string::npos);
}

// ---------------------------------------------------------------- Runner --

TEST(RunnerTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kMpta), "MPTA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGta), "GTA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kFgt), "FGT");
  EXPECT_STREQ(AlgorithmName(Algorithm::kIegt), "IEGT");
  EXPECT_EQ(PaperAlgorithms().size(), 4u);
}

TEST(RunnerTest, RunOnInstanceProducesSaneMetrics) {
  const MultiCenterInstance multi = TinySyn();
  const SolverOptions options = FastOptions();
  for (Algorithm a : PaperAlgorithms()) {
    const RunMetrics m = RunOnInstance(a, multi.centers[0], options);
    EXPECT_EQ(m.num_workers, multi.centers[0].num_workers());
    EXPECT_GE(m.average_payoff, 0.0);
    EXPECT_GE(m.payoff_difference, 0.0);
    EXPECT_GE(m.cpu_seconds, 0.0);
    EXPECT_LE(m.assigned_workers, m.num_workers);
    EXPECT_TRUE(m.converged) << AlgorithmName(a);
  }
}

TEST(RunnerTest, RunOnMultiPoolsWorkers) {
  const MultiCenterInstance multi = TinySyn();
  const RunMetrics m =
      RunOnMulti(Algorithm::kGta, multi, FastOptions());
  EXPECT_EQ(m.num_workers, multi.num_workers());
}

TEST(RunnerTest, ParallelMatchesSerialMetrics) {
  const MultiCenterInstance multi = TinySyn();
  const SolverOptions options = FastOptions();
  const RunMetrics serial = RunOnMulti(Algorithm::kFgt, multi, options, 1);
  const RunMetrics parallel = RunOnMulti(Algorithm::kFgt, multi, options, 4);
  EXPECT_NEAR(serial.payoff_difference, parallel.payoff_difference, 1e-9);
  EXPECT_NEAR(serial.average_payoff, parallel.average_payoff, 1e-9);
  EXPECT_EQ(serial.assigned_workers, parallel.assigned_workers);
}

TEST(RunnerTest, RunWithCatalogExcludesGeneration) {
  const MultiCenterInstance multi = TinySyn();
  const SolverOptions options = FastOptions();
  const VdpsCatalog catalog =
      VdpsCatalog::Generate(multi.centers[0], options.vdps);
  const RunMetrics m =
      RunWithCatalog(Algorithm::kIegt, multi.centers[0], catalog, options);
  EXPECT_EQ(m.num_workers, multi.centers[0].num_workers());
  EXPECT_TRUE(m.converged);
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, SummarizeBasics) {
  const MetricSummary s = Summarize({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_EQ(s.n, 3u);
  EXPECT_GT(s.ci95, 0.0);
}

TEST(StatsTest, SummarizeEdgeCases) {
  const MetricSummary empty = Summarize({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  const MetricSummary single = Summarize({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.ci95, 0.0);
  const MetricSummary constant = Summarize({3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(constant.stddev, 0.0);
  EXPECT_DOUBLE_EQ(constant.ci95, 0.0);
}

TEST(StatsTest, ToStringMentionsMeanAndCi) {
  const MetricSummary s = Summarize({1.0, 2.0, 3.0});
  const std::string str = s.ToString();
  EXPECT_NE(str.find("2"), std::string::npos);
  EXPECT_NE(str.find("+-"), std::string::npos);
}

TEST(StatsTest, RunRepeatedAggregates) {
  const RepeatedRunSummary summary = RunRepeated(
      Algorithm::kGta,
      [](uint64_t seed) {
        SynConfig config;
        config.num_centers = 1;
        config.num_workers = 8;
        config.num_delivery_points = 12;
        config.num_tasks = 60;
        config.area = 8.0;
        config.seed = seed;
        return GenerateSyn(config);
      },
      FastOptions(), 4);
  EXPECT_EQ(summary.payoff_difference.n, 4u);
  EXPECT_GE(summary.average_payoff.mean, 0.0);
  EXPECT_GE(summary.cpu_seconds.mean, 0.0);
  // Distinct seeds produce distinct instances, so some variance exists.
  EXPECT_GT(summary.payoff_difference.max,
            summary.payoff_difference.min - 1e-12);
}

// ----------------------------------------------------------------- Sweep --

TEST(SweepTest, ProducesOneRowPerSeriesAndColumnPerPoint) {
  const SolverOptions options = FastOptions();
  const SweepResult result = RunParameterSweep(
      "Fig-test", "|W|", {"5", "10"},
      [](size_t p) {
        SynConfig config;
        config.num_centers = 1;
        config.num_workers = p == 0 ? 5 : 10;
        config.num_delivery_points = 12;
        config.num_tasks = 60;
        config.area = 8.0;
        config.seed = 3;
        return GenerateSyn(config);
      },
      {{"GTA", Algorithm::kGta, options},
       {"FGT", Algorithm::kFgt, options}});
  EXPECT_EQ(result.payoff_difference.num_rows(), 2u);
  EXPECT_EQ(result.average_payoff.num_rows(), 2u);
  EXPECT_EQ(result.cpu_time.num_rows(), 2u);
  const std::string text = result.ToText();
  EXPECT_NE(text.find("payoff difference"), std::string::npos);
  EXPECT_NE(text.find("GTA"), std::string::npos);
}

}  // namespace
}  // namespace fta
