/**
 * @file
 * Tests for the reporting tier (src/report/): the MetricSketch
 * distribution against a sorted-vector oracle, the ReportBuilder
 * rollup semantics (grouping, failures, order independence) and the
 * regression diff gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "report/diff.hh"
#include "report/quantile.hh"
#include "report/rollup.hh"

namespace stfm
{
namespace report
{
namespace
{

/** Nearest-rank quantile against a raw sample vector: the value at
 *  rank ceil(p * n), 1-based, ascending — the stfm-report-v1
 *  percentile definition MetricSketch must match exactly while in the
 *  exact phase. */
double
oracleQuantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p * n));
    if (rank == 0)
        rank = 1;
    return values[rank - 1];
}

// MetricSketch ------------------------------------------------------

TEST(MetricSketch, EmptyIsZero)
{
    MetricSketch s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
}

TEST(MetricSketch, SingleSample)
{
    MetricSketch s;
    s.add(1.37);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.min(), 1.37);
    EXPECT_DOUBLE_EQ(s.max(), 1.37);
    EXPECT_DOUBLE_EQ(s.mean(), 1.37);
    // Every percentile of one sample is that sample.
    for (const double p : {0.01, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(s.quantile(p), 1.37);
}

TEST(MetricSketch, ExactQuantilesMatchSortedOracle)
{
    std::mt19937 rng(20070712); // MICRO 2007 submission-ish seed.
    std::lognormal_distribution<double> dist(0.3, 0.6);
    // 5,000 samples is past any fixed cap a bucketing sketch would
    // use; every statistic must stay exact.
    for (const int n : {1000, 5000})
    {
        std::vector<double> values;
        MetricSketch s;
        for (int i = 0; i < n; ++i)
        {
            const double v = dist(rng);
            values.push_back(v);
            s.add(v);
        }
        ASSERT_EQ(s.count(), values.size());
        for (const double p :
             {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0})
            EXPECT_EQ(s.quantile(p), oracleQuantile(values, p))
                << "n=" << n << " p=" << p;
        std::sort(values.begin(), values.end());
        EXPECT_EQ(s.min(), values.front()) << "n=" << n;
        EXPECT_EQ(s.max(), values.back()) << "n=" << n;
        double sum = 0.0;
        for (const double v : values)
            sum += v;
        EXPECT_EQ(s.mean(), sum / n) << "n=" << n;
    }
}

TEST(MetricSketch, SerializationIsCanonicallySorted)
{
    MetricSketch s;
    s.add(5.0);
    s.add(1.0);
    s.add(3.0);
    const Json doc = s.toJson();
    const Json &samples = doc.at("samples", "sketch");
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples.at(std::size_t{0}).asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(samples.at(std::size_t{1}).asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(samples.at(std::size_t{2}).asDouble(), 5.0);
}

// ReportBuilder -----------------------------------------------------

RunOutcome
makeOutcome(double unfairness, std::vector<double> slowdowns,
            double weighted_speedup = 1.5)
{
    RunOutcome outcome;
    outcome.metrics.unfairness = unfairness;
    outcome.metrics.slowdowns = std::move(slowdowns);
    outcome.metrics.weightedSpeedup = weighted_speedup;
    return outcome;
}

RunOutcome
makeFailedOutcome()
{
    RunOutcome outcome;
    outcome.failed = true;
    outcome.error = "injected";
    return outcome;
}

TEST(ReportBuilder, GroupsBySchedulerAndDeviceWithSuffixStripping)
{
    ReportBuilder builder("unit");
    // The cross-device plan labels schedulers "NAME@DEVICE"; the group
    // key must strip the suffix when it names the run's device.
    builder.addOutcome("STFM@DDR4-2400", "DDR4-2400", "mix1",
                       makeOutcome(1.2, {1.1, 1.2}), 0);
    builder.addOutcome("STFM@DDR4-2400", "DDR4-2400", "mix2",
                       makeOutcome(1.4, {1.3, 1.4}), 0);
    builder.addOutcome("FR-FCFS@DDR4-2400", "DDR4-2400", "mix1",
                       makeOutcome(2.6, {1.0, 2.6}), 1);

    const Json doc = builder.toJson();
    EXPECT_EQ(doc.at("schema", "report").asString(), "stfm-report-v1");
    EXPECT_EQ(doc.at("name", "report").asString(), "unit");
    const Json &totals = doc.at("totals", "report");
    EXPECT_EQ(totals.at("runs", "totals").asUint(), 3u);
    EXPECT_EQ(totals.at("groups", "totals").asUint(), 2u);
    EXPECT_EQ(totals.at("schedulers", "totals").asUint(), 2u);
    EXPECT_EQ(totals.at("devices", "totals").asUint(), 1u);
    EXPECT_EQ(totals.at("workloads", "totals").asUint(), 2u);

    const Json &groups = doc.at("groups", "report");
    ASSERT_EQ(groups.size(), 2u);
    // Order hints (plan scheduler index) fix serialization order.
    EXPECT_EQ(groups.at(std::size_t{0}).at("scheduler", "g").asString(),
              "STFM");
    EXPECT_EQ(groups.at(std::size_t{1}).at("scheduler", "g").asString(),
              "FR-FCFS");
    EXPECT_EQ(groups.at(std::size_t{0}).at("device", "g").asString(),
              "DDR4-2400");
    EXPECT_EQ(groups.at(std::size_t{0}).at("runs", "g").asUint(), 2u);

    const Json &unf =
        groups.at(std::size_t{0}).at("unfairness", "g");
    EXPECT_EQ(unf.at("count", "d").asUint(), 2u);
    EXPECT_DOUBLE_EQ(unf.at("max", "d").asDouble(), 1.4);
}

TEST(ReportBuilder, FailedRunsCountedButExcludedFromDistributions)
{
    ReportBuilder builder("failures");
    builder.addOutcome("STFM", "", "w", makeOutcome(1.3, {1.3}), 0);
    builder.addOutcome("STFM", "", "w", makeFailedOutcome(), 0);

    const Json doc = builder.toJson();
    EXPECT_EQ(doc.at("totals", "report").at("runs", "t").asUint(), 2u);
    EXPECT_EQ(doc.at("totals", "report").at("failed", "t").asUint(), 1u);
    const Json &group = doc.at("groups", "report").at(std::size_t{0});
    EXPECT_EQ(group.at("runs", "g").asUint(), 2u);
    EXPECT_EQ(group.at("failed", "g").asUint(), 1u);
    // Only the successful run's metrics fold into the distribution.
    EXPECT_EQ(group.at("unfairness", "g").at("count", "d").asUint(), 1u);
}

TEST(ReportBuilder, SerializationIsFoldOrderIndependent)
{
    const auto fold = [](const std::vector<int> &order) {
        ReportBuilder builder("order");
        const std::vector<std::tuple<const char *, const char *, double>>
            runs = {{"STFM", "alpha", 1.1},
                    {"STFM", "beta", 1.3},
                    {"FR-FCFS", "alpha", 2.2},
                    {"FR-FCFS", "beta", 2.7}};
        for (const int i : order)
        {
            const auto &[sched, wl, unf] = runs[i];
            builder.addOutcome(sched, "DDR3-1600", wl,
                               makeOutcome(unf, {unf}),
                               sched == std::string("STFM") ? 0 : 1);
        }
        return builder.toJson().dump();
    };
    const std::string forward = fold({0, 1, 2, 3});
    EXPECT_EQ(forward, fold({3, 2, 1, 0}));
    EXPECT_EQ(forward, fold({2, 0, 3, 1}));
}

// diffReports -------------------------------------------------------

Json
unitReport(double mix1_unfairness)
{
    ReportBuilder builder("diff-unit");
    builder.addOutcome("STFM", "DDR4-2400", "mix1",
                       makeOutcome(mix1_unfairness, {1.2}), 0);
    builder.addOutcome("STFM", "DDR4-2400", "mix2",
                       makeOutcome(1.5, {1.5}), 0);
    builder.addOutcome("FR-FCFS", "DDR4-2400", "mix1",
                       makeOutcome(2.4, {2.4}), 1);
    return builder.toJson();
}

TEST(ReportDiffTest, IdenticalReportsDiffClean)
{
    const Json report = unitReport(1.2);
    const ReportDiff diff = diffReports(report, report, DiffOptions{});
    EXPECT_FALSE(diff.regressed());
    EXPECT_EQ(diff.comparedGroups, 2u);
    EXPECT_EQ(diff.comparedWorkloads, 3u);
    EXPECT_EQ(diff.improvements, 0u);
}

TEST(ReportDiffTest, FlagsRegressionPastThreshold)
{
    // +5 % on a 2 % gate: regressed.
    const ReportDiff diff =
        diffReports(unitReport(1.2 * 1.05), unitReport(1.2),
                    DiffOptions{});
    ASSERT_TRUE(diff.regressed());
    bool saw_workload = false;
    for (const Regression &r : diff.regressions)
    {
        if (r.kind == "workload-unfairness")
        {
            saw_workload = true;
            EXPECT_EQ(r.scheduler, "STFM");
            EXPECT_EQ(r.device, "DDR4-2400");
            EXPECT_EQ(r.workload, "mix1");
            EXPECT_GT(r.current, r.baseline);
        }
    }
    EXPECT_TRUE(saw_workload);
}

TEST(ReportDiffTest, ToleratesIncreaseWithinThreshold)
{
    // +1 % on a 2 % gate: clean.
    const ReportDiff diff = diffReports(unitReport(1.2 * 1.01),
                                        unitReport(1.2), DiffOptions{});
    EXPECT_FALSE(diff.regressed());
}

TEST(ReportDiffTest, ThresholdIsConfigurable)
{
    DiffOptions loose;
    loose.threshold = 0.10;
    EXPECT_FALSE(
        diffReports(unitReport(1.2 * 1.05), unitReport(1.2), loose)
            .regressed());
    DiffOptions strict;
    strict.threshold = 0.001;
    EXPECT_TRUE(
        diffReports(unitReport(1.2 * 1.01), unitReport(1.2), strict)
            .regressed());
}

TEST(ReportDiffTest, CountsImprovements)
{
    const ReportDiff diff = diffReports(unitReport(1.2 * 0.9),
                                        unitReport(1.2), DiffOptions{});
    EXPECT_FALSE(diff.regressed());
    EXPECT_GE(diff.improvements, 1u);
}

TEST(ReportDiffTest, MissingBaselineCoverageIsRegression)
{
    // Current report lost the FR-FCFS group entirely.
    ReportBuilder builder("diff-unit");
    builder.addOutcome("STFM", "DDR4-2400", "mix1",
                       makeOutcome(1.2, {1.2}), 0);
    builder.addOutcome("STFM", "DDR4-2400", "mix2",
                       makeOutcome(1.5, {1.5}), 0);
    const ReportDiff diff = diffReports(builder.toJson(),
                                        unitReport(1.2), DiffOptions{});
    ASSERT_TRUE(diff.regressed());
    bool saw_missing = false;
    for (const Regression &r : diff.regressions)
        if (r.kind == "missing-group" && r.scheduler == "FR-FCFS")
            saw_missing = true;
    EXPECT_TRUE(saw_missing);

    // The reverse — coverage growth — is fine.
    EXPECT_FALSE(diffReports(unitReport(1.2), builder.toJson(),
                             DiffOptions{})
                     .regressed());
}

TEST(ReportDiffTest, DiffJsonCarriesSchemaAndRegressions)
{
    const ReportDiff diff =
        diffReports(unitReport(1.2 * 1.05), unitReport(1.2),
                    DiffOptions{});
    const Json doc = diffJson(diff, DiffOptions{});
    EXPECT_EQ(doc.at("schema", "diff").asString(), "stfm-reportdiff-v1");
    EXPECT_DOUBLE_EQ(doc.at("threshold", "diff").asDouble(), 0.02);
    EXPECT_TRUE(doc.at("regressed", "diff").asBool("diff"));
    EXPECT_EQ(doc.at("regressions", "diff").size(),
              diff.regressions.size());
}

TEST(ReportDiffTest, RejectsNonReportDocuments)
{
    const Json bogus = Json::parse("{\"schema\": \"stfm-results-v1\"}");
    EXPECT_THROW(diffReports(bogus, unitReport(1.2), DiffOptions{}),
                 SimError);
    EXPECT_THROW(diffReports(unitReport(1.2), bogus, DiffOptions{}),
                 SimError);
}

} // namespace
} // namespace report
} // namespace stfm
