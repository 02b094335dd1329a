/**
 * @file
 * Tests for the experiment runner (alone-run caching, metric plumbing).
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

namespace stfm
{
namespace
{

SimConfig
base()
{
    SimConfig config = SimConfig::baseline(2);
    config.instructionBudget = 6000;
    config.warmupInstructions = 2000;
    return config;
}

TEST(Runner, AloneResultsAreCached)
{
    ExperimentRunner runner(base());
    const ThreadResult &a = runner.aloneResult("hmmer");
    const ThreadResult &b = runner.aloneResult("hmmer");
    EXPECT_EQ(&a, &b); // Same cached object.
    EXPECT_GT(a.mcpi(), 0.0);
}

TEST(Runner, RunProducesAlignedMetrics)
{
    ExperimentRunner runner(base());
    SchedulerConfig sched;
    const RunOutcome outcome = runner.run({"mcf", "h264ref"}, sched);
    EXPECT_EQ(outcome.policyName, "FR-FCFS");
    ASSERT_EQ(outcome.metrics.slowdowns.size(), 2u);
    EXPECT_GE(outcome.metrics.unfairness, 1.0);
    EXPECT_GT(outcome.metrics.weightedSpeedup, 0.0);
}

TEST(Runner, PaperSchedulersCoverAllFive)
{
    const auto schedulers = ExperimentRunner::paperSchedulers();
    ASSERT_EQ(schedulers.size(), 5u);
    EXPECT_EQ(schedulers[0].kind, PolicyKind::FrFcfs);
    EXPECT_EQ(schedulers[1].kind, PolicyKind::Fcfs);
    EXPECT_EQ(schedulers[2].kind, PolicyKind::FrFcfsCap);
    EXPECT_EQ(schedulers[3].kind, PolicyKind::Nfq);
    EXPECT_EQ(schedulers[4].kind, PolicyKind::Stfm);
    EXPECT_DOUBLE_EQ(schedulers[4].alpha, 1.10);
}

TEST(Runner, RunAllReturnsOnePerScheduler)
{
    ExperimentRunner runner(base());
    const auto outcomes = runner.runAll(
        {"hmmer", "gcc"}, ExperimentRunner::paperSchedulers());
    ASSERT_EQ(outcomes.size(), 5u);
    for (const RunOutcome &o : outcomes)
        EXPECT_FALSE(o.shared.hitCycleLimit);
}

TEST(Runner, DifferentMemoryConfigsDoNotShareAloneCache)
{
    SimConfig a = base();
    ExperimentRunner runner_a(a);
    const double mcpi_8banks = runner_a.aloneResult("mcf").mcpi();

    SimConfig b = base();
    b.memory.banksPerChannel = 4;
    ExperimentRunner runner_b(b);
    const double mcpi_4banks = runner_b.aloneResult("mcf").mcpi();
    // Fewer banks => more conflicts => different (higher) alone MCPI.
    EXPECT_NE(mcpi_8banks, mcpi_4banks);
}

} // namespace
} // namespace stfm
