/**
 * @file
 * Tests for the declarative experiment layer: spec parsing, catalog
 * expansion, environment-override folding, and the end-to-end contract
 * that a spec-driven run is bit-identical to the same experiment
 * hand-constructed against SimConfig + ExperimentRunner.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/spec.hh"
#include "sim/config_io.hh"

namespace stfm
{
namespace
{

/** Clear every STFM_* knob for the duration of a test. */
class EnvGuard
{
  public:
    EnvGuard()
    {
        for (const char *name : kNames) {
            if (const char *value = std::getenv(name))
                saved_.emplace_back(name, value);
            unsetenv(name);
        }
    }
    ~EnvGuard()
    {
        for (const char *name : kNames)
            unsetenv(name);
        for (const auto &[name, value] : saved_)
            setenv(name.c_str(), value.c_str(), 1);
    }

  private:
    static constexpr const char *kNames[] = {
        "STFM_INSTRUCTIONS", "STFM_REFERENCE", "STFM_CHECK",
        "STFM_JOBS"};
    std::vector<std::pair<std::string, std::string>> saved_;
};

TEST(Spec, ParsesCatalogNamesAndInlineMixes)
{
    const ExperimentSpec spec = specFromText(R"({
        "name": "t",
        "workloads": ["case_intensive", ["mcf", "hmmer"]],
        "budget": 4000
    })");
    ASSERT_EQ(spec.workloads.size(), 2u);
    EXPECT_EQ(spec.workloads[0], workloads::caseIntensive());
    EXPECT_EQ(spec.workloads[1], (Workload{"mcf", "hmmer"}));
    EXPECT_TRUE(spec.schedulers.empty()); // Defaults to the paper five.
    EXPECT_EQ(spec.budget, 4000u);
}

TEST(Spec, CatalogNamesMayExpandToSeveralWorkloads)
{
    const ExperimentSpec spec = specFromText(
        R"({"name": "t", "workloads": ["sixteen_core"]})");
    EXPECT_EQ(spec.workloads.size(), 3u); // high16, high8+low8, low16.
    for (const Workload &w : spec.workloads)
        EXPECT_EQ(w.size(), 16u);
}

TEST(Spec, SchedulerEntriesStringAndObjectForms)
{
    const ExperimentSpec spec = specFromText(R"({
        "name": "t",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": ["NFQ",
                       {"label": "tuned", "policy": "STFM",
                        "alpha": 1.5, "gamma": 0.25}]
    })");
    ASSERT_EQ(spec.schedulers.size(), 2u);
    EXPECT_EQ(spec.schedulers[0].label, "NFQ");
    EXPECT_EQ(spec.schedulers[0].config.kind, PolicyKind::Nfq);
    EXPECT_EQ(spec.schedulers[1].label, "tuned");
    EXPECT_EQ(spec.schedulers[1].config.kind, PolicyKind::Stfm);
    EXPECT_DOUBLE_EQ(spec.schedulers[1].config.alpha, 1.5);
    EXPECT_DOUBLE_EQ(spec.schedulers[1].config.gamma, 0.25);
}

TEST(Spec, RejectsUnknownKeysAndBadShapes)
{
    // Top-level typo.
    EXPECT_THROW(
        specFromText(R"({"name": "t", "workload": ["case_mixed"]})"),
        SimError);
    // Unknown workload name lists the catalog.
    try {
        specFromText(R"({"name": "t", "workloads": ["case_intense"]})");
        FAIL() << "unknown workload accepted";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("case_intense"), std::string::npos);
        EXPECT_NE(what.find("case_intensive"), std::string::npos);
    }
    // Empty inline mix.
    EXPECT_THROW(specFromText(R"({"name": "t", "workloads": [[]]})"),
                 SimError);
    // No workloads at all -> zero-thread experiment.
    EXPECT_THROW(specFromText(R"({"name": "t"})"), SimError);
    // Missing the required name.
    EXPECT_THROW(specFromText(R"({"workloads": ["case_mixed"]})"),
                 SimError);
    // repeat must be >= 1.
    EXPECT_THROW(
        specFromText(
            R"({"name": "t", "workloads": ["case_mixed"], "repeat": 0})"),
        SimError);
}

TEST(Spec, RoundTripsThroughCanonicalJson)
{
    const std::string text = R"({
        "name": "round",
        "title": "Round trip",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": [{"label": "S", "policy": "STFM", "alpha": 1.2}],
        "config": {"memory": {"banksPerChannel": 16}},
        "budget": 9000,
        "repeat": 2,
        "seed": 11
    })";
    const ExperimentSpec spec = specFromText(text);
    const ExperimentSpec again = specFromJson(toJson(spec));
    EXPECT_EQ(toJson(again).dump(), toJson(spec).dump());
    EXPECT_EQ(again.budget, 9000u);
    EXPECT_EQ(again.repeat, 2u);
    EXPECT_EQ(again.seed, 11u);
}

TEST(Spec, EnvOverridesFoldIntoResolution)
{
    EnvGuard guard;
    setenv("STFM_INSTRUCTIONS", "7777", 1);
    setenv("STFM_REFERENCE", "1", 1);
    setenv("STFM_CHECK", "1", 1);
    setenv("STFM_JOBS", "3", 1);

    const EnvOverrides env = EnvOverrides::capture();
    EXPECT_TRUE(env.any());
    EXPECT_EQ(env.jobsOr(1), 3u);

    const ExperimentSpec spec = specFromText(
        R"({"name": "t", "workloads": [["mcf", "hmmer"]],
            "budget": 4000})");
    const SimConfig config = resolveConfig(spec, env);
    EXPECT_EQ(config.instructionBudget, 7777u); // Env wins over spec.
    EXPECT_FALSE(config.fastForward);           // STFM_REFERENCE.
    EXPECT_TRUE(config.memory.controller.integrity.protocolCheck);
    EXPECT_TRUE(config.memory.controller.integrity.watchdog);

    // The active overrides are recorded for the results echo; host
    // parallelism is not, since it never changes a result.
    const Json echo = env.toJson();
    EXPECT_EQ(echo.at("STFM_INSTRUCTIONS", "env").asInt("env"), 7777);
    EXPECT_TRUE(echo.has("STFM_REFERENCE"));
    EXPECT_TRUE(echo.has("STFM_CHECK"));
    EXPECT_FALSE(echo.has("STFM_JOBS"));
}

TEST(Spec, ResultsJsonDoesNotDependOnPoolWidth)
{
    EnvGuard guard;
    const ExperimentSpec spec = specFromText(R"({
        "name": "width",
        "workloads": [["mcf", "hmmer"], ["mcf", "h264ref"]],
        "schedulers": ["FR-FCFS", "STFM"],
        "budget": 3000
    })");
    setenv("STFM_JOBS", "1", 1);
    const std::string serial = resultsJson(runExperiment(spec)).dump();
    setenv("STFM_JOBS", "3", 1);
    const std::string pooled = resultsJson(runExperiment(spec)).dump();
    EXPECT_EQ(serial, pooled);
}

TEST(Spec, SpecRunMatchesHandConstructedRunBitForBit)
{
    EnvGuard guard; // A stray STFM_INSTRUCTIONS would skew both paths.

    // The declarative path.
    const ExperimentSpec spec = specFromText(R"({
        "name": "e2e",
        "workloads": [["mcf", "h264ref"]],
        "schedulers": ["FR-FCFS", "STFM"],
        "config": {"warmupInstructions": 2000},
        "budget": 5000
    })");
    const ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.rows(), 1u);
    ASSERT_EQ(result.schedulers.size(), 2u);

    // The same experiment against the raw harness.
    SimConfig base = SimConfig::baseline(2);
    base.warmupInstructions = 2000;
    base.instructionBudget = 5000;
    ExperimentRunner runner(base);
    SchedulerConfig stfm_cfg;
    stfm_cfg.kind = PolicyKind::Stfm;
    const RunOutcome by_hand[] = {
        runner.run({"mcf", "h264ref"}, SchedulerConfig{}),
        runner.run({"mcf", "h264ref"}, stfm_cfg),
    };

    for (std::size_t s = 0; s < 2; ++s) {
        const RunOutcome &a = result.outcome(0, s);
        const RunOutcome &b = by_hand[s];
        ASSERT_FALSE(a.failed);
        ASSERT_FALSE(b.failed);
        EXPECT_EQ(a.shared.totalCycles, b.shared.totalCycles);
        ASSERT_EQ(a.shared.threads.size(), b.shared.threads.size());
        for (std::size_t t = 0; t < a.shared.threads.size(); ++t) {
            const ThreadResult &x = a.shared.threads[t];
            const ThreadResult &y = b.shared.threads[t];
            EXPECT_EQ(x.instructions, y.instructions);
            EXPECT_EQ(x.cycles, y.cycles);
            EXPECT_EQ(x.memStallCycles, y.memStallCycles);
            EXPECT_EQ(x.dramReads, y.dramReads);
            EXPECT_EQ(x.dramWrites, y.dramWrites);
            EXPECT_EQ(x.rowHits, y.rowHits);
        }
        EXPECT_DOUBLE_EQ(a.metrics.unfairness, b.metrics.unfairness);
        EXPECT_DOUBLE_EQ(a.metrics.weightedSpeedup,
                         b.metrics.weightedSpeedup);
    }
}

TEST(Spec, ResultsJsonEchoesSchemaAndResolvedConfig)
{
    EnvGuard guard;
    const ExperimentSpec spec = specFromText(R"({
        "name": "doc",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": ["FR-FCFS"],
        "config": {"memory": {"banksPerChannel": 16}},
        "budget": 3000
    })");
    const ExperimentResult result = runExperiment(spec);
    const Json doc = resultsJson(result);

    EXPECT_EQ(doc.at("schema", "doc").asString("schema"),
              "stfm-results-v1");
    EXPECT_EQ(doc.at("name", "doc").asString("name"), "doc");
    // The spec echo round-trips.
    EXPECT_EQ(toJson(specFromJson(doc.at("spec", "doc"))).dump(),
              toJson(spec).dump());
    // The resolved config reflects both the baseline and the override.
    const Json &config = doc.at("resolvedConfig", "doc");
    EXPECT_EQ(config.at("cores", "config").asInt("cores"), 2);
    EXPECT_EQ(config.at("instructionBudget", "config").asInt("b"), 3000);
    EXPECT_EQ(config.at("memory", "config")
                  .at("banksPerChannel", "memory")
                  .asInt("banks"),
              16);
    // Runs carry metrics and per-thread stats.
    const Json &runs = doc.at("runs", "doc");
    ASSERT_EQ(runs.size(), 1u);
    const Json &run = runs.at(0);
    EXPECT_EQ(run.at("scheduler", "run").asString("s"), "FR-FCFS");
    EXPECT_FALSE(run.at("failed", "run").asBool("failed"));
    EXPECT_EQ(run.at("metrics", "run").at("slowdowns", "m").size(), 2u);
    EXPECT_EQ(run.at("threads", "run").size(), 2u);
    EXPECT_GT(run.at("threads", "run")
                  .at(0)
                  .at("instructions", "thread")
                  .asInt("i"),
              0);
    // Aggregates: one entry per scheduler.
    EXPECT_EQ(doc.at("aggregates", "doc").size(), 1u);
}

TEST(Spec, RepeatReseedsTraces)
{
    EnvGuard guard;
    ExperimentSpec spec;
    spec.name = "repeat";
    spec.workloads = {{"mcf", "hmmer"}};
    spec.schedulers = {{"FR-FCFS", SchedulerConfig{}, ""}};
    spec.budget = 3000;
    spec.repeat = 2;
    spec.seed = 5;
    const ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.rows(), 2u);
    const RunOutcome &a = result.outcome(0, 0);
    const RunOutcome &b = result.outcome(1, 0);
    ASSERT_FALSE(a.failed);
    ASSERT_FALSE(b.failed);
    // Different trace salts: the runs must not be identical clones.
    EXPECT_NE(a.shared.totalCycles, b.shared.totalCycles);
}

} // namespace
} // namespace stfm
