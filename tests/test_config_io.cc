/**
 * @file
 * Tests for config parse/validate/serialize: full JSON round trips,
 * field-by-field override layering, unknown-key rejection with paths,
 * and validateConfig's cross-field consistency rules.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/config_io.hh"

namespace stfm
{
namespace
{

/** Expect that @p problems contains a message mentioning @p needle. */
::testing::AssertionResult
mentions(const std::vector<std::string> &problems,
         const std::string &needle)
{
    for (const std::string &p : problems) {
        if (p.find(needle) != std::string::npos)
            return ::testing::AssertionSuccess();
    }
    auto result = ::testing::AssertionFailure()
                  << "no problem mentions '" << needle << "'; got:";
    for (const std::string &p : problems)
        result << "\n  " << p;
    return result;
}

TEST(ConfigIo, BaselineRoundTripsThroughJson)
{
    const SimConfig original = SimConfig::baseline(4);
    // Serialize, then layer the full dump onto a differently-shaped
    // starting point: every field must come back.
    SimConfig rebuilt = SimConfig::baseline(1);
    rebuilt.instructionBudget = 1;
    rebuilt.memory.banksPerChannel = 4;
    rebuilt.scheduler.alpha = 9.0;
    applyJson(toJson(original), rebuilt);
    EXPECT_EQ(toJson(rebuilt).dump(), toJson(original).dump());
}

TEST(ConfigIo, SchedulerConfigRoundTripsEveryKind)
{
    for (const PolicyKind kind :
         {PolicyKind::FrFcfs, PolicyKind::Fcfs, PolicyKind::FrFcfsCap,
          PolicyKind::Nfq, PolicyKind::Stfm}) {
        SchedulerConfig original;
        original.kind = kind;
        original.cap = 7;
        original.alpha = 1.3;
        original.weights = {2.0, 1.0};
        original.shares = {3.0, 1.0};
        SchedulerConfig rebuilt; // FR-FCFS defaults.
        applyJson(toJson(original), rebuilt);
        EXPECT_EQ(rebuilt.kind, kind);
        // Serialized form carries only the kind-relevant knobs, so
        // compare via the canonical dumps.
        EXPECT_EQ(toJson(rebuilt).dump(), toJson(original).dump());
    }
}

TEST(ConfigIo, OverridesLayerFieldByField)
{
    const Json overrides = Json::parse(R"({
        "cores": 8,
        "instructionBudget": 12345,
        "memory": {"banksPerChannel": 16,
                   "timing": {"tCL": 5}},
        "scheduler": {"policy": "STFM", "alpha": 2.0}
    })");
    const SimConfig config = simConfigFromJson(overrides);

    // Overridden fields take the new values...
    EXPECT_EQ(config.cores, 8u);
    EXPECT_EQ(config.instructionBudget, 12345u);
    EXPECT_EQ(config.memory.banksPerChannel, 16u);
    EXPECT_EQ(config.memory.timing.tCL, 5u);
    EXPECT_EQ(config.scheduler.kind, PolicyKind::Stfm);
    EXPECT_DOUBLE_EQ(config.scheduler.alpha, 2.0);

    // ...everything else keeps the baseline for the *overridden* core
    // count (channels scale with cores in baseline()).
    const SimConfig reference = SimConfig::baseline(8);
    EXPECT_EQ(config.memory.channels, reference.memory.channels);
    EXPECT_EQ(config.memory.timing.tRCD, reference.memory.timing.tRCD);
    EXPECT_EQ(config.cpu.windowSize, reference.cpu.windowSize);
    EXPECT_DOUBLE_EQ(config.scheduler.gamma, reference.scheduler.gamma);
}

TEST(ConfigIo, UnknownKeysAreStructuredErrors)
{
    try {
        simConfigFromJson(Json::parse(R"({"coers": 4})"));
        FAIL() << "typo accepted";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("coers"),
                  std::string::npos);
    }
    try {
        simConfigFromJson(
            Json::parse(R"({"memory": {"timing": {"tCl": 5}}})"));
        FAIL() << "nested typo accepted";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("tCl"), std::string::npos);
        EXPECT_NE(what.find("timing"), std::string::npos);
    }
}

TEST(ConfigIo, PolicyNamesNormalize)
{
    EXPECT_EQ(policyKindFromName("FR-FCFS"), PolicyKind::FrFcfs);
    EXPECT_EQ(policyKindFromName("frfcfs"), PolicyKind::FrFcfs);
    EXPECT_EQ(policyKindFromName("FCFS"), PolicyKind::Fcfs);
    EXPECT_EQ(policyKindFromName("FRFCFS+Cap"), PolicyKind::FrFcfsCap);
    EXPECT_EQ(policyKindFromName("fr-fcfs_cap"), PolicyKind::FrFcfsCap);
    EXPECT_EQ(policyKindFromName("NFQ"), PolicyKind::Nfq);
    EXPECT_EQ(policyKindFromName("stfm"), PolicyKind::Stfm);
    EXPECT_THROW(policyKindFromName("round-robin"), SimError);
}

TEST(ConfigIo, ValidAtBaseline)
{
    EXPECT_TRUE(validateConfig(SimConfig::baseline(4)).empty());
    EXPECT_TRUE(validateConfig(SimConfig::baseline(16)).empty());
}

TEST(ConfigIo, RejectsInconsistentDramTiming)
{
    SimConfig config = SimConfig::baseline(4);
    config.memory.timing.tFAW = 2 * config.memory.timing.tRRD;
    EXPECT_TRUE(mentions(validateConfig(config), "tFAW"));

    config = SimConfig::baseline(4);
    config.memory.timing.tRC = config.memory.timing.tRAS - 1;
    EXPECT_TRUE(mentions(validateConfig(config), "tRC"));

    config = SimConfig::baseline(4);
    config.memory.timing.tWL = config.memory.timing.tCL + 1;
    EXPECT_TRUE(mentions(validateConfig(config), "tWL"));
}

TEST(ConfigIo, RejectsNonIntegerClockRatio)
{
    SimConfig config = SimConfig::baseline(4);
    config.memory.dramBusMHz = 300; // 4000 / 300 is not integral.
    EXPECT_TRUE(mentions(validateConfig(config), "integer"));
    config.memory.dramBusMHz = 0;
    EXPECT_FALSE(validateConfig(config).empty());
}

TEST(ConfigIo, RejectsBufferMisSizing)
{
    SimConfig config = SimConfig::baseline(4);
    config.memory.controller.requestBufferEntries =
        config.cpu.mshrs - 1;
    EXPECT_TRUE(mentions(validateConfig(config), "MSHR"));

    config = SimConfig::baseline(4);
    config.memory.controller.writeDrainLow =
        config.memory.controller.writeDrainHigh;
    EXPECT_TRUE(mentions(validateConfig(config), "writeDrain"));

    // A core with no writeback buffer can never fetch.
    config = SimConfig::baseline(4);
    config.cpu.maxPendingWritebacks = 0;
    EXPECT_TRUE(mentions(validateConfig(config), "maxPendingWritebacks"));
}

TEST(ConfigIo, RejectsNonPowerOfTwoGeometry)
{
    SimConfig config = SimConfig::baseline(4);
    config.memory.banksPerChannel = 6;
    EXPECT_TRUE(mentions(validateConfig(config), "power of two"));
}

TEST(ConfigIo, RejectsBadSchedulerParameters)
{
    SimConfig config = SimConfig::baseline(4);
    config.scheduler.kind = PolicyKind::Stfm;
    config.scheduler.alpha = 0.5;
    EXPECT_TRUE(mentions(validateConfig(config), "alpha"));

    config = SimConfig::baseline(4);
    config.scheduler.kind = PolicyKind::Stfm;
    config.scheduler.weights = {1.0, 1.0}; // Wrong length for 4 cores.
    EXPECT_TRUE(mentions(validateConfig(config), "weights"));
}

TEST(ConfigIo, RejectsZeroThreadConfigs)
{
    SimConfig config = SimConfig::baseline(4);
    config.cores = 0;
    EXPECT_TRUE(mentions(validateConfig(config), "cores"));
    config = SimConfig::baseline(4);
    config.instructionBudget = 0;
    EXPECT_FALSE(validateConfig(config).empty());
}

TEST(ConfigIo, ValidateOrThrowJoinsEveryProblem)
{
    SimConfig config = SimConfig::baseline(4);
    config.cores = 0;
    config.memory.banksPerChannel = 6;
    try {
        validateOrThrow(config);
        FAIL() << "invalid config accepted";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cores"), std::string::npos);
        EXPECT_NE(what.find("power of two"), std::string::npos);
    }
}

} // namespace
} // namespace stfm
