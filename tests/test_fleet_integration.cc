/**
 * @file
 * Integration tests for supervised sharded execution: real `stfm
 * worker` subprocesses (the built CLI, named by the STFM_CLI
 * environment variable) run under runShardedExperiment, with STFM_FAULT
 * making them misbehave at exact points. The recurring assertion is
 * the tentpole acceptance bar: whatever goes wrong mid-sweep, the
 * merged stfm-results-v1 document is byte-identical to an
 * uninterrupted in-process run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>

#include "common/logging.hh"
#include "fleet/fault.hh"
#include "fleet/supervisor.hh"
#include "harness/experiment.hh"
#include "harness/spec.hh"
#include "report/rollup.hh"

namespace stfm
{
namespace fleet
{
namespace
{

constexpr const char *kSpecText = R"({
    "name": "fleet_it",
    "workloads": [["mcf", "hmmer"]],
    "schedulers": ["FR-FCFS", "STFM"],
    "budget": 4000
})";

/** Worker argv for the built CLI, or empty when STFM_CLI is unset. */
std::vector<std::string>
workerArgv()
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        return {};
    return {cli, "worker"};
}

#define REQUIRE_CLI(argv)                                               \
    if ((argv).empty())                                                 \
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";

/** Sets STFM_FAULT for spawned workers; always cleans up. */
class FaultGuard
{
  public:
    explicit FaultGuard(const char *plan)
    {
        setenv("STFM_FAULT", plan, 1);
    }
    ~FaultGuard() { unsetenv("STFM_FAULT"); }
};

/** A fresh checkpoint directory under the gtest temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        removeAll();
        ::mkdir(path_.c_str(), 0755);
    }
    ~TempDir() { removeAll(); }
    const std::string &path() const { return path_; }

  private:
    void
    removeAll()
    {
        std::remove((path_ + "/manifest.jsonl").c_str());
        std::remove((path_ + "/fleet_counters.json").c_str());
        std::remove((path_ + "/results.json").c_str());
        ::rmdir(path_.c_str());
    }
    std::string path_;
};

FleetOptions
baseOptions()
{
    FleetOptions options;
    options.workerArgv = workerArgv();
    options.quiet = true;
    options.backoffSec = 0.01; // Tests should not sleep for real.
    options.heartbeatMs = 50;
    return options;
}

std::string
referenceBytes(const ExperimentSpec &spec)
{
    return resultsJson(runExperiment(spec)).dump();
}

/** The fleet_counters.json document a checkpointed run left behind. */
Json
readCounters(const TempDir &checkpoint)
{
    std::ifstream in(checkpoint.path() + "/fleet_counters.json",
                     std::ios::binary);
    EXPECT_TRUE(in.is_open());
    std::ostringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
}

/** Number of per-shard records in @p counters labelled @p status. */
std::size_t
shardsLabelled(const Json &counters, const std::string &status)
{
    const Json &shards = counters.at("shards", "counters");
    std::size_t n = 0;
    for (std::size_t i = 0; i < shards.size(); ++i)
        n += shards.at(i).at("status", "record").asString() == status;
    return n;
}

TEST(FleetIntegration, CleanShardedRunIsByteIdenticalToInProcess)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.workers = 2;

    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_EQ(outcome.stats.shardsCompleted, 2u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, CountersRecordPerShardWallClock)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_wallclock");
    options.checkpoint = checkpoint.path();
    options.shards = 2;
    options.workers = 2;

    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());

    const Json doc = readCounters(checkpoint);
    EXPECT_EQ(doc.at("schema", "counters").asString(),
              "stfm-fleet-counters-v1");
    EXPECT_TRUE(doc.at("final", "counters").asBool());
    EXPECT_FALSE(doc.has("nodes"));
    const Json &shards = doc.at("shards", "counters");
    ASSERT_EQ(shards.size(), 2u);
    std::uint64_t jobs = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const Json &record = shards.at(i);
        EXPECT_FALSE(record.has("node"));
        EXPECT_EQ(record.at("shard", "record").asUint(), i);
        EXPECT_EQ(record.at("status", "record").asString(), "done");
        EXPECT_EQ(record.at("attempts", "record").asUint(), 1u);
        // Executed shards record real (possibly sub-millisecond,
        // hence >= 0 after rounding) wall clock.
        EXPECT_GE(record.at("wall_seconds", "record").asDouble(), 0.0);
        jobs += record.at("jobs", "record").asUint();
    }
    // Every (workload x scheduler) job is accounted to some shard.
    EXPECT_EQ(jobs, 2u);
}

TEST(FleetIntegration, ManifestRollupMatchesResultsRollup)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_rollup");
    options.checkpoint = checkpoint.path();
    options.shards = 2;
    options.workers = 2;

    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());

    // The checkpoint holds the manifest and the counters, nothing
    // else: the rollup has one producer, `stfm report`.
    const std::string dir = checkpoint.path() + "/";
    EXPECT_EQ(report::listDirectoryFiles(checkpoint.path()),
              (std::vector<std::string>{dir + "fleet_counters.json",
                                        dir + "manifest.jsonl"}));

    // Folding the manifest (job grid re-derived from the plan) and
    // folding the merged results document give the same rollup.
    report::ReportBuilder from_manifest(spec.name);
    EXPECT_EQ(from_manifest.addManifest(dir + "manifest.jsonl",
                                        planExperiment(spec)),
              2u);
    report::ReportBuilder from_results(spec.name);
    EXPECT_EQ(from_results.addResultsDoc(resultsJson(outcome.result),
                                         "results.json"),
              2u);
    // Only the provenance list (`sources`) names different inputs.
    Json a = from_manifest.toJson();
    Json b = from_results.toJson();
    a.set("sources", Json());
    b.set("sources", Json());
    EXPECT_EQ(a.dump(), b.dump());
}

TEST(FleetIntegration, CrashIsRetriedToAnIdenticalResult)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    FaultGuard fault("crash@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.crashes, 1u);
    EXPECT_GE(outcome.stats.retries, 1u);
    // The replay runs with identical seeds: environmental faults must
    // not perturb the simulated bytes.
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, SignalDeathIsClassifiedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    FaultGuard fault("abort@1");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.crashes, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, GarbageOnTheStreamIsClassifiedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    FaultGuard fault("garbage@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.protocolErrors, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, HangIsKilledByTheLivenessWindowAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.livenessSec = 0.3;

    FaultGuard fault("hang@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.hangs, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, TimeoutIsEnforcedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    // Generous enough that a *clean* shard always finishes inside it,
    // even under the sanitizers (~0.5 s measured under ASan); the
    // hanging first attempt still trips it because a hang never ends.
    options.timeoutSec = 5.0;
    options.livenessSec = 60.0; // The deadline must win, not liveness.

    FaultGuard fault("hang@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.timeouts, 1u);
    EXPECT_EQ(outcome.stats.hangs, 0u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, SlowShardWithHeartbeatsIsNotKilled)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    // The slow fault stalls 8 heartbeat periods (0.4 s), well past
    // this window; flowing heartbeats must keep the worker alive.
    options.livenessSec = 0.3;

    FaultGuard fault("slow@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_EQ(outcome.stats.hangs, 0u);
    EXPECT_EQ(outcome.stats.retries, 0u);
    EXPECT_GE(outcome.stats.heartbeats, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, ExhaustedRetriesDegradeToFailedRows)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.retries = 0;

    FaultGuard fault("crash@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    ASSERT_EQ(outcome.failedShards,
              (std::vector<unsigned>{0}));
    EXPECT_EQ(outcome.stats.shardsFailed, 1u);
    EXPECT_EQ(outcome.stats.shardsCompleted, 1u);
    EXPECT_FALSE(outcome.interrupted);

    // Shard 0 is job 0: FAILED with structured diagnostics. The rest
    // of the sweep completed and aggregated.
    const RunOutcome &failed = outcome.result.outcomes[0];
    EXPECT_TRUE(failed.failed);
    EXPECT_EQ(failed.attempts, 1u);
    EXPECT_NE(failed.error.find("exited with code 42"),
              std::string::npos);
    EXPECT_FALSE(outcome.result.outcomes[1].failed);
    EXPECT_EQ(outcome.result.aggregates.size(),
              outcome.result.schedulers.size());
}

TEST(FleetIntegration, InterruptedRunResumesToByteIdenticalOutput)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_resume");
    options.shards = 2;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 1; // As if the supervisor were killed here.

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);
    EXPECT_EQ(first.stats.shardsCompleted, 1u);

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.stats.shardsResumed, 1u);
    EXPECT_EQ(second.stats.shardsCompleted, 1u);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));
    // A shard replayed from the manifest is labelled by what this run
    // did with it, not by the attempts the manifest restored.
    Json counters = readCounters(checkpoint);
    EXPECT_EQ(shardsLabelled(counters, "resumed"), 1u);
    EXPECT_EQ(shardsLabelled(counters, "done"), 1u);

    // Resuming a fully checkpointed sweep re-simulates nothing.
    const FleetOutcome third = runShardedExperiment(spec, resume);
    EXPECT_EQ(third.stats.shardsResumed, 2u);
    EXPECT_EQ(third.stats.shardsCompleted, 0u);
    EXPECT_EQ(resultsJson(third.result).dump(),
              referenceBytes(spec));
    counters = readCounters(checkpoint);
    EXPECT_EQ(shardsLabelled(counters, "resumed"), 2u);
}

TEST(FleetIntegration, ResumeRejectsADifferentExperiment)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    TempDir checkpoint("fleet_it_foreign");
    options.checkpoint = checkpoint.path();
    options.shards = 2;

    const ExperimentSpec spec = specFromText(kSpecText);
    const FleetOutcome seeded = runShardedExperiment(spec, options);
    EXPECT_FALSE(seeded.anyFailed());

    ExperimentSpec other = spec;
    other.budget = 5000; // A different experiment entirely.
    FleetOptions resume = options;
    resume.resume = true;
    EXPECT_THROW(runShardedExperiment(other, resume), SimError);
}

TEST(FleetIntegration, AloneBaselinesAreSharedThroughTheManifest)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_alone");
    options.checkpoint = checkpoint.path();
    options.shards = 2;
    options.workers = 1;
    options.stopAfter = 1;

    // Shard one computes the baselines and checkpoints them; the
    // resumed shard receives them through the manifest.
    (void)runShardedExperiment(spec, options);
    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));

    std::FILE *manifest = std::fopen(
        (checkpoint.path() + "/manifest.jsonl").c_str(), "rb");
    ASSERT_NE(manifest, nullptr);
    std::string text(1 << 20, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), manifest));
    std::fclose(manifest);
    EXPECT_NE(text.find("\"type\":\"alone\""), std::string::npos)
        << "baselines should be checkpointed for cross-shard reuse";
}

TEST(FleetIntegration, SigkilledWorkerIsClassifiedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    // SIGKILL mid-shard is what the OOM killer looks like from here:
    // no exit frame, no signal handler, just a reaped corpse.
    FaultGuard fault("sigkill@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.sigkills, 1u);
    EXPECT_GE(outcome.stats.crashes, 1u); // Also counted as a crash.
    EXPECT_GE(outcome.stats.retries, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, SigkillDiagnosticsNameTheLikelyOomKiller)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.retries = 0;

    FaultGuard fault("sigkill@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    ASSERT_EQ(outcome.failedShards, (std::vector<unsigned>{0}));
    const RunOutcome &failed = outcome.result.outcomes[0];
    EXPECT_TRUE(failed.failed);
    EXPECT_NE(failed.error.find("SIGKILL"), std::string::npos)
        << failed.error;
    EXPECT_NE(failed.error.find("OOM"), std::string::npos)
        << failed.error;
}

TEST(FleetIntegration, PreNodeManifestResumesByteIdentically)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_prenode");
    options.shards = 2;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 1;

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);

    // Rewrite the manifest to the shape older builds wrote: every
    // shard record carries a trailing "node" provenance key, which the
    // loader must ignore.
    const std::string manifestPath =
        checkpoint.path() + "/manifest.jsonl";
    std::string text;
    {
        std::ifstream in(manifestPath, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    ASSERT_EQ(text.find("\"node\""), std::string::npos);
    std::istringstream lines(text);
    std::string rewritten;
    std::size_t tagged = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"type\":\"shard\"") != std::string::npos) {
            ASSERT_EQ(line.back(), '}');
            line.insert(line.size() - 1, ",\"node\":\"n0\"");
            ++tagged;
        }
        rewritten += line + "\n";
    }
    ASSERT_EQ(tagged, 1u);
    {
        std::ofstream out(manifestPath,
                          std::ios::binary | std::ios::trunc);
        out << rewritten;
    }

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.stats.shardsResumed, 1u);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, TornManifestTailResumesByteIdentically)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_torntail");
    options.shards = 2;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 1;

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);

    // SIGKILL residue: cut the final manifest record mid-JSON. The
    // resume must discard the torn record, re-execute whatever it
    // described, and still merge byte-identically.
    const std::string manifestPath =
        checkpoint.path() + "/manifest.jsonl";
    std::string text;
    {
        std::ifstream in(manifestPath, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    ASSERT_GE(text.size(), 2u);
    ASSERT_EQ(text.back(), '\n');
    const std::size_t recordStart =
        text.rfind('\n', text.size() - 2) + 1;
    const std::size_t cut =
        recordStart + (text.size() - 1 - recordStart) / 2;
    {
        std::ofstream out(manifestPath,
                          std::ios::binary | std::ios::trunc);
        out.write(text.data(), static_cast<std::streamsize>(cut));
    }

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_FALSE(second.anyFailed());
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, ReportCliRejectsUselessInputs)
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";

    // A directory with no artifacts and a path that does not exist
    // must both be loud usage errors, not empty-but-successful
    // reports.
    TempDir empty("fleet_it_report_empty");
    const std::string quiet = " >/dev/null 2>&1";
    const int emptyRc = std::system(
        (std::string(cli) + " report " + empty.path() + quiet)
            .c_str());
    ASSERT_TRUE(WIFEXITED(emptyRc));
    EXPECT_EQ(WEXITSTATUS(emptyRc), 1);

    const int missingRc = std::system(
        (std::string(cli) + " report " + empty.path() +
         "/no_such_artifact.json" + quiet)
            .c_str());
    ASSERT_TRUE(WIFEXITED(missingRc));
    EXPECT_EQ(WEXITSTATUS(missingRc), 1);

    // A non-finite --threshold would make every `current > baseline *
    // (1 + threshold)` comparison false and pass any regression: it
    // is a usage error. The control run shows the input itself is
    // good.
    TempDir inputs("fleet_it_report_threshold");
    const std::string results = inputs.path() + "/results.json";
    writeResultsJson(runExperiment(specFromText(kSpecText)), results);
    const auto reportRc = [&](const std::string &threshold) {
        const int rc = std::system((std::string(cli) + " report " +
                                    results + " --threshold " +
                                    threshold + quiet)
                                       .c_str());
        EXPECT_TRUE(WIFEXITED(rc)) << threshold;
        return WEXITSTATUS(rc);
    };
    EXPECT_EQ(reportRc("0.02"), 0);
    EXPECT_EQ(reportRc("nan"), 1);
    EXPECT_EQ(reportRc("inf"), 1);
}

} // namespace
} // namespace fleet
} // namespace stfm
