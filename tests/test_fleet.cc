/**
 * @file
 * Unit tests for the fleet tier's pure pieces: frame codec, wire
 * round-trip exactness, fault-plan parsing, shard partitioning, the
 * manifest, and the retry seed rule across the process boundary.
 * Everything here runs in-process; subprocess supervision is covered
 * by test_fleet_integration.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "fleet/fault.hh"
#include "fleet/manifest.hh"
#include "fleet/protocol.hh"
#include "fleet/supervisor.hh"
#include "fleet/wire.hh"
#include "fleet/worker.hh"
#include "harness/experiment.hh"
#include "harness/spec.hh"
#include "obs/telemetry.hh"

namespace stfm
{
namespace fleet
{
namespace
{

class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// Framing ------------------------------------------------------------

TEST(FleetProtocol, FrameRoundTrip)
{
    Json message = Json::object();
    message.set("type", "heartbeat");
    message.set("shard", 7u);
    const std::string frame = encodeFrame(message);
    ASSERT_GE(frame.size(), kFrameHeaderBytes);
    EXPECT_EQ(frame.substr(0, 4), "STFM");

    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    Json out;
    ASSERT_EQ(decoder.next(out), FrameDecoder::Status::Frame);
    EXPECT_EQ(out, message);
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::NeedMore);
    EXPECT_TRUE(decoder.idle());
}

TEST(FleetProtocol, DecoderHandlesBytewiseDelivery)
{
    const std::string frame = encodeFrame(heartbeatMessage(3));
    FrameDecoder decoder;
    Json out;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        decoder.feed(frame.data() + i, 1);
        EXPECT_EQ(decoder.next(out), FrameDecoder::Status::NeedMore);
    }
    decoder.feed(frame.data() + frame.size() - 1, 1);
    ASSERT_EQ(decoder.next(out), FrameDecoder::Status::Frame);
    EXPECT_EQ(out, heartbeatMessage(3));
}

TEST(FleetProtocol, DecoderHandlesBackToBackFrames)
{
    const std::string two =
        encodeFrame(heartbeatMessage(1)) + encodeFrame(heartbeatMessage(2));
    FrameDecoder decoder;
    decoder.feed(two.data(), two.size());
    Json a;
    Json b;
    ASSERT_EQ(decoder.next(a), FrameDecoder::Status::Frame);
    ASSERT_EQ(decoder.next(b), FrameDecoder::Status::Frame);
    EXPECT_EQ(a, heartbeatMessage(1));
    EXPECT_EQ(b, heartbeatMessage(2));
}

TEST(FleetProtocol, BadMagicIsGarbageAndPoisonsTheStream)
{
    FrameDecoder decoder;
    const char junk[] = "MFTS00000002{}";
    decoder.feed(junk, sizeof(junk) - 1);
    Json out;
    std::string error;
    EXPECT_EQ(decoder.next(out, &error), FrameDecoder::Status::Garbage);
    EXPECT_FALSE(error.empty());
    // A good frame after garbage must not resurrect the stream.
    const std::string frame = encodeFrame(heartbeatMessage(0));
    decoder.feed(frame.data(), frame.size());
    EXPECT_EQ(decoder.next(out, &error), FrameDecoder::Status::Garbage);
    EXPECT_FALSE(decoder.idle());
}

TEST(FleetProtocol, AbsurdLengthIsGarbage)
{
    FrameDecoder decoder;
    const char junk[] = "STFMffffffff";
    decoder.feed(junk, sizeof(junk) - 1);
    Json out;
    std::string error;
    EXPECT_EQ(decoder.next(out, &error), FrameDecoder::Status::Garbage);
}

TEST(FleetProtocol, UnparseablePayloadIsGarbage)
{
    FrameDecoder decoder;
    const char junk[] = "STFM00000003{,}";
    decoder.feed(junk, sizeof(junk) - 1);
    Json out;
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::Garbage);
}

TEST(FleetProtocol, OverlongLengthPoisonsWithoutBuffering)
{
    // A hostile length prefix one past the cap: the stream must be
    // poisoned from the 12 header bytes alone — the decoder must not
    // sit waiting to buffer (or allocate) the claimed payload.
    char header[13];
    std::snprintf(header, sizeof(header), "STFM%08zx",
                  kMaxFrameBytes + 1);
    FrameDecoder decoder;
    decoder.feed(header, kFrameHeaderBytes);
    Json out;
    std::string error;
    EXPECT_EQ(decoder.next(out, &error), FrameDecoder::Status::Garbage);
    EXPECT_NE(error.find("exceeds limit"), std::string::npos);
}

TEST(FleetProtocol, MaxFrameBytesIsAnAllocationSaneBound)
{
    // The length field can claim up to 4 GiB − 1; the accepted bound
    // must stay far below that so a corrupt prefix cannot commit the
    // supervisor to a multi-GB buffer.
    EXPECT_LE(kMaxFrameBytes, std::size_t{1} << 26);
}

TEST(FleetProtocol, ZeroLengthFrameIsGarbage)
{
    // A zero-length payload is not a JSON document; it must poison
    // the stream, not decode into something.
    FrameDecoder decoder;
    const char junk[] = "STFM00000000";
    decoder.feed(junk, sizeof(junk) - 1);
    Json out;
    std::string error;
    EXPECT_EQ(decoder.next(out, &error), FrameDecoder::Status::Garbage);
}

TEST(FleetProtocol, TruncatedMagicAtEofIsAMidFrameError)
{
    // A stream that dies inside the frame header (here: half the
    // magic) must be reported as ending mid-frame, not as a clean EOF
    // and not as a decoded frame.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "ST", 2), 2);
    ::close(fds[1]);
    Json out;
    std::string error;
    EXPECT_FALSE(readFrame(fds[0], out, &error));
    EXPECT_NE(error.find("mid-frame"), std::string::npos);
    ::close(fds[0]);
}

// Wire exactness -----------------------------------------------------

ThreadResult
awkwardThread()
{
    ThreadResult thread;
    thread.instructions = (1ull << 60) + 3; // Beyond double's 2^53.
    thread.cycles = 1234567890123ull;
    thread.memStallCycles = 99;
    thread.l2Misses = 17;
    thread.dramReads = 11;
    thread.dramWrites = 5;
    thread.rowHits = 3;
    thread.rowClosed = 2;
    thread.rowConflicts = 1;
    thread.readLatencyMean = 0.1; // No exact binary representation.
    thread.readLatencyP50 = 1.0;  // Prints integral, reparses as Int.
    thread.readLatencyP99 = 1e-17;
    thread.readLatencyMax = 3.0000000000000004;
    return thread;
}

TEST(FleetWire, ThreadResultRoundTripsExactly)
{
    const ThreadResult original = awkwardThread();
    const Json wire = toWire(original);
    const ThreadResult back = threadResultFromWire(wire, "test");
    // Byte-identical re-serialization is the resume contract.
    EXPECT_EQ(toWire(back).dump(), wire.dump());
    EXPECT_EQ(back.instructions, original.instructions);
    EXPECT_EQ(back.readLatencyMean, original.readLatencyMean);
    EXPECT_EQ(back.readLatencyP50, original.readLatencyP50);
    EXPECT_EQ(back.readLatencyMax, original.readLatencyMax);
}

TEST(FleetWire, RunOutcomeRoundTripsThroughReparse)
{
    RunOutcome outcome;
    outcome.policyName = "STFM";
    outcome.attempts = 2;
    outcome.shared.totalCycles = 424242;
    outcome.shared.threads.push_back(awkwardThread());
    outcome.metrics.slowdowns = {1.0, 3.0000000000000004};
    outcome.metrics.relIpc = {0.5, 0.1};
    outcome.metrics.unfairness = 1.25;
    outcome.metrics.weightedSpeedup = 0.75;
    outcome.metrics.hmeanSpeedup = 0.6;
    outcome.metrics.sumOfIpcs = 2.0;

    // Through a full dump/parse cycle, as the pipe and manifest do.
    const std::string text = toWire(outcome).dump();
    const RunOutcome back =
        runOutcomeFromWire(Json::parse(text), "test");
    EXPECT_EQ(toWire(back).dump(), text);
    EXPECT_FALSE(back.failed);
    EXPECT_EQ(back.attempts, 2u);
    EXPECT_EQ(back.metrics.slowdowns, outcome.metrics.slowdowns);
}

TEST(FleetWire, FailedOutcomeCarriesOnlyDiagnostics)
{
    RunOutcome outcome;
    outcome.policyName = "NFQ";
    outcome.failed = true;
    outcome.attempts = 3;
    outcome.error = "starvation bound grazed";
    const Json wire = toWire(outcome);
    EXPECT_FALSE(wire.has("shared"));
    EXPECT_FALSE(wire.has("metrics"));
    const RunOutcome back = runOutcomeFromWire(wire, "test");
    EXPECT_TRUE(back.failed);
    EXPECT_EQ(back.error, "starvation bound grazed");
    EXPECT_EQ(back.attempts, 3u);
}

TEST(FleetWire, WorkUnitRoundTrip)
{
    WorkUnit unit;
    unit.shard = 4;
    unit.attempt = 2;
    unit.beginJob = 10;
    unit.endJob = 15;
    unit.heartbeatMs = 50;
    unit.spec = Json::object();
    unit.spec.set("name", "t");
    unit.alone["mcf#1x8x2048@5000"] = awkwardThread();

    const WorkUnit back = workUnitFromWire(toWire(unit));
    EXPECT_EQ(back.shard, 4u);
    EXPECT_EQ(back.attempt, 2u);
    EXPECT_EQ(back.beginJob, 10u);
    EXPECT_EQ(back.endJob, 15u);
    EXPECT_EQ(back.heartbeatMs, 50u);
    ASSERT_EQ(back.alone.size(), 1u);
    EXPECT_EQ(toWire(back.alone.at("mcf#1x8x2048@5000")).dump(),
              toWire(unit.alone.at("mcf#1x8x2048@5000")).dump());
}

TEST(FleetWire, SchemaMismatchIsAStructuredError)
{
    Json wire = toWire(WorkUnit{});
    wire.set("schema", "stfm-workunit-v999");
    EXPECT_THROW(workUnitFromWire(wire), SimError);
}

// Fault plans --------------------------------------------------------

TEST(FleetFault, ParsesEveryKind)
{
    EXPECT_EQ(parseFaultPlan("crash@0").kind, FaultPlan::Kind::Crash);
    EXPECT_EQ(parseFaultPlan("abort@1").kind, FaultPlan::Kind::Abort);
    EXPECT_EQ(parseFaultPlan("hang@2").kind, FaultPlan::Kind::Hang);
    EXPECT_EQ(parseFaultPlan("garbage@3").kind,
              FaultPlan::Kind::Garbage);
    EXPECT_EQ(parseFaultPlan("sigkill@4").kind,
              FaultPlan::Kind::Sigkill);
    EXPECT_EQ(parseFaultPlan("slow@4").kind, FaultPlan::Kind::Slow);
    EXPECT_EQ(parseFaultPlan("simfail@5").kind,
              FaultPlan::Kind::SimFail);
    EXPECT_EQ(parseFaultPlan("simfail@5").shard, 5u);
}

TEST(FleetFault, MalformedPlansThrow)
{
    EXPECT_THROW(parseFaultPlan("crash"), SimError);
    EXPECT_THROW(parseFaultPlan("crash@"), SimError);
    EXPECT_THROW(parseFaultPlan("crash@x"), SimError);
    EXPECT_THROW(parseFaultPlan("meteor@1"), SimError);
    EXPECT_THROW(parseFaultPlan("@3"), SimError);
}

TEST(FleetFault, ArmsOnlyOnFirstAttemptOfItsShard)
{
    const FaultPlan plan = parseFaultPlan("crash@2");
    EXPECT_TRUE(plan.armedFor(2, 1));
    EXPECT_FALSE(plan.armedFor(2, 2)); // Retries run clean.
    EXPECT_FALSE(plan.armedFor(1, 1)); // Other shards untouched.
    EXPECT_FALSE(FaultPlan{}.armedFor(0, 1));
}

// Partitioning -------------------------------------------------------

TEST(FleetPartition, DefaultsToOneShardPerRow)
{
    const auto shards = partitionShards(20, 5, 0);
    ASSERT_EQ(shards.size(), 4u);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].first, i * 5);
        EXPECT_EQ(shards[i].second, (i + 1) * 5);
    }
}

TEST(FleetPartition, BalancedWithinOneJobAndContiguous)
{
    const auto shards = partitionShards(10, 2, 3);
    ASSERT_EQ(shards.size(), 3u);
    std::size_t covered = 0;
    for (const auto &[begin, end] : shards) {
        EXPECT_EQ(begin, covered);
        const std::size_t size = end - begin;
        EXPECT_GE(size, 3u);
        EXPECT_LE(size, 4u);
        covered = end;
    }
    EXPECT_EQ(covered, 10u);
}

TEST(FleetPartition, RequestBeyondJobCountIsClamped)
{
    const auto shards = partitionShards(3, 1, 100);
    ASSERT_EQ(shards.size(), 3u);
    for (const auto &[begin, end] : shards)
        EXPECT_EQ(end - begin, 1u); // Never an empty shard.
}

TEST(FleetPartition, ZeroJobsYieldZeroShards)
{
    EXPECT_TRUE(partitionShards(0, 5, 0).empty());
    EXPECT_TRUE(partitionShards(0, 0, 4).empty());
}

// Manifest -----------------------------------------------------------

TEST(FleetManifest, WriterThenLoaderRoundTrip)
{
    TempFile file("fleet_manifest_roundtrip.jsonl");
    {
        ManifestWriter writer;
        writer.open(file.path(), "cafe", 10, 5);
        Json outcomes = Json::array();
        outcomes.push(toWire(RunOutcome{}));
        outcomes.push(toWire(RunOutcome{}));
        writer.appendShard(3, 2, outcomes);
        writer.appendAlone("mcf#k", toWire(awkwardThread()));
    }
    const ManifestData data = loadManifest(file.path());
    ASSERT_FALSE(data.header.isNull());
    validateManifestHeader(data.header, "cafe", 10, 5);
    ASSERT_EQ(data.shards.size(), 1u);
    EXPECT_EQ(data.shards.at(3).at("attempts").asUint(), 2u);
    EXPECT_EQ(data.shards.at(3).at("outcomes").size(), 2u);
    ASSERT_EQ(data.alone.size(), 1u);
    EXPECT_EQ(data.alone.at("mcf#k").dump(),
              toWire(awkwardThread()).dump());
}

TEST(FleetManifest, ReopeningAppendsWithoutASecondHeader)
{
    TempFile file("fleet_manifest_reopen.jsonl");
    {
        ManifestWriter writer;
        writer.open(file.path(), "cafe", 4, 2);
        writer.appendShard(0, 1, Json::array());
    }
    {
        ManifestWriter writer;
        writer.open(file.path(), "cafe", 4, 2);
        writer.appendShard(1, 1, Json::array());
    }
    const ManifestData data = loadManifest(file.path());
    EXPECT_EQ(data.shards.size(), 2u);
}

TEST(FleetManifest, MissingFileIsAnEmptyManifest)
{
    const ManifestData data =
        loadManifest(std::string(::testing::TempDir()) +
                     "no_such_manifest_anywhere.jsonl");
    EXPECT_TRUE(data.header.isNull());
    EXPECT_TRUE(data.shards.empty());
}

TEST(FleetManifest, TornFinalLineIsDiscarded)
{
    TempFile file("fleet_manifest_torn.jsonl");
    {
        ManifestWriter writer;
        writer.open(file.path(), "cafe", 4, 2);
        writer.appendShard(0, 1, Json::array());
    }
    {
        // SIGKILL residue: a final line cut mid-JSON.
        std::ofstream out(file.path(), std::ios::app);
        out << R"({"type":"shard","shard":1,"att)";
    }
    const ManifestData data = loadManifest(file.path());
    ASSERT_EQ(data.shards.size(), 1u);
    EXPECT_EQ(data.shards.count(1), 0u);
}

TEST(FleetManifest, TornTailAtEveryByteOffsetStaysLoadable)
{
    // SIGKILL can cut the final append at any byte. Whatever the cut,
    // the loader must neither throw nor lose a COMPLETED record: only
    // the torn final record may drop, and only while its JSON is
    // incomplete (a cut between the closing brace and the newline
    // still parses, so it is kept).
    TempFile reference("fleet_manifest_fuzz_ref.jsonl");
    {
        ManifestWriter writer;
        writer.open(reference.path(), "cafe", 4, 2);
        writer.appendShard(0, 1, Json::array());
        writer.appendShard(1, 2, Json::array());
    }
    std::string bytes;
    {
        std::ifstream in(reference.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    ASSERT_FALSE(bytes.empty());
    ASSERT_EQ(bytes.back(), '\n');
    // Offset where the final record's JSON begins and ends.
    const std::size_t recordStart =
        bytes.rfind('\n', bytes.size() - 2) + 1;
    const std::size_t jsonEnd = bytes.size() - 1;
    ASSERT_NE(bytes.find("\"shard\":1", recordStart),
              std::string::npos);

    for (std::size_t cut = recordStart; cut <= bytes.size(); ++cut) {
        TempFile torn("fleet_manifest_fuzz_torn.jsonl");
        {
            std::ofstream out(torn.path(), std::ios::binary);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(cut));
        }
        ManifestData data;
        ASSERT_NO_THROW(data = loadManifest(torn.path()))
            << "cut at byte " << cut;
        ASSERT_EQ(data.shards.count(0), 1u) << "cut at byte " << cut;
        const bool recordComplete = cut >= jsonEnd;
        EXPECT_EQ(data.shards.count(1), recordComplete ? 1u : 0u)
            << "cut at byte " << cut;
    }
}

TEST(FleetManifest, MidFileCorruptionThrows)
{
    TempFile file("fleet_manifest_corrupt.jsonl");
    {
        std::ofstream out(file.path());
        out << R"({"schema":"stfm-manifest-v1","version":1,)"
            << R"("specHash":"cafe","jobs":4,"shards":2})" << "\n"
            << "not json at all\n"
            << R"({"type":"shard","shard":0,"attempts":1,)"
            << R"("outcomes":[]})" << "\n";
    }
    EXPECT_THROW(loadManifest(file.path()), SimError);
}

TEST(FleetManifest, NewerVersionIsRejectedWithAStructuredError)
{
    TempFile file("fleet_manifest_newer.jsonl");
    {
        std::ofstream out(file.path());
        out << R"({"schema":"stfm-manifest-v1","version":2,)"
            << R"("specHash":"cafe","jobs":4,"shards":2})" << "\n";
    }
    try {
        loadManifest(file.path());
        FAIL() << "a newer manifest version must be rejected";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("newer"),
                  std::string::npos);
    }
}

TEST(FleetManifest, ForeignSchemaIsRejected)
{
    TempFile file("fleet_manifest_schema.jsonl");
    {
        std::ofstream out(file.path());
        out << R"({"schema":"someone-elses","version":1})" << "\n";
    }
    EXPECT_THROW(loadManifest(file.path()), SimError);
}

TEST(FleetManifest, HeaderValidationNamesEveryMismatch)
{
    Json header = Json::object();
    header.set("schema", kManifestSchema);
    header.set("version", kManifestVersion);
    header.set("specHash", "cafe");
    header.set("jobs", 10u);
    header.set("shards", 5u);
    EXPECT_NO_THROW(validateManifestHeader(header, "cafe", 10, 5));
    EXPECT_THROW(validateManifestHeader(header, "beef", 10, 5),
                 SimError);
    EXPECT_THROW(validateManifestHeader(header, "cafe", 11, 5),
                 SimError);
    EXPECT_THROW(validateManifestHeader(header, "cafe", 10, 4),
                 SimError);
}

TEST(FleetManifest, SpecHashCoversEnvironmentOverrides)
{
    const ExperimentSpec spec = specFromText(
        R"({"name": "t", "workloads": [["mcf", "hmmer"]],)"
        R"( "budget": 4000})");
    const ExperimentPlan plan = planExperiment(spec);
    const std::string hash = fleetSpecHash(plan.spec, plan.base);
    SimConfig tweaked = plan.base;
    tweaked.instructionBudget += 1; // What STFM_INSTRUCTIONS changes.
    EXPECT_NE(hash, fleetSpecHash(plan.spec, tweaked));
}

// Retry seed rule across the process boundary ------------------------

TEST(FleetRetry, SecondAttemptKeepsTheSeedRuleThroughTheWorkerPath)
{
    const ExperimentSpec spec = specFromText(R"({
        "name": "t",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": ["FR-FCFS"],
        "budget": 4000,
        "attempts": 2
    })");
    const ExperimentPlan plan = planExperiment(spec);

    // Reference: attempt 2 runs with salt base + 1 (runner.hh's rule).
    ExperimentRunner reference(plan.base);
    configureRunner(reference, plan);
    const RunOutcome salted =
        reference.run(plan.jobs[0].workload, plan.jobs[0].scheduler,
                      plan.jobs[0].seedSalt + 1);

    // The worker path with a first-attempt failure injected: the
    // recovery must land on exactly the salted stream.
    ASSERT_EQ(setenv("STFM_FAULT", "simfail@0", 1), 0);
    WorkUnit unit;
    unit.shard = 0;
    unit.attempt = 1;
    unit.beginJob = 0;
    unit.endJob = 1;
    unit.spec = toJson(plan.spec);
    const ShardResult result = executeWorkUnit(unit);
    ASSERT_EQ(unsetenv("STFM_FAULT"), 0);

    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_FALSE(result.outcomes[0].failed);
    EXPECT_EQ(result.outcomes[0].attempts, 2u);
    EXPECT_EQ(result.outcomes[0].shared.totalCycles,
              salted.shared.totalCycles);
    EXPECT_EQ(toWire(result.outcomes[0].shared).dump(),
              toWire(salted.shared).dump());
}

TEST(FleetRetry, SimFailFaultIsInertOnProcessAttemptTwo)
{
    const ExperimentSpec spec = specFromText(R"({
        "name": "t",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": ["FR-FCFS"],
        "budget": 4000
    })");
    ASSERT_EQ(setenv("STFM_FAULT", "simfail@0", 1), 0);
    WorkUnit unit;
    unit.shard = 0;
    unit.attempt = 2; // A supervisor replay: the fault must not arm.
    unit.beginJob = 0;
    unit.endJob = 1;
    unit.spec = toJson(planExperiment(spec).spec);
    const ShardResult result = executeWorkUnit(unit);
    ASSERT_EQ(unsetenv("STFM_FAULT"), 0);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_FALSE(result.outcomes[0].failed);
    EXPECT_EQ(result.outcomes[0].attempts, 1u);
}

// Work units in-process ----------------------------------------------

TEST(FleetWorker, ExecuteWorkUnitMatchesRunExperiment)
{
    const ExperimentSpec spec = specFromText(R"({
        "name": "t",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": ["FR-FCFS", "STFM"],
        "budget": 4000
    })");
    const ExperimentResult reference = runExperiment(spec);

    WorkUnit unit;
    unit.beginJob = 0;
    unit.endJob = 2;
    unit.spec = toJson(planExperiment(spec).spec);
    const ShardResult result = executeWorkUnit(unit);
    ASSERT_EQ(result.outcomes.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(toWire(result.outcomes[i]).dump(),
                  toWire(reference.outcomes[i]).dump());
    }
    // The worker reports the baselines it computed for sharing.
    EXPECT_FALSE(result.alone.empty());
}

TEST(FleetWorker, SeededBaselinesAreNotReReported)
{
    const ExperimentSpec spec = specFromText(R"({
        "name": "t",
        "workloads": [["mcf", "hmmer"]],
        "schedulers": ["FR-FCFS"],
        "budget": 4000
    })");
    WorkUnit unit;
    unit.beginJob = 0;
    unit.endJob = 1;
    unit.spec = toJson(planExperiment(spec).spec);
    const ShardResult first = executeWorkUnit(unit);
    ASSERT_FALSE(first.alone.empty());

    unit.alone = first.alone; // Fleet-wide cache now knows them all.
    const ShardResult second = executeWorkUnit(unit);
    EXPECT_TRUE(second.alone.empty());
    ASSERT_EQ(second.outcomes.size(), 1u);
    EXPECT_EQ(toWire(second.outcomes[0]).dump(),
              toWire(first.outcomes[0]).dump());
}

TEST(FleetWorker, BadJobRangeIsAStructuredError)
{
    const ExperimentSpec spec = specFromText(
        R"({"name": "t", "workloads": [["mcf", "hmmer"]],)"
        R"( "schedulers": ["FR-FCFS"], "budget": 4000})");
    WorkUnit unit;
    unit.beginJob = 0;
    unit.endJob = 99; // The grid has exactly one job.
    unit.spec = toJson(planExperiment(spec).spec);
    EXPECT_THROW(executeWorkUnit(unit), SimError);
}

// Telemetry contract -------------------------------------------------

TEST(FleetTelemetry, EveryFleetCounterIsInTheCatalog)
{
    FleetStats stats;
    TelemetryRegistry registry;
    registerFleetTelemetry(registry, stats);
    EXPECT_EQ(registry.size(), 10u);
    for (const TelemetrySeries &series : registry.series()) {
        EXPECT_EQ(series.subsystem, "fleet");
        bool found = false;
        for (const TelemetryCatalogEntry &entry : telemetryCatalog()) {
            if (normalizeSeriesName(series.name) == entry.pattern) {
                found = true;
                EXPECT_STREQ(entry.subsystem, "fleet");
            }
        }
        EXPECT_TRUE(found) << series.name
                           << " is not in telemetryCatalog()";
    }
    // And the other way round: the catalog lists no fleet counter the
    // supervisor does not keep.
    std::size_t cataloged = 0;
    for (const TelemetryCatalogEntry &entry : telemetryCatalog()) {
        if (std::string(entry.subsystem) == "fleet")
            ++cataloged;
    }
    EXPECT_EQ(cataloged, registry.size());
}

TEST(FleetTelemetry, CountersTrackTheStatsStruct)
{
    FleetStats stats;
    TelemetryRegistry registry;
    registerFleetTelemetry(registry, stats);
    stats.shardsCompleted = 7;
    stats.sigkills = 2;
    std::vector<std::string> names;
    for (const TelemetrySeries &series : registry.series()) {
        names.push_back(series.name);
        if (series.name == "fleet.shards.completed") {
            EXPECT_DOUBLE_EQ(series.sample(), 7.0);
        } else if (series.name == "fleet.sigkills") {
            EXPECT_DOUBLE_EQ(series.sample(), 2.0);
        }
    }
    const std::vector<std::string> expected = {
        "fleet.shards.completed", "fleet.shards.resumed",
        "fleet.shards.failed",    "fleet.retries",
        "fleet.timeouts",         "fleet.hangs",
        "fleet.crashes",          "fleet.garbage",
        "fleet.heartbeats",       "fleet.sigkills"};
    EXPECT_EQ(names, expected);
}

} // namespace
} // namespace fleet
} // namespace stfm
