/**
 * @file
 * The fleet supervisor: fault-tolerant sharded sweep execution over a
 * pool of `stfm worker` processes on this host.
 *
 * The supervisor partitions a spec's job grid into contiguous shards,
 * hands shards to workers over the frame protocol (fleet/protocol.hh),
 * and babysits the pool through a poll(2) event loop:
 *
 *   - per-shard wall-clock timeout (the shard is killed and retried);
 *   - a liveness window on worker heartbeats (a silent worker is a
 *     *hang*, killed and retried; a slow worker that heartbeats is
 *     left alone);
 *   - bounded retries with exponential backoff, each failure
 *     classified — nonzero exit, signal, timeout, hang, protocol
 *     garbage — and carried into diagnostics;
 *   - graceful degradation: a shard that exhausts its retries is
 *     merged as FAILED rows (structured error text, process attempt
 *     count) while the rest of the sweep completes.
 *
 * Workers are fork/exec'd children talking over a pipe pair; the
 * per-shard retry budget is the only failure policy.
 *
 * Determinism: process-level retries replay a shard with identical
 * seeds — crash-class faults are environmental, so the replay must
 * (and does) produce the bytes the faultless run would have. The
 * in-run reseeded retries (spec "attempts") happen inside the worker
 * and their salt rule, base + attempt - 1, is unchanged. With a
 * checkpoint directory, completed shards append to manifest.jsonl
 * (fleet/manifest.hh) and `--resume` replays them without
 * re-simulation; the merged stfm-results-v1 document is byte-identical
 * to an uninterrupted in-process run either way.
 */

#ifndef STFM_FLEET_SUPERVISOR_HH
#define STFM_FLEET_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace stfm
{

class TelemetryRegistry;

namespace fleet
{

/** Supervisor knobs (CLI flags map onto these 1:1). */
struct FleetOptions
{
    /** Shard count; 0 = one shard per result row. Clamped to the job
     *  count — never an empty shard. */
    unsigned shards = 0;
    /** Concurrent worker processes; 0 = ExperimentRunner::defaultJobs(). */
    unsigned workers = 0;
    /** Process-level retries per shard after the first attempt. */
    unsigned retries = 2;
    /** Per-shard wall-clock timeout, seconds; 0 disables. */
    double timeoutSec = 600.0;
    /** Base retry backoff, seconds; doubles per retry. */
    double backoffSec = 0.25;
    /** Worker heartbeat period while a shard runs. */
    unsigned heartbeatMs = 250;
    /** Liveness window, seconds: a busy worker silent longer than this
     *  is declared hung. 0 = derived (8 heartbeat periods, min 2 s). */
    double livenessSec = 0.0;
    /** Checkpoint directory (manifest.jsonl home); empty = none. */
    std::string checkpoint;
    /** Replay completed shards from the manifest instead of starting
     *  over. Requires `checkpoint`. */
    bool resume = false;
    /** Suppress the per-shard progress/ETA lines on stderr. */
    bool quiet = false;
    /**
     * Testing seam: stop supervising after this many shards complete
     * in *this* run (0 = never), as if the supervisor had been killed
     * — but with orderly teardown, so tests can exercise resume
     * without real signals or timing.
     */
    unsigned stopAfter = 0;
    /**
     * Worker command line; empty = {/proc/self/exe, "worker"}. Tests
     * point this at the built stfm CLI (or at impostors that misbehave
     * in ways STFM_FAULT cannot express).
     */
    std::vector<std::string> workerArgv;
};

/** Supervisor observability counters (docs/METRICS.md `fleet.*`). */
struct FleetStats
{
    std::uint64_t shardsCompleted = 0; ///< Executed to success this run.
    std::uint64_t shardsResumed = 0;   ///< Replayed from the manifest.
    std::uint64_t shardsFailed = 0;    ///< Exhausted their retries.
    std::uint64_t retries = 0;         ///< Shard attempts after the first.
    std::uint64_t timeouts = 0;        ///< Wall-clock deadline kills.
    std::uint64_t hangs = 0;           ///< Liveness-window kills.
    std::uint64_t crashes = 0;         ///< Nonzero exits and signals.
    std::uint64_t protocolErrors = 0;  ///< Garbage on the frame stream.
    std::uint64_t heartbeats = 0;      ///< Heartbeat frames received.
    std::uint64_t sigkills = 0;        ///< Workers killed by SIGKILL
                                       ///< (likely the OOM killer).
};

/** Everything a sharded execution produced. */
struct FleetOutcome
{
    ExperimentResult result;
    FleetStats stats;
    /** Shard indices merged as FAILED rows. */
    std::vector<unsigned> failedShards;
    /** True when stopAfter or SIGTERM/SIGINT ended the run early (the
     *  result is incomplete; resume from the checkpoint). */
    bool interrupted = false;

    bool anyFailed() const { return !failedShards.empty(); }
};

/**
 * Split @p jobs into at most @p requested contiguous [begin, end)
 * ranges, balanced to within one job. requested == 0 yields one shard
 * per result row (@p jobs_per_row jobs each); a request beyond the job
 * count is clamped (shards are never empty); zero jobs yield zero
 * shards.
 */
std::vector<std::pair<std::size_t, std::size_t>>
partitionShards(std::size_t jobs, std::size_t jobs_per_row,
                unsigned requested);

/**
 * Execute @p spec across a supervised worker pool and merge the shard
 * results into the exact ExperimentResult runExperiment would produce.
 * Shard failures degrade to FAILED outcome rows; spec-level problems
 * (and unusable checkpoint state: foreign manifest, newer manifest
 * version) throw SimError.
 */
FleetOutcome runShardedExperiment(const ExperimentSpec &spec,
                                  const FleetOptions &options);

/**
 * Register the `fleet.*` counters over @p stats on @p registry (the
 * PR 4 pull-based registry; the pointee must outlive it).
 */
void registerFleetTelemetry(TelemetryRegistry &registry,
                            const FleetStats &stats);

} // namespace fleet
} // namespace stfm

#endif // STFM_FLEET_SUPERVISOR_HH
