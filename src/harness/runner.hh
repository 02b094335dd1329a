/**
 * @file
 * Experiment runner: builds CMP systems from workload definitions, runs
 * them under a scheduling policy, and computes the Section 6.2 metrics
 * against memoized alone-run (FR-FCFS) baselines.
 *
 * Runs are fault-isolated: a workload that throws SimError/CheckFailure
 * (bad configuration, integrity violation, cycle-limit overrun) yields
 * a RunOutcome with `failed` set instead of killing the whole sweep,
 * and can optionally be retried with a reseeded trace RNG for
 * transient-configuration cases.
 */

#ifndef STFM_HARNESS_RUNNER_HH
#define STFM_HARNESS_RUNNER_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/workloads.hh"
#include "sim/config.hh"
#include "sim/results.hh"
#include "sim/system.hh"
#include "stats/metrics.hh"
#include "trace/catalog.hh"

namespace stfm
{

/** One (workload, scheduler) pairing queued for execution. */
struct RunJob
{
    Workload workload;
    SchedulerConfig scheduler;
    /**
     * Base trace-RNG salt: 0 reproduces the canonical streams; a spec's
     * repeat > 1 runs the same pairing under distinct salts to expose
     * trace-stream sensitivity. Retries salt on top of this base.
     */
    std::uint64_t seedSalt = 0;
    /**
     * Device spec name/path for this job (sim/device_io.hh); layered
     * onto the base memory configuration before the run. Empty keeps
     * the runner's base device (the DDR2-800 defaults).
     */
    std::string device;
    /**
     * SimConfig overrides (a JSON object, sim/config_io.hh) layered
     * after the device onto this job's run and its alone baselines;
     * empty = none. A scheduler entry's "config" (harness/spec.hh).
     */
    Json overrides = Json::object();
};

/** One workload run under one policy, with its metrics. */
struct RunOutcome
{
    std::string policyName;
    SimResult shared;
    MetricsReport metrics;
    /** The run (and any retries) failed; `metrics` is not valid. */
    bool failed = false;
    /** Failure description (what() of the last error) when failed. */
    std::string error;
    /** Attempts consumed (1 = first try succeeded / no retry). */
    unsigned attempts = 1;
    /** The run's stfm-telemetry-v1 document (Null unless telemetry
     *  sampling was enabled for the run). */
    Json telemetry;
    /** The run's Chrome trace document (Null unless tracing). */
    Json trace;

    bool hasTelemetry() const { return telemetry.type() != Json::Type::Null; }
    bool hasTrace() const { return trace.type() != Json::Type::Null; }
};

class ExperimentRunner
{
  public:
    /**
     * @param base Baseline system configuration; `cores` and the
     *             scheduler field are overridden per run.
     *
     * The environment overrides (EnvOverrides: STFM_INSTRUCTIONS,
     * STFM_REFERENCE, STFM_CHECK) are captured and layered onto the
     * base configuration here, so every run this runner performs
     * honors them.
     */
    explicit ExperimentRunner(SimConfig base);

    /**
     * Use @p base, with the environment overrides layered on, for every
     * workload of base.cores threads — its shared runs and its alone
     * baselines — instead of the constructor's base. An experiment
     * whose workloads mix core counts registers one base per count, so
     * each count keeps its own channel scaling. Not synchronized:
     * register every base before runMany().
     */
    void addBase(SimConfig base);

    /**
     * Run @p workload (one benchmark name per core) under
     * @p scheduler. Alone baselines are computed (and cached) with
     * FR-FCFS on the same memory configuration. Never throws for
     * run-level failures: inspect RunOutcome::failed.
     *
     * @param seed_salt Base trace-RNG salt (see RunJob::seedSalt);
     *                  retry attempts add 1, 2, ... on top of it.
     * @param device    Device spec name/path (see RunJob::device);
     *                  empty keeps the base configuration's device.
     */
    RunOutcome run(const Workload &workload,
                   const SchedulerConfig &scheduler,
                   std::uint64_t seed_salt = 0,
                   const std::string &device = {});

    /**
     * Register a runner-local benchmark under @p name, shadowing any
     * catalog entry of the same name for this runner's workloads and
     * alone baselines. Lets experiment specs define inline synthetic
     * profiles (e.g. the malicious-DoS hog) without touching the global
     * catalog. Thread-safe: registration and lookup share a mutex, so
     * registering mid-runMany() is safe (runs already in flight resolve
     * against the catalog as it was when they looked up each name).
     */
    void addBenchmark(const std::string &name,
                      const BenchmarkProfile &profile);

    /**
     * Alone-run result of one benchmark on the base memory system (or,
     * when @p device is non-empty, the base system retargeted to that
     * device spec — baselines are cached per (benchmark, device)).
     * @throws SimError if the benchmark is unknown or its alone run
     *         cannot complete (callers inside run() convert this into
     *         a failed outcome).
     */
    const ThreadResult &aloneResult(const std::string &benchmark,
                                    const std::string &device = {});

    /**
     * Pre-seed the alone-baseline cache with an already computed
     * result under its exact cache key (see aloneSnapshot()). The
     * fleet tier shares baselines across worker processes through the
     * sweep manifest instead of recomputing them per worker.
     */
    void seedAloneBaseline(const std::string &key,
                           const ThreadResult &result);

    /** Snapshot of the alone cache (key -> baseline), for sharing. */
    std::map<std::string, ThreadResult> aloneSnapshot() const;

    /** Run every scheduler in @p schedulers on @p workload. */
    std::vector<RunOutcome> runAll(
        const Workload &workload,
        const std::vector<SchedulerConfig> &schedulers);

    /**
     * Execute @p jobs across a pool of worker threads and return the
     * outcomes in job order — results are written by job index, so the
     * output is byte-for-byte independent of scheduling interleaving.
     * Each job builds its own traces and CmpSystem (simulations share
     * nothing mutable); the only cross-job state, the alone-baseline
     * cache, is mutex-guarded. Failures stay contained in their
     * RunOutcome exactly as with run().
     *
     * @param threads Worker count; 0 = defaultJobs(). Clamped to the
     *                job count; 1 degenerates to a sequential loop on
     *                the caller's thread.
     */
    std::vector<RunOutcome> runMany(const std::vector<RunJob> &jobs,
                                    unsigned threads = 0);

    /**
     * Worker-pool width when the caller does not choose: the STFM_JOBS
     * environment variable if set to a positive integer, otherwise the
     * hardware concurrency (minimum 1).
     */
    static unsigned defaultJobs();

    const SimConfig &base() const { return base_; }

    /**
     * Total attempts per run (>= 1). Attempts past the first rerun the
     * workload with a reseeded trace RNG, recovering runs whose
     * failure is specific to one synthetic stream (e.g. a starvation
     * bound grazed by one unlucky arrival pattern).
     */
    void setMaxAttempts(unsigned attempts);
    unsigned maxAttempts() const { return maxAttempts_; }

    /**
     * Testing/fault-injection seam: invoked at the top of every run
     * attempt with the workload and the 1-based attempt number. A hook
     * that throws SimError fails that attempt exactly as a simulation
     * failure would, driving the bounded-retry machinery (and its
     * seed-derivation rule, base + attempt - 1) deterministically.
     * Not for production use; see src/fleet/fault.hh.
     */
    void setAttemptHook(
        std::function<void(const Workload &, unsigned attempt)> hook);

    /** The five evaluation policies in the paper's presentation order. */
    static std::vector<SchedulerConfig> paperSchedulers();

  private:
    /** run() for one job, its overrides included. */
    RunOutcome runJob(const RunJob &job);
    /** The base registered for @p cores threads, else the default. */
    const SimConfig &baseFor(std::size_t cores) const;
    /** The shared-run configuration of @p job. */
    SimConfig configFor(const RunJob &job) const;
    /**
     * Alone baseline of @p benchmark on @p base with @p device and
     * @p overrides layered on (see aloneResult()).
     */
    const ThreadResult &aloneBaseline(const std::string &benchmark,
                                      const SimConfig &base,
                                      const std::string &device,
                                      const Json &overrides);
    /** Runner-local benchmark if registered, else the global catalog. */
    const BenchmarkProfile &profileFor(const std::string &name) const;
    /** One attempt; throws SimError/CheckFailure on failure. */
    RunOutcome attemptRun(const RunJob &job, std::uint64_t seed_salt,
                          unsigned attempt);

    SimConfig base_;
    /** Per-core-count bases (addBase()); other counts use base_. */
    std::map<unsigned, SimConfig> bases_;
    unsigned maxAttempts_ = 1;
    std::function<void(const Workload &, unsigned)> attemptHook_;
    /**
     * Spec-registered inline benchmarks (see addBenchmark()).
     * catalogMutex_ guards registration against concurrent lookup from
     * runMany() workers; returned references stay valid because
     * std::map nodes are address-stable and entries are overwritten,
     * never erased.
     */
    std::map<std::string, BenchmarkProfile> customBenchmarks_;
    mutable std::mutex catalogMutex_;
    /**
     * Memoized alone-run baselines, shared by concurrent runMany()
     * workers. aloneMutex_ is held for the whole lookup-or-compute:
     * this serializes baseline construction (each key is simulated
     * exactly once, whichever worker gets there first) and makes the
     * returned references safe to read afterwards — std::map node
     * addresses are stable under later insertions, and a published
     * entry is never mutated again.
     */
    std::map<std::string, ThreadResult> aloneCache_;
    mutable std::mutex aloneMutex_;
};

} // namespace stfm

#endif // STFM_HARNESS_RUNNER_HH
