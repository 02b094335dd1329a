/**
 * @file
 * The wall-clock throughput benchmark behind the perf trajectory.
 *
 * One implementation serves two front ends — the `micro_scheduler_cost`
 * bench binary's default mode and the `stfm bench` CLI subcommand —
 * so both append to the same trajectory artifact with the same
 * methodology: run the Figure 9 sweep once on the cycle-by-cycle
 * reference path and once with fast-forwarding enabled, verify the two
 * produce bit-identical SimResults, and append the timings as a new
 * entry in `BENCH_perf.json` (schema `stfm-perf-trajectory-v1`, an
 * array of per-PR entries rather than a single overwritten snapshot).
 * EXPERIMENTS.md documents how to read the file.
 */

#ifndef STFM_HARNESS_PERFBENCH_HH
#define STFM_HARNESS_PERFBENCH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace stfm
{

/** Knobs for one benchmark invocation (see perfBenchOptionsFromEnv). */
struct PerfBenchOptions
{
    /** Sweep width in 4-core workloads (fig09's sample is 32). */
    unsigned workloads = 32;
    /** Per-thread instruction budget. */
    std::uint64_t budget = 50000;
    /** Worker-pool width for the main sweeps; 0 = defaultJobs(). */
    unsigned jobs = 0;
    /**
     * Extra optimized-path sweeps at these worker counts, recorded as
     * the entry's thread-scaling points. Empty = skip (each point
     * costs a full sweep).
     */
    std::vector<unsigned> scalingJobs;
    /** Trajectory label for the appended entry ("PR 7", "local"...). */
    std::string label = "local";
    /** Trajectory file path; read-modify-append, never overwritten. */
    std::string outPath = "BENCH_perf.json";
    /** Workload sampling seed (fixed: entries must be comparable). */
    std::uint64_t sampleSeed = 0x5174f09;
};

/**
 * Options from the environment: STFM_BENCH_WORKLOADS,
 * STFM_INSTRUCTIONS (via ExperimentRunner::budgetFromEnv),
 * STFM_BENCH_LABEL, STFM_BENCH_OUT, and STFM_BENCH_SCALING (a
 * comma-separated worker-count list, e.g. "1,2,4").
 */
PerfBenchOptions perfBenchOptionsFromEnv();

/**
 * Run the benchmark and append the result entry to the trajectory
 * file; a file at outPath that is not a trajectory is refused with a
 * SimError. Prints progress to stdout. Returns 0 when the two paths
 * were bit-exact, 1 otherwise.
 */
int runPerfBench(const PerfBenchOptions &options);

} // namespace stfm

#endif // STFM_HARNESS_PERFBENCH_HH
