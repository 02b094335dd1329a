#include "harness/perfbench.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

namespace stfm
{

namespace
{

/** One timed pass over the sweep. */
struct SweepTiming
{
    double aloneSeconds = 0;  ///< Alone-baseline prewarm (shared work).
    double sweepSeconds = 0;  ///< The 5-scheduler sweep proper.
    std::uint64_t dramCycles = 0; ///< Simulated DRAM cycles in the sweep.
    std::vector<RunOutcome> outcomes;
};

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

SweepTiming
timedSweep(const std::vector<Workload> &workload_list,
           std::uint64_t budget, bool fast_forward, unsigned jobs)
{
    SimConfig base;
    base.instructionBudget = budget;
    base.fastForward = fast_forward;
    ExperimentRunner runner(base);

    std::vector<RunJob> run_jobs;
    for (const Workload &w : workload_list)
        for (const SchedulerConfig &s : ExperimentRunner::paperSchedulers())
            run_jobs.push_back({w, s, 0, ""});

    // Prewarm the alone-baseline cache outside the sweep timing so
    // cycles-per-second relates wall time to exactly the runs whose
    // cycles are counted; the prewarm is reported separately (it is
    // part of a figure run's wall time).
    std::set<std::string> benchmarks;
    for (const Workload &w : workload_list)
        benchmarks.insert(w.begin(), w.end());
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string &b : benchmarks)
        runner.aloneResult(b);
    const auto t1 = std::chrono::steady_clock::now();
    SweepTiming timing;
    timing.outcomes = runner.runMany(run_jobs, jobs);
    const auto t2 = std::chrono::steady_clock::now();

    timing.aloneSeconds = seconds(t0, t1);
    timing.sweepSeconds = seconds(t1, t2);
    const Cycles per = base.memory.cpuPerDram();
    for (const RunOutcome &o : timing.outcomes)
        if (!o.failed)
            timing.dramCycles += o.shared.totalCycles / per;
    return timing;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    if (a.totalCycles != b.totalCycles ||
        a.hitCycleLimit != b.hitCycleLimit ||
        a.threads.size() != b.threads.size())
        return false;
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadResult &x = a.threads[t];
        const ThreadResult &y = b.threads[t];
        if (x.instructions != y.instructions || x.cycles != y.cycles ||
            x.memStallCycles != y.memStallCycles ||
            x.l2Misses != y.l2Misses || x.dramReads != y.dramReads ||
            x.dramWrites != y.dramWrites || x.rowHits != y.rowHits ||
            x.rowClosed != y.rowClosed ||
            x.rowConflicts != y.rowConflicts ||
            x.readLatencyMean != y.readLatencyMean ||
            x.readLatencyP50 != y.readLatencyP50 ||
            x.readLatencyP99 != y.readLatencyP99 ||
            x.readLatencyMax != y.readLatencyMax)
            return false;
    }
    return true;
}

/** Round for presentation: timings don't carry 17 digits of signal. */
double
rounded(double value, double scale)
{
    return std::round(value * scale) / scale;
}

Json
timingJson(const SweepTiming &t)
{
    Json out = Json::object();
    out.set("figure_host_seconds",
            rounded(t.aloneSeconds + t.sweepSeconds, 1000));
    out.set("sweep_host_seconds", rounded(t.sweepSeconds, 1000));
    out.set("alone_baseline_host_seconds",
            rounded(t.aloneSeconds, 1000));
    out.set("sweep_dram_cycles", t.dramCycles);
    out.set("dram_cycles_per_host_second",
            std::round(static_cast<double>(t.dramCycles) /
                       t.sweepSeconds));
    return out;
}

/** One trajectory entry. */
Json
entryJson(const PerfBenchOptions &options, unsigned jobs,
          const SweepTiming &ref, const SweepTiming &opt, bool bit_exact,
          const Json &scaling)
{
    Json out = Json::object();
    out.set("label", options.label);
    out.set("benchmark",
            formatMessage("fig09_four_core_avg sweep (4 cores x %u "
                          "workloads x 5 schedulers)",
                          options.workloads));
    out.set("instruction_budget", options.budget);
    out.set("worker_threads", jobs);
    out.set("reference", timingJson(ref));
    out.set("optimized", timingJson(opt));
    out.set("speedup_wall_clock",
            rounded((ref.aloneSeconds + ref.sweepSeconds) /
                        (opt.aloneSeconds + opt.sweepSeconds),
                    100));
    out.set("bit_exact", bit_exact);
    out.set("thread_scaling", scaling);
    return out;
}

/**
 * Load the trajectory entries already at @p path: none when the file
 * does not exist, else the entries of a trajectory object
 * ({"schema": "stfm-perf-trajectory-v1", "entries": [...]}). Anything
 * else is refused rather than overwritten.
 */
Json
loadEntries(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Json::array();
    std::ostringstream text;
    text << in.rdbuf();
    Json existing = Json::parse(text.str());
    if (const Json *schema = existing.find("schema")) {
        if (schema->asString("schema") != "stfm-perf-trajectory-v1") {
            throw SimError("'" + path + "' has unknown schema '" +
                           schema->asString("schema") +
                           "' — refusing to append");
        }
        return existing.at("entries", path);
    }
    throw SimError("'" + path + "' is not a perf trajectory — refusing "
                   "to append");
}

} // namespace

PerfBenchOptions
perfBenchOptionsFromEnv()
{
    PerfBenchOptions options;
    if (const char *env = std::getenv("STFM_BENCH_WORKLOADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            options.workloads = static_cast<unsigned>(v);
    }
    options.budget = ExperimentRunner::budgetFromEnv(options.budget);
    if (const char *env = std::getenv("STFM_BENCH_LABEL"))
        options.label = env;
    if (const char *env = std::getenv("STFM_BENCH_OUT"))
        options.outPath = env;
    if (const char *env = std::getenv("STFM_BENCH_SCALING")) {
        std::istringstream list(env);
        std::string item;
        while (std::getline(list, item, ',')) {
            const long v = std::strtol(item.c_str(), nullptr, 10);
            if (v > 0)
                options.scalingJobs.push_back(static_cast<unsigned>(v));
        }
    }
    return options;
}

int
runPerfBench(const PerfBenchOptions &options)
{
    const unsigned jobs = options.jobs ? options.jobs
                                       : ExperimentRunner::defaultJobs();
    const std::vector<Workload> workload_list =
        sampleWorkloads(4, options.workloads, options.sampleSeed);

    std::printf("throughput benchmark: fig09 sweep, %u workloads x 5 "
                "schedulers, budget %llu, %u worker thread(s)\n",
                options.workloads,
                static_cast<unsigned long long>(options.budget), jobs);

    std::printf("reference path (STFM_REFERENCE-equivalent)...\n");
    const SweepTiming ref = timedSweep(workload_list, options.budget,
                                       /*fast_forward=*/false, jobs);
    std::printf("  %.3f s (%.3f s alone baselines + %.3f s sweep)\n",
                ref.aloneSeconds + ref.sweepSeconds, ref.aloneSeconds,
                ref.sweepSeconds);
    std::printf("optimized path (fast-forwarding on)...\n");
    const SweepTiming opt = timedSweep(workload_list, options.budget,
                                       /*fast_forward=*/true, jobs);
    std::printf("  %.3f s (%.3f s alone baselines + %.3f s sweep)\n",
                opt.aloneSeconds + opt.sweepSeconds, opt.aloneSeconds,
                opt.sweepSeconds);

    bool bit_exact = ref.outcomes.size() == opt.outcomes.size();
    for (std::size_t i = 0; bit_exact && i < ref.outcomes.size(); ++i) {
        const RunOutcome &a = ref.outcomes[i];
        const RunOutcome &b = opt.outcomes[i];
        bit_exact = a.failed == b.failed &&
                    (a.failed || sameResult(a.shared, b.shared));
    }

    // Thread-scaling points: re-time the optimized sweep at each
    // requested worker count. Optimized path only — the scaling curve
    // characterizes the harness's parallel efficiency, which is
    // path-independent, and the optimized sweeps are the cheap ones.
    Json scaling = Json::array();
    for (unsigned n : options.scalingJobs) {
        std::printf("thread-scaling point: %u worker thread(s)...\n", n);
        const SweepTiming point = timedSweep(
            workload_list, options.budget, /*fast_forward=*/true, n);
        std::printf("  %.3f s sweep\n", point.sweepSeconds);
        Json p = Json::object();
        p.set("jobs", n);
        p.set("sweep_host_seconds", rounded(point.sweepSeconds, 1000));
        p.set("dram_cycles_per_host_second",
              std::round(static_cast<double>(point.dramCycles) /
                         point.sweepSeconds));
        scaling.push(std::move(p));
    }

    try {
        Json entries = loadEntries(options.outPath);
        entries.push(
            entryJson(options, jobs, ref, opt, bit_exact, scaling));
        Json trajectory = Json::object();
        trajectory.set("schema", "stfm-perf-trajectory-v1");
        trajectory.set("entries", std::move(entries));
        writeJsonFile(trajectory, options.outPath);
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("speedup %.2fx, bit_exact %s -> %s (entry '%s')\n",
                (ref.aloneSeconds + ref.sweepSeconds) /
                    (opt.aloneSeconds + opt.sweepSeconds),
                bit_exact ? "true" : "false", options.outPath.c_str(),
                options.label.c_str());
    return bit_exact ? 0 : 1;
}

} // namespace stfm
