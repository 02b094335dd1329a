/**
 * @file
 * End-to-end benchmark of the STFM simulator.
 *
 * Every workload is a figure run driven through the simulator's public
 * experiment API, exactly as `stfm fig09` / `stfm fig12` drive it:
 *
 *   specFromText -> planExperiment -> ExperimentRunner::aloneResult for
 *   every distinct benchmark -> runMany -> aggregateOutcomes ->
 *   resultsJson -> serialized stfm-results-v1 document.
 *
 * The untraced run repeats that pass for the requested seconds and
 * reports medians. The traced run records spans around the same calls
 * and, for the work that happens inside a single runMany call, composes
 * the next layer down itself (makeBenchmarkTrace -> CmpSystem -> run ->
 * computeMetrics), proving the composition bit-identical to runMany.
 * No simulator source is modified; layers are split by contrasting
 * workloads and schedulers and by exact counts public accessors expose.
 */

#ifndef STFM_PERF_BENCH_HH
#define STFM_PERF_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "sim/results.hh"
#include "spans.hh"
#include "stats/metrics.hh"

namespace perfbench
{

// Workloads --------------------------------------------------------------

/** The benchmark's workloads: sweep4, intensive16, light16. */
const std::vector<std::string> &workloadNames();

/**
 * Spec JSON text of @p workload for @p seed: explicit benchmark mixes,
 * budget and pool width, so the simulator receives only generated
 * workloads. Seed 0 keeps the figure's own core assignment; any other
 * seed permutes every mix's benchmarks over the cores (each row with
 * its own stream). @p budget 0 keeps the figure's budget; the
 * self-tests shrink it. @throws std::invalid_argument for an unknown
 * workload.
 */
std::string workloadSpecText(const std::string &workload,
                             std::uint64_t seed, std::uint64_t budget = 0,
                             unsigned jobs = 0);

// The figure pass --------------------------------------------------------

/** One pass from spec text to the serialized results document. */
struct FigurePass
{
    stfm::ExperimentPlan plan;
    /** Kept alive after the pass: it owns the alone-baseline cache the
     *  composed path and the reference cross-check read. */
    std::unique_ptr<stfm::ExperimentRunner> runner;
    stfm::ExperimentResult result;
    std::string document;
    std::size_t aloneRuns = 0;
    double setupSeconds = 0.0;   ///< Spec resolution + alone prewarm.
    double runManySeconds = 0.0; ///< The shared runs.
    double wallSeconds = 0.0;    ///< Spec text to document.
    /** Simulated DRAM cycles of all successful shared runs. */
    std::uint64_t dramCycles = 0;
};

/**
 * Execute one figure pass. With @p spans, records harness.* spans
 * around each public call (the traced run); without, only the four
 * clock reads the end-to-end metrics need.
 */
FigurePass runFigurePass(const std::string &spec_text,
                         SpanRecorder *spans = nullptr);

// The composed path ------------------------------------------------------

/** Exact work counts of one run, read from public accessors. */
struct LayerCounts
{
    std::uint64_t traceOps = 0;     ///< TraceOps the cores pulled.
    std::uint64_t instructions = 0; ///< Instructions in those ops.
    std::uint64_t cpuCycles = 0;
    std::uint64_t dramCycles = 0;
    std::uint64_t columnIssues = 0;
    std::uint64_t commands = 0; ///< ACT + PRE + RD + WR + REF.
    std::uint64_t activates = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t channelCycles = 0; ///< dramCycles x channels.

    bool operator==(const LayerCounts &) const = default;
    LayerCounts &operator+=(const LayerCounts &other);
};

struct ComposedRun
{
    stfm::SimResult shared;
    stfm::MetricsReport metrics;
    LayerCounts counts;
    /** TraceOps pulled per core, for the standalone regeneration. */
    std::vector<std::uint64_t> opsPerCore;
};

/**
 * Run @p job the way ExperimentRunner::run does (first attempt), one
 * layer at a time: traces, CmpSystem, run, computeMetrics against
 * @p runner's alone baselines. @p fast_forward false pins the
 * cycle-by-cycle reference path. With @p spans, records job /
 * sim.build / trace.make / sim.run / stats.metrics spans under
 * @p job_id.
 */
ComposedRun runComposed(const stfm::RunJob &job,
                        stfm::ExperimentRunner &runner, bool fast_forward,
                        SpanRecorder *spans = nullptr, int job_id = -1);

struct Regeneration
{
    double seconds = 0.0; ///< Time in TraceSource::next() alone.
    std::uint64_t instructions = 0;
};

/** Regenerate @p ops_per_core TraceOps of @p job's traces standalone. */
Regeneration regenerateTraces(const stfm::RunJob &job,
                              const stfm::ExperimentRunner &runner,
                              const std::vector<std::uint64_t> &ops_per_core);

// Output checks ----------------------------------------------------------

/** First field where @p a and @p b differ, "" when bit-identical. */
std::string simResultDiff(const stfm::SimResult &a,
                          const stfm::SimResult &b);
/** First field where @p a and @p b differ, "" when bit-identical. */
std::string metricsDiff(const stfm::MetricsReport &a,
                        const stfm::MetricsReport &b);

/**
 * Why shared run @p outcome is not a valid result of a @p cores-core
 * run, "" when it is: failed, hit the cycle limit (a thread never
 * reached its budget), measured an empty window, or produced invalid
 * metrics.
 */
std::string outcomeProblem(const stfm::RunOutcome &outcome,
                           std::size_t cores);

// Metrics and the result line --------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of the untraced run, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Metrics of the traced run, in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * The benchmark's last stdout line: correctness, operations attempted
 * and failed, and every metric of one catalog by name and unit.
 */
class Report
{
  public:
    explicit Report(const std::vector<MetricDef> &catalog);

    /** Count one operation (a run or a cross-check); @p problem "" = ok. */
    void operation(const std::string &problem);
    /** Record a check that is not an operation; @p problem "" = ok. */
    void check(const std::string &problem);
    void set(const std::string &name, double value);
    void setCount(const std::string &name, std::uint64_t value);

    /** The JSON line. A catalog metric left unset, a metric outside
     *  the catalog or a non-finite value makes it incorrect. */
    std::string line();

  private:
    /** Store @p value under catalog metric @p name. */
    void put(const std::string &name, stfm::Json value);

    const std::vector<MetricDef> &catalog_;
    stfm::Json metrics_ = stfm::Json::object();
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
};

// The benchmark ----------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansOut;
    /** Instruction budget override (0 = the figure's; tests only). */
    std::uint64_t budget = 0;
};

/** Run one benchmark invocation and return its result line. */
std::string runBenchmark(const Options &options);

} // namespace perfbench

#endif // STFM_PERF_BENCH_HH
