#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>

#include "common/rng.hh"
#include "fleet/supervisor.hh"
#include "harness/spec.hh"
#include "harness/workloads.hh"
#include "sim/device_io.hh"
#include "sim/system.hh"
#include "trace/catalog.hh"

namespace perfbench
{

using stfm::Json;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** Instructions one TraceOp contributes (see trace/trace.hh). */
std::uint64_t
opInstructions(const stfm::TraceOp &op)
{
    return op.aluBefore + (op.kind == stfm::TraceOp::Kind::None ? 0 : 1);
}

// The figures' own budgets: fig09 for the 4-core sweep, fig12 for the
// 16-core mixes. fig09's sample seed picks the sweep's mixes, so seed 0
// reproduces the first kSweepMixes rows of `stfm fig09` exactly.
constexpr std::uint64_t kSweepBudget = 50000;
constexpr std::uint64_t kSixteenBudget = 30000;
constexpr std::uint64_t kFig09SampleSeed = 0x5174f09;
constexpr unsigned kSweepMixes = 8;
/** Worker processes of the traced run's fleet comparison. */
constexpr unsigned kFleetWorkers = 2;
/**
 * Samples per per-job span family in the traced run: 40 is the fewest
 * whose p75 has ten samples beyond it (sweep4's 40 jobs in one round,
 * eight rounds of the 16-core workloads' five).
 */
constexpr unsigned kJobSamples = 40;

/**
 * Shuffle @p mix's benchmarks over the cores (Fisher-Yates on the
 * simulator's own portable Rng). The seed moves benchmarks between
 * cores instead of reseeding their traces: a trace salt also reseeds
 * each benchmark's bank subset, which moved a 16-core figure's
 * simulated work by 40 % between seeds, so no bound could hold it.
 */
void
permute(stfm::Workload &mix, std::uint64_t seed, std::size_t row)
{
    if (seed == 0)
        return;
    stfm::Rng rng(stfm::combineSeeds(seed, row));
    for (std::size_t i = mix.size() - 1; i > 0; --i)
        std::swap(mix[i], mix[rng.nextBelow(i + 1)]);
}

/** Short policy tag used in metric names. */
const char *
policyTag(stfm::PolicyKind kind)
{
    switch (kind) {
    case stfm::PolicyKind::FrFcfs: return "frfcfs";
    case stfm::PolicyKind::Fcfs: return "fcfs";
    case stfm::PolicyKind::FrFcfsCap: return "cap";
    case stfm::PolicyKind::Nfq: return "nfq";
    case stfm::PolicyKind::Stfm: return "stfm";
    }
    return "unknown";
}

/** The configuration ExperimentRunner::run builds for @p job. */
stfm::SimConfig
jobConfig(const stfm::ExperimentRunner &runner, const stfm::RunJob &job,
          bool fast_forward)
{
    stfm::SimConfig config = runner.base();
    config.cores = static_cast<unsigned>(job.workload.size());
    config.scheduler = job.scheduler;
    if (!job.device.empty())
        stfm::applyDevice(config.memory, job.device);
    config.fastForward = fast_forward;
    return config;
}

stfm::AddressMapping
mappingOf(const stfm::MemoryConfig &m)
{
    return stfm::AddressMapping(m.channels, m.banksPerChannel, m.rowBytes,
                                m.lineBytes, m.rowsPerBank,
                                m.xorBankMapping, m.bankGroups);
}

/** Pass-through TraceSource that counts what the core pulls. */
class CountingTrace final : public stfm::TraceSource
{
  public:
    explicit CountingTrace(std::unique_ptr<stfm::TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    stfm::TraceOp
    next() override
    {
        const stfm::TraceOp op = inner_->next();
        ++ops_;
        instructions_ += opInstructions(op);
        return op;
    }

    void
    warmupFootprint(std::size_t lines,
                    std::vector<stfm::WarmLine> &out) override
    {
        inner_->warmupFootprint(lines, out);
    }

    std::uint64_t ops() const { return ops_; }
    std::uint64_t instructions() const { return instructions_; }

  private:
    std::unique_ptr<stfm::TraceSource> inner_;
    std::uint64_t ops_ = 0;
    std::uint64_t instructions_ = 0;
};

/** Index of the STFM entry in @p plan's scheduler list. */
std::size_t
stfmScheduler(const stfm::ExperimentPlan &plan)
{
    for (std::size_t s = 0; s < plan.schedulers.size(); ++s) {
        if (plan.schedulers[s].config.kind == stfm::PolicyKind::Stfm)
            return s;
    }
    throw std::logic_error("workload runs no STFM scheduler");
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Every shared run of @p pass is one operation. */
void
checkPass(Report &report, const FigurePass &pass)
{
    for (std::size_t i = 0; i < pass.result.outcomes.size(); ++i) {
        const std::string problem =
            outcomeProblem(pass.result.outcomes[i],
                           pass.plan.jobs[i].workload.size());
        report.operation(problem.empty()
                             ? ""
                             : "job " + std::to_string(i) + ": " + problem);
    }
}

/**
 * Re-run row 0's STFM job on the cycle-by-cycle reference path and
 * compare it with @p pass's fast-forward result, field by field.
 */
void
crossCheckReference(Report &report, FigurePass &pass)
{
    const std::size_t s = stfmScheduler(pass.plan);
    const ComposedRun reference = runComposed(
        pass.plan.jobs[s], *pass.runner, /*fast_forward=*/false);
    const stfm::RunOutcome &fast = pass.result.outcomes[s];
    std::string diff = simResultDiff(reference.shared, fast.shared);
    if (diff.empty())
        diff = metricsDiff(reference.metrics, fast.metrics);
    report.operation(diff.empty() ? ""
                                  : "reference path differs at " + diff);
}

std::string
runUntraced(const Options &options, const std::string &spec_text)
{
    Report report(endToEndMetrics());
    constexpr std::size_t kMinPasses = 3;
    std::vector<double> wall, setup, throughput;
    FigurePass first;
    const Clock::time_point start = Clock::now();
    do {
        FigurePass pass = runFigurePass(spec_text);
        checkPass(report, pass);
        wall.push_back(pass.wallSeconds);
        setup.push_back(pass.setupSeconds);
        throughput.push_back(static_cast<double>(pass.dramCycles) /
                             pass.runManySeconds);
        if (wall.size() == 1) {
            first = std::move(pass);
        } else {
            report.operation(pass.document == first.document
                                 ? ""
                                 : "results document differs between "
                                   "passes");
        }
    } while (wall.size() < kMinPasses ||
             secondsSince(start) < options.seconds);
    const double rss = peakRssMb();

    crossCheckReference(report, first);

    const stfm::SweepSummary &stfm =
        first.result.aggregates[stfmScheduler(first.plan)].summary;
    report.set("wall_s", median(wall));
    report.set("setup_s", median(setup));
    report.set("sim_dram_cycles_per_s", median(throughput));
    report.set("peak_rss_mb", rss);
    report.set("stfm_weighted_speedup", stfm.weightedSpeedup.value());
    report.set("stfm_hmean_speedup", stfm.hmeanSpeedup.value());
    std::fprintf(stderr,
                 "%s: %zu passes in %.1f s, median wall %.4f s, "
                 "setup %.4f s\n",
                 options.workload.c_str(), wall.size(),
                 secondsSince(start), median(wall), median(setup));
    return report.line();
}

/** What the composed rounds measured: work counts are per round. */
struct ComposedRounds
{
    std::size_t rounds = 0;
    LayerCounts counts;
    std::map<std::string, std::uint64_t> policyDram;
    std::vector<std::vector<std::uint64_t>> opsPerJob;
};

/**
 * Compose every job of @p base round after round until each per-job
 * span family holds @p samples samples; each composed job must equal
 * its runMany outcome bit for bit, and every round's counts the first.
 */
ComposedRounds
composeRounds(Report &report, SpanRecorder &spans, FigurePass &base,
              unsigned samples)
{
    const std::vector<stfm::RunJob> &jobs = base.plan.jobs;
    ComposedRounds out;
    out.rounds = std::max<std::size_t>(
        1, (samples + jobs.size() - 1) / jobs.size());
    out.opsPerJob.resize(jobs.size());
    for (std::size_t r = 0; r < out.rounds; ++r) {
        LayerCounts round;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ComposedRun run = runComposed(
                jobs[j], *base.runner, /*fast_forward=*/true, &spans,
                static_cast<int>(r * jobs.size() + j));
            const stfm::RunOutcome &expected = base.result.outcomes[j];
            std::string diff = simResultDiff(run.shared, expected.shared);
            if (diff.empty())
                diff = metricsDiff(run.metrics, expected.metrics);
            report.operation(diff.empty()
                                 ? ""
                                 : "composed job " + std::to_string(j) +
                                       " differs from runMany at " + diff);
            round += run.counts;
            if (r == 0) {
                out.policyDram[policyTag(jobs[j].scheduler.kind)] +=
                    run.counts.dramCycles;
                out.opsPerJob[j] = run.opsPerCore;
            }
        }
        if (r == 0)
            out.counts = round;
        report.check(round == out.counts
                         ? ""
                         : "work counts changed between composed rounds");
    }
    return out;
}

/** sim.*, trace.*, cpu.*, mem.*, dram.*, sched.*, stats.*, model.*. */
void
reportSimLayers(Report &report, SpanRecorder &spans,
                const FigurePass &base, const ComposedRounds &composed)
{
    const std::vector<stfm::RunJob> &jobs = base.plan.jobs;
    const LayerCounts &counts = composed.counts;
    const double perRound = 1.0 / static_cast<double>(composed.rounds);
    std::map<std::string, double> policyRun;
    for (const Span &span : spans.spans()) {
        if (span.name == "sim.run")
            policyRun[policyTag(jobs[span.job % jobs.size()]
                                    .scheduler.kind)] +=
                span.seconds() * perRound;
    }
    std::map<std::string, double> nsPerCycle;
    for (const char *tag : {"frfcfs", "fcfs", "cap", "nfq", "stfm"}) {
        nsPerCycle[tag] =
            policyRun[tag] * 1e9 /
            static_cast<double>(composed.policyDram.at(tag));
        report.set(std::string("sim.run_s.") + tag, policyRun[tag]);
        report.set(std::string("sim.ns_per_dram_cycle.") + tag,
                   nsPerCycle[tag]);
    }
    const double runSeconds = spans.totalSeconds("sim.run") * perRound;
    report.set("sim.build_s", spans.totalSeconds("sim.build") * perRound);
    report.setCount("sim.dram_cycles", counts.dramCycles);
    report.setCount("sim.cpu_cycles", counts.cpuCycles);
    report.set("sched.stfm_cost_ratio",
               nsPerCycle["stfm"] / nsPerCycle["frfcfs"]);
    report.set("stats.metrics_s",
               spans.totalSeconds("stats.metrics") * perRound);

    // Trace generation standalone, the same op counts as pulled.
    Regeneration regen;
    {
        ScopedSpan span(&spans, "trace.gen");
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const Regeneration job = regenerateTraces(
                jobs[j], *base.runner, composed.opsPerJob[j]);
            regen.seconds += job.seconds;
            regen.instructions += job.instructions;
        }
    }
    report.check(regen.instructions == counts.instructions
                     ? ""
                     : "regenerated traces hold different instructions");
    report.setCount("trace.ops", counts.traceOps);
    report.set("trace.gen_s", regen.seconds);

    // Simulated-machine counts from the runMany outcomes.
    std::uint64_t windowInstructions = 0, l2Misses = 0;
    std::uint64_t rowHits = 0, rowAccesses = 0;
    double latencySum = 0.0;
    std::size_t threads = 0;
    for (const stfm::RunOutcome &o : base.result.outcomes) {
        for (const stfm::ThreadResult &t : o.shared.threads) {
            windowInstructions += t.instructions;
            l2Misses += t.l2Misses;
            rowHits += t.rowHits;
            rowAccesses += t.rowHits + t.rowClosed + t.rowConflicts;
            latencySum += t.readLatencyMean;
            ++threads;
        }
    }
    const auto ratio = [](auto num, auto den) {
        return static_cast<double>(num) / static_cast<double>(den);
    };
    report.setCount("cpu.instructions", counts.instructions);
    report.setCount("cpu.l2_misses", l2Misses);
    report.set("cpu.ns_per_instruction",
               runSeconds * 1e9 / static_cast<double>(counts.instructions));
    report.set("cpu.window_instr_ratio",
               ratio(windowInstructions, counts.instructions));
    report.setCount("mem.column_issues", counts.columnIssues);
    report.set("mem.read_latency_mean", latencySum / threads);
    report.setCount("dram.commands", counts.commands);
    report.setCount("dram.activates", counts.activates);
    report.set("dram.row_hit_rate", ratio(rowHits, rowAccesses));
    report.set("dram.bus_util",
               ratio(counts.busBusyCycles, counts.channelCycles));
    report.set("dram.ns_per_command",
               runSeconds * 1e9 / static_cast<double>(counts.commands));
    report.set("model.stfm_unfairness",
               base.result.aggregates[stfmScheduler(base.plan)]
                   .summary.unfairness.value());
}

/**
 * Shard @p base's spec over worker processes and compare the merged
 * document; the overhead is against @p in_process_seconds, an
 * in-process figure pass at the same pool width.
 */
void
reportFleet(Report &report, SpanRecorder &spans, const FigurePass &base,
            double in_process_seconds)
{
    ScopedSpan span(&spans, "fleet.run");
    stfm::fleet::FleetOptions fleet;
    fleet.shards = 8;
    fleet.workers = kFleetWorkers;
    fleet.quiet = true;
    const Clock::time_point start = Clock::now();
    const stfm::fleet::FleetOutcome out =
        stfm::fleet::runShardedExperiment(base.plan.spec, fleet);
    const double seconds = secondsSince(start);
    const bool same = !out.anyFailed() && !out.interrupted &&
                      stfm::resultsJson(out.result).dump(2) == base.document;
    report.operation(same ? ""
                          : "sharded results differ from the in-process "
                            "document");
    report.set("fleet.run_s", seconds);
    report.set("fleet.overhead_ratio", seconds / in_process_seconds);
    report.setCount("fleet.heartbeats", out.stats.heartbeats);
}

std::string
runTraced(const Options &options, const std::string &spec_text)
{
    Report report(perLayerMetrics());
    SpanRecorder spans;

    // Warm-up pass: its outcomes and document are the reference every
    // later path must reproduce. The traced pass is then bracketed by
    // an untraced one for the overhead ratio.
    FigurePass base = runFigurePass(spec_text);
    checkPass(report, base);
    FigurePass traced = runFigurePass(spec_text, &spans);
    checkPass(report, traced);
    report.operation(traced.document == base.document
                         ? ""
                         : "traced pass document differs");
    FigurePass untraced = runFigurePass(spec_text);
    checkPass(report, untraced);

    report.set("harness.plan_s", spans.totalSeconds("harness.plan"));
    report.set("harness.alone_s", spans.totalSeconds("harness.alone"));
    report.setCount("harness.alone_runs", traced.aloneRuns);
    report.set("harness.output_s", spans.totalSeconds("harness.output"));
    report.set("bench.trace_overhead",
               traced.wallSeconds / untraced.wallSeconds);

    const ComposedRounds composed =
        composeRounds(report, spans, base, kJobSamples);
    const std::size_t width = std::min<std::size_t>(
        std::max(base.plan.spec.jobs, 1u), base.plan.jobs.size());
    report.set("harness.pool_efficiency",
               spans.totalSeconds("job") / composed.rounds /
                   (width * traced.runManySeconds));
    reportSimLayers(report, spans, base, composed);

    {
        ScopedSpan span(&spans, "check.reference");
        crossCheckReference(report, base);
    }

    double inProcessSeconds = untraced.wallSeconds;
    if (base.plan.spec.jobs != kFleetWorkers) {
        ScopedSpan span(&spans, "fleet.baseline");
        const FigurePass wide = runFigurePass(workloadSpecText(
            options.workload, options.seed, options.budget, kFleetWorkers));
        checkPass(report, wide);
        inProcessSeconds = wide.wallSeconds;
    }
    reportFleet(report, spans, base, inProcessSeconds);

    for (const char *family : {"job", "sim.build", "sim.run",
                               "stats.metrics"}) {
        const Distribution d = distribution(spans.durations(family));
        const std::string prefix = std::string("dist.") + family;
        report.setCount(prefix + ".n", d.count);
        report.set(prefix + ".p50_s", d.p50);
        report.set(prefix + ".p" + std::to_string(d.tailPercentile) + "_s",
                   d.tail);
    }

    if (!options.spansOut.empty())
        stfm::writeJsonFile(spans.toJson(), options.spansOut);
    return report.line();
}

} // namespace

// Workloads --------------------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep4", "intensive16",
                                                   "light16"};
    return names;
}

std::string
workloadSpecText(const std::string &workload, std::uint64_t seed,
                 std::uint64_t budget, unsigned jobs)
{
    std::vector<stfm::Workload> mixes;
    std::uint64_t figureBudget = kSixteenBudget;
    unsigned width = 1;
    std::string title;
    if (workload == "sweep4") {
        mixes = stfm::sampleWorkloads(4, kSweepMixes, kFig09SampleSeed);
        figureBudget = kSweepBudget;
        width = 2;
        title = "fig09 4-core category-balanced mixes";
    } else if (workload == "intensive16") {
        mixes = {stfm::workloads::sixteenCore()[0]};
        title = "fig12 high16: the 16 most intensive benchmarks";
    } else if (workload == "light16") {
        mixes = {stfm::workloads::sixteenCore()[2]};
        title = "fig12 low16: the 16 least intensive benchmarks";
    } else {
        throw std::invalid_argument(
            "unknown workload '" + workload +
            "' (known: sweep4, intensive16, light16)");
    }

    Json list = Json::array();
    for (std::size_t row = 0; row < mixes.size(); ++row) {
        permute(mixes[row], seed, row);
        Json mix = Json::array();
        for (const std::string &name : mixes[row])
            mix.push(Json(name));
        list.push(std::move(mix));
    }
    Json spec = Json::object();
    spec.set("name", workload);
    spec.set("title", title);
    spec.set("workloads", std::move(list));
    spec.set("budget", budget ? budget : figureBudget);
    spec.set("jobs", jobs ? jobs : width);
    return spec.dump(2);
}

// The figure pass --------------------------------------------------------

FigurePass
runFigurePass(const std::string &spec_text, SpanRecorder *spans)
{
    FigurePass pass;
    ScopedSpan whole(spans, "harness.pass");
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(spans, "harness.plan");
        pass.plan = stfm::planExperiment(stfm::specFromText(spec_text));
        pass.runner =
            std::make_unique<stfm::ExperimentRunner>(pass.plan.base);
        stfm::configureRunner(*pass.runner, pass.plan);
    }
    {
        ScopedSpan span(spans, "harness.alone");
        std::set<std::string> seen;
        for (const stfm::Workload &mix : pass.plan.workloads) {
            for (const std::string &name : mix) {
                if (!seen.insert(name).second)
                    continue;
                ScopedSpan run(spans, "harness.alone_run");
                pass.runner->aloneResult(name);
            }
        }
        pass.aloneRuns = seen.size();
    }
    const Clock::time_point t1 = Clock::now();
    std::vector<stfm::RunOutcome> outcomes;
    {
        ScopedSpan span(spans, "harness.run_many");
        outcomes = pass.runner->runMany(pass.plan.jobs, pass.plan.spec.jobs);
    }
    const Clock::time_point t2 = Clock::now();
    {
        ScopedSpan span(spans, "harness.output");
        pass.result = stfm::resultFromPlan(pass.plan);
        pass.result.outcomes = std::move(outcomes);
        stfm::aggregateOutcomes(pass.result);
        pass.document = stfm::resultsJson(pass.result).dump(2);
    }
    const Clock::time_point t3 = Clock::now();

    pass.setupSeconds = secondsBetween(t0, t1);
    pass.runManySeconds = secondsBetween(t1, t2);
    pass.wallSeconds = secondsBetween(t0, t3);
    const stfm::Cycles perDram = pass.plan.base.memory.cpuPerDram();
    for (const stfm::RunOutcome &o : pass.result.outcomes) {
        if (!o.failed)
            pass.dramCycles += o.shared.totalCycles / perDram;
    }
    return pass;
}

// The composed path ------------------------------------------------------

LayerCounts &
LayerCounts::operator+=(const LayerCounts &other)
{
    traceOps += other.traceOps;
    instructions += other.instructions;
    cpuCycles += other.cpuCycles;
    dramCycles += other.dramCycles;
    columnIssues += other.columnIssues;
    commands += other.commands;
    activates += other.activates;
    busBusyCycles += other.busBusyCycles;
    channelCycles += other.channelCycles;
    return *this;
}

ComposedRun
runComposed(const stfm::RunJob &job, stfm::ExperimentRunner &runner,
            bool fast_forward, SpanRecorder *spans, int job_id)
{
    ScopedSpan whole(spans, "job", job_id);
    const stfm::SimConfig config = jobConfig(runner, job, fast_forward);
    // Baselines first (cache hits after the prewarm), so stats.metrics
    // times computeMetrics alone.
    std::vector<stfm::ThreadResult> alone;
    for (const std::string &name : job.workload)
        alone.push_back(runner.aloneResult(name, job.device));

    ComposedRun out;
    std::vector<const CountingTrace *> counters;
    std::unique_ptr<stfm::CmpSystem> system;
    {
        ScopedSpan build(spans, "sim.build", job_id);
        std::vector<std::unique_ptr<stfm::TraceSource>> traces;
        {
            ScopedSpan make(spans, "trace.make", job_id);
            const stfm::AddressMapping mapping = mappingOf(config.memory);
            for (unsigned t = 0; t < config.cores; ++t) {
                auto counting = std::make_unique<CountingTrace>(
                    stfm::makeBenchmarkTrace(
                        stfm::findBenchmark(job.workload[t]), mapping, t,
                        config.cores, job.seedSalt));
                counters.push_back(counting.get());
                traces.push_back(std::move(counting));
            }
        }
        system = std::make_unique<stfm::CmpSystem>(config, std::move(traces));
    }
    {
        ScopedSpan run(spans, "sim.run", job_id);
        out.shared = system->run();
    }
    {
        ScopedSpan metrics(spans, "stats.metrics", job_id);
        out.metrics = stfm::computeMetrics(out.shared, alone);
    }

    LayerCounts &c = out.counts;
    for (const CountingTrace *counter : counters) {
        c.traceOps += counter->ops();
        c.instructions += counter->instructions();
        out.opsPerCore.push_back(counter->ops());
    }
    const stfm::MemorySystem &memory = system->memory();
    const unsigned channels = memory.config().channels;
    for (unsigned ch = 0; ch < channels; ++ch) {
        const stfm::MemoryController &controller = memory.controller(ch);
        const stfm::ChannelStats &s = controller.channel().stats();
        c.columnIssues += controller.columnIssues();
        c.commands +=
            s.reads + s.writes + s.activates + s.precharges + s.refreshes;
        c.activates += s.activates;
        c.busBusyCycles += s.dataBusBusyCycles;
    }
    c.cpuCycles = out.shared.totalCycles;
    c.dramCycles = memory.dramNow();
    c.channelCycles = c.dramCycles * channels;
    return out;
}

Regeneration
regenerateTraces(const stfm::RunJob &job,
                 const stfm::ExperimentRunner &runner,
                 const std::vector<std::uint64_t> &ops_per_core)
{
    const stfm::SimConfig config = jobConfig(runner, job, true);
    const stfm::AddressMapping mapping = mappingOf(config.memory);
    Regeneration out;
    for (unsigned t = 0; t < config.cores; ++t) {
        const std::unique_ptr<stfm::TraceSource> trace =
            stfm::makeBenchmarkTrace(stfm::findBenchmark(job.workload[t]),
                                     mapping, t, config.cores,
                                     job.seedSalt);
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < ops_per_core[t]; ++i)
            out.instructions += opInstructions(trace->next());
        out.seconds += secondsSince(start);
    }
    return out;
}

// Output checks ----------------------------------------------------------

// A new result field must be compared below; these trip when one is
// added so the comparison cannot silently fall behind.
static_assert(sizeof(stfm::ThreadResult) == 13 * sizeof(std::uint64_t),
              "ThreadResult changed: update simResultDiff");
static_assert(sizeof(stfm::SimResult) ==
                  sizeof(std::vector<stfm::ThreadResult>) +
                      2 * sizeof(std::uint64_t),
              "SimResult changed: update simResultDiff");

std::string
simResultDiff(const stfm::SimResult &a, const stfm::SimResult &b)
{
    if (a.totalCycles != b.totalCycles)
        return "totalCycles";
    if (a.hitCycleLimit != b.hitCycleLimit)
        return "hitCycleLimit";
    if (a.threads.size() != b.threads.size())
        return "threads.size";
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const stfm::ThreadResult &x = a.threads[t];
        const stfm::ThreadResult &y = b.threads[t];
        const std::string at = "threads[" + std::to_string(t) + "].";
#define PERF_COMPARE(field)                                               \
    if (x.field != y.field)                                               \
        return at + #field;
        PERF_COMPARE(instructions)
        PERF_COMPARE(cycles)
        PERF_COMPARE(memStallCycles)
        PERF_COMPARE(l2Misses)
        PERF_COMPARE(dramReads)
        PERF_COMPARE(dramWrites)
        PERF_COMPARE(rowHits)
        PERF_COMPARE(rowClosed)
        PERF_COMPARE(rowConflicts)
        PERF_COMPARE(readLatencyMean)
        PERF_COMPARE(readLatencyP50)
        PERF_COMPARE(readLatencyP99)
        PERF_COMPARE(readLatencyMax)
#undef PERF_COMPARE
    }
    return "";
}

std::string
metricsDiff(const stfm::MetricsReport &a, const stfm::MetricsReport &b)
{
    if (a.slowdowns != b.slowdowns)
        return "metrics.slowdowns";
    if (a.relIpc != b.relIpc)
        return "metrics.relIpc";
    if (a.unfairness != b.unfairness)
        return "metrics.unfairness";
    if (a.weightedSpeedup != b.weightedSpeedup)
        return "metrics.weightedSpeedup";
    if (a.hmeanSpeedup != b.hmeanSpeedup)
        return "metrics.hmeanSpeedup";
    if (a.sumOfIpcs != b.sumOfIpcs)
        return "metrics.sumOfIpcs";
    return "";
}

std::string
outcomeProblem(const stfm::RunOutcome &outcome, std::size_t cores)
{
    if (outcome.failed)
        return "run failed: " + outcome.error;
    if (outcome.shared.hitCycleLimit)
        return "run hit the cycle limit";
    if (outcome.shared.threads.size() != cores)
        return "run reports the wrong number of threads";
    for (const stfm::ThreadResult &t : outcome.shared.threads) {
        if (t.instructions == 0 || t.cycles == 0)
            return "a thread committed nothing in its window";
    }
    const stfm::MetricsReport &m = outcome.metrics;
    if (!std::isfinite(m.unfairness) || m.unfairness < 1.0 ||
        !std::isfinite(m.weightedSpeedup) || m.weightedSpeedup <= 0.0 ||
        !std::isfinite(m.hmeanSpeedup) || m.hmeanSpeedup <= 0.0)
        return "run produced invalid metrics";
    return "";
}

// Metrics and the result line --------------------------------------------

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> catalog = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"sim_dram_cycles_per_s", "cycles/s"},
        {"peak_rss_mb", "MB"},
        {"stfm_weighted_speedup", "ratio"},
        {"stfm_hmean_speedup", "ratio"},
    };
    return catalog;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> catalog = {
        {"harness.plan_s", "s"},
        {"harness.alone_s", "s"},
        {"harness.alone_runs", "count"},
        {"harness.pool_efficiency", "ratio"},
        {"harness.output_s", "s"},
        {"sim.build_s", "s"},
        {"sim.run_s.frfcfs", "s"},
        {"sim.run_s.fcfs", "s"},
        {"sim.run_s.cap", "s"},
        {"sim.run_s.nfq", "s"},
        {"sim.run_s.stfm", "s"},
        {"sim.ns_per_dram_cycle.frfcfs", "ns"},
        {"sim.ns_per_dram_cycle.fcfs", "ns"},
        {"sim.ns_per_dram_cycle.cap", "ns"},
        {"sim.ns_per_dram_cycle.nfq", "ns"},
        {"sim.ns_per_dram_cycle.stfm", "ns"},
        {"sim.dram_cycles", "count"},
        {"sim.cpu_cycles", "count"},
        {"trace.ops", "count"},
        {"trace.gen_s", "s"},
        {"cpu.instructions", "count"},
        {"cpu.l2_misses", "count"},
        {"cpu.ns_per_instruction", "ns"},
        {"cpu.window_instr_ratio", "ratio"},
        {"mem.column_issues", "count"},
        {"mem.read_latency_mean", "cycles"},
        {"dram.commands", "count"},
        {"dram.activates", "count"},
        {"dram.row_hit_rate", "ratio"},
        {"dram.bus_util", "ratio"},
        {"dram.ns_per_command", "ns"},
        {"sched.stfm_cost_ratio", "ratio"},
        {"stats.metrics_s", "s"},
        {"model.stfm_unfairness", "ratio"},
        {"fleet.run_s", "s"},
        {"fleet.overhead_ratio", "ratio"},
        {"fleet.heartbeats", "count"},
        {"bench.trace_overhead", "ratio"},
        {"dist.job.n", "count"},
        {"dist.job.p50_s", "s"},
        {"dist.job.p75_s", "s"},
        {"dist.sim.build.n", "count"},
        {"dist.sim.build.p50_s", "s"},
        {"dist.sim.build.p75_s", "s"},
        {"dist.sim.run.n", "count"},
        {"dist.sim.run.p50_s", "s"},
        {"dist.sim.run.p75_s", "s"},
        {"dist.stats.metrics.n", "count"},
        {"dist.stats.metrics.p50_s", "s"},
        {"dist.stats.metrics.p75_s", "s"},
    };
    return catalog;
}

Report::Report(const std::vector<MetricDef> &catalog) : catalog_(catalog) {}

void
Report::operation(const std::string &problem)
{
    ++attempted_;
    if (!problem.empty())
        ++failed_;
    check(problem);
}

void
Report::check(const std::string &problem)
{
    if (problem.empty())
        return;
    problems_.push_back(problem);
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
}

void
Report::put(const std::string &name, Json value)
{
    const auto def = std::find_if(
        catalog_.begin(), catalog_.end(),
        [&](const MetricDef &d) { return name == d.name; });
    if (def == catalog_.end()) {
        check("metric '" + name + "' is not in the catalog");
        return;
    }
    Json entry = Json::object();
    entry.set("value", std::move(value));
    entry.set("unit", def->unit);
    metrics_.set(name, std::move(entry));
}

void
Report::set(const std::string &name, double value)
{
    if (!std::isfinite(value)) {
        check("metric '" + name + "' is not finite");
        value = -1.0;
    }
    put(name, Json(value));
}

void
Report::setCount(const std::string &name, std::uint64_t value)
{
    put(name, Json(value));
}

std::string
Report::line()
{
    Json metrics = Json::object();
    for (const MetricDef &def : catalog_) {
        if (const Json *entry = metrics_.find(def.name))
            metrics.set(def.name, *entry);
        else
            check(std::string("metric '") + def.name + "' was not measured");
    }
    Json out = Json::object();
    out.set("correct", problems_.empty());
    out.set("attempted", attempted_);
    out.set("failed", failed_);
    out.set("metrics", std::move(metrics));
    return out.dump();
}

// The benchmark ----------------------------------------------------------

std::string
runBenchmark(const Options &options)
{
    const std::string spec_text =
        workloadSpecText(options.workload, options.seed, options.budget);
    return options.trace ? runTraced(options, spec_text)
                         : runUntraced(options, spec_text);
}

} // namespace perfbench
