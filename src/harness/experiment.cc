#include "harness/experiment.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "harness/table.hh"
#include "sim/config_io.hh"
#include "sim/device_io.hh"

namespace stfm
{

namespace
{

std::vector<SchedulerEntry>
paperEntries()
{
    std::vector<SchedulerEntry> entries;
    for (const SchedulerConfig &config :
         ExperimentRunner::paperSchedulers())
        entries.push_back({toString(config.kind), config, ""});
    return entries;
}

/**
 * Scheduler name to print for a run. A defaulted label (the policy
 * name from toString) defers to the policy's self-reported name —
 * e.g. "FR-FCFS+Cap" rather than the terse "FRFCFS+Cap" — exactly as
 * the legacy reports did; an explicit spec label always wins.
 */
std::string
displayLabel(const SchedulerEntry &entry, const std::string &policy_name)
{
    if (!policy_name.empty() && entry.label == toString(entry.config.kind))
        return policy_name;
    return entry.label;
}

/** Row label: workload benchmarks, plus the repetition when > 1. */
std::string
rowLabel(const ExperimentResult &result, std::size_t row)
{
    std::string label = workloadLabel(result.rowWorkload(row));
    if (result.spec.repeat > 1) {
        label += formatMessage("#%u", result.rowRepetition(row) + 1);
    }
    return label;
}

void
printSweepReport(const ExperimentResult &result, std::ostream &os)
{
    const std::size_t rows = result.rows();
    os << result.spec.heading() << " (" << rows << " workloads)\n\n";

    std::vector<std::string> headers{"workload"};
    for (const SchedulerEntry &entry : result.schedulers)
        headers.push_back(entry.label);
    TextTable unfairness_table(std::move(headers));
    TextTable failure_table({"workload", "scheduler", "error"});
    unsigned total_failures = 0;

    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<std::string> row{rowLabel(result, r)};
        for (std::size_t s = 0; s < result.schedulers.size(); ++s) {
            const RunOutcome &outcome = result.outcome(r, s);
            if (outcome.failed) {
                ++total_failures;
                failure_table.addRow({rowLabel(result, r),
                                      result.schedulers[s].label,
                                      outcome.error});
                row.push_back("FAIL");
                continue;
            }
            row.push_back(fmt(outcome.metrics.unfairness));
        }
        if (r < result.spec.labelRows)
            unfairness_table.addRow(std::move(row));
    }
    if (result.spec.labelRows > 0) {
        unfairness_table.print(os);
        os << '\n';
    }

    if (total_failures > 0) {
        os << "Failed runs (excluded from the GMEAN aggregates):\n";
        failure_table.print(os);
        os << '\n';
    }

    os << "GMEAN over all " << rows << " workloads:\n";
    TextTable summary({"scheduler", "unfairness", "weighted-speedup",
                       "sum-of-IPCs", "hmean-speedup", "failed"});
    for (const SweepResult &r : result.aggregates) {
        if (r.summary.unfairness.count() == 0) {
            summary.addRow({r.policyName, "n/a", "n/a", "n/a", "n/a",
                            std::to_string(r.failures)});
            continue;
        }
        summary.addRow({r.policyName, fmt(r.summary.unfairness.value()),
                        fmt(r.summary.weightedSpeedup.value()),
                        fmt(r.summary.sumOfIpcs.value()),
                        fmt(r.summary.hmeanSpeedup.value(), 3),
                        std::to_string(r.failures)});
    }
    summary.print(os);
}

void
printCaseStudyReport(const ExperimentResult &result, std::ostream &os)
{
    const Workload &workload = result.workloads.front();
    os << result.spec.heading() << " (" << workloadLabel(workload)
       << ")\n\n";

    std::vector<std::string> headers{"scheduler"};
    for (const std::string &name : workload)
        headers.push_back(name);
    headers.push_back("unfairness");
    TextTable slowdowns(std::move(headers));
    TextTable throughput({"scheduler", "weighted-speedup", "sum-of-IPCs",
                          "hmean-speedup"});

    for (std::size_t s = 0; s < result.schedulers.size(); ++s) {
        const RunOutcome &o = result.outcome(0, s);
        const std::string label =
            displayLabel(result.schedulers[s], o.policyName);
        if (o.failed) {
            std::vector<std::string> row{label};
            for (std::size_t t = 0; t < workload.size() + 1; ++t)
                row.push_back("FAIL");
            slowdowns.addRow(std::move(row));
            throughput.addRow({label, "FAIL", "FAIL", "FAIL"});
            continue;
        }
        std::vector<std::string> row{label};
        for (const double slowdown : o.metrics.slowdowns)
            row.push_back(fmt(slowdown));
        row.push_back(fmt(o.metrics.unfairness));
        slowdowns.addRow(std::move(row));
        throughput.addRow({label, fmt(o.metrics.weightedSpeedup),
                           fmt(o.metrics.sumOfIpcs),
                           fmt(o.metrics.hmeanSpeedup, 3)});
    }

    slowdowns.print(os);
    os << '\n';
    throughput.print(os);
}

/** A row's benchmark: the spec's inline profile, else the catalog's. */
const BenchmarkProfile &
reportProfile(const ExperimentSpec &spec, const std::string &name)
{
    for (const auto &[inline_name, profile] : spec.benchmarks) {
        if (inline_name == name)
            return profile;
    }
    return findBenchmark(name);
}

void
printCharacteristicsReport(const ExperimentResult &result, std::ostream &os)
{
    os << result.spec.heading() << " (" << result.rows()
       << " benchmarks)\n";
    for (std::size_t s = 0; s < result.schedulers.size(); ++s) {
        if (result.schedulers.size() > 1)
            os << "\n-- " << result.schedulers[s].label << " --";
        os << '\n';
        TextTable table({"#", "benchmark", "type", "MCPI", "(paper)",
                         "L2 MPKI", "(paper)", "RBhit%", "(paper)",
                         "cat"});
        for (std::size_t r = 0; r < result.rows(); ++r) {
            const RunOutcome &o = result.outcome(r, s);
            std::vector<std::string> row{std::to_string(r + 1),
                                         rowLabel(result, r)};
            if (o.failed) {
                row.resize(10, "FAIL");
                table.addRow(std::move(row));
                continue;
            }
            const BenchmarkProfile &paper =
                reportProfile(result.spec, result.rowWorkload(r).front());
            const ThreadResult &t = o.shared.threads.front();
            row.insert(row.end(),
                       {paper.type, fmt(t.mcpi()), fmt(paper.paperMcpi),
                        fmt(t.mpki(), 1), fmt(paper.paperMpki, 1),
                        fmt(100.0 * t.rowHitRate(), 1),
                        fmt(100.0 * paper.paperRowHit, 1),
                        std::to_string(paper.category)});
            table.addRow(std::move(row));
        }
        table.print(os);
    }
}

Json
toJson(const ThreadResult &thread)
{
    Json out = Json::object();
    out.set("instructions", thread.instructions);
    out.set("cycles", thread.cycles);
    out.set("ipc", thread.ipc());
    out.set("mcpi", thread.mcpi());
    out.set("mpki", thread.mpki());
    out.set("rowHitRate", thread.rowHitRate());
    out.set("memStallCycles", thread.memStallCycles);
    out.set("dramReads", thread.dramReads);
    out.set("dramWrites", thread.dramWrites);
    return out;
}

} // namespace

std::vector<Workload>
resolveWorkloads(const ExperimentSpec &spec)
{
    std::vector<Workload> workloads = spec.workloads;
    if (spec.sample) {
        for (Workload &w :
             sampleWorkloads(spec.sample->cores, spec.sample->count,
                             spec.sample->seed))
            workloads.push_back(std::move(w));
    }
    if (workloads.empty())
        throw SimError("spec resolves to zero workloads");
    return workloads;
}

SimConfig
resolveConfig(const ExperimentSpec &spec, const EnvOverrides &env)
{
    return resolveConfig(spec, env, resolveWorkloads(spec).front().size());
}

SimConfig
resolveConfig(const ExperimentSpec &spec, const EnvOverrides &env,
              std::size_t cores)
{
    SimConfig base =
        simConfigFromJson(spec.config, static_cast<unsigned>(cores));
    if (spec.budget)
        base.instructionBudget = spec.budget;
    // Spec-level telemetry block wins over "config.telemetry"; the
    // environment (STFM_TELEMETRY / STFM_TRACE) wins over both.
    if (!spec.telemetry.asObject("telemetry").empty())
        applyJson(spec.telemetry, base.telemetry, "telemetry");
    env.apply(base);
    validateOrThrow(base);
    return base;
}

ExperimentPlan
planExperiment(const ExperimentSpec &spec)
{
    ExperimentPlan plan;
    plan.spec = spec;
    plan.env = EnvOverrides::capture();
    plan.workloads = resolveWorkloads(spec);
    plan.schedulers =
        spec.schedulers.empty() ? paperEntries() : spec.schedulers;

    // Cross-device axis: expand to every (device, scheduler) pair,
    // device-major so a report groups one device's columns together.
    // Entries pinned to their own device run once, after the grid.
    if (!spec.devices.empty()) {
        std::vector<SchedulerEntry> expanded;
        std::vector<SchedulerEntry> pinned;
        for (const SchedulerEntry &entry : plan.schedulers) {
            if (!entry.device.empty())
                pinned.push_back(entry);
        }
        for (const std::string &device : spec.devices) {
            for (const SchedulerEntry &entry : plan.schedulers) {
                if (!entry.device.empty())
                    continue;
                SchedulerEntry e = entry;
                e.device = device;
                e.label += "@" + device;
                expanded.push_back(std::move(e));
            }
        }
        expanded.insert(expanded.end(), pinned.begin(), pinned.end());
        if (expanded.empty()) {
            throw SimError("spec.devices: every scheduler entry pins "
                           "its own device, leaving nothing to expand");
        }
        plan.schedulers = std::move(expanded);
    }

    // One base per workload size, so each core count keeps its own
    // channel scaling; the first workload's is the echoed base.
    for (const Workload &w : plan.workloads) {
        if (w.empty())
            throw SimError("spec contains an empty workload");
        if (plan.bases.count(w.size()) == 0)
            plan.bases.emplace(w.size(),
                               resolveConfig(spec, plan.env, w.size()));
    }
    plan.base = plan.bases.at(plan.workloads.front().size());

    // Validate every (workload size, scheduler) pairing the grid will
    // produce — per-thread weight/share lists must fit each core count.
    for (const auto &[size, base] : plan.bases) {
        for (const SchedulerEntry &entry : plan.schedulers) {
            SimConfig probe = base;
            probe.cores = static_cast<unsigned>(size);
            probe.scheduler = entry.config;
            // Resolve the device and overrides here too, so an unknown
            // device name or an inconsistent override fails the plan
            // rather than each run.
            if (!entry.device.empty())
                applyDevice(probe.memory, entry.device);
            applyJson(entry.overrides, probe);
            const std::vector<std::string> problems =
                validateConfig(probe);
            if (!problems.empty()) {
                throw SimError(formatMessage(
                    "scheduler '%s' invalid for %zu-core workloads: %s",
                    entry.label.c_str(), size, problems.front().c_str()));
            }
        }
    }

    plan.jobs.reserve(plan.rows() * plan.schedulers.size());
    for (const Workload &workload : plan.workloads) {
        for (unsigned rep = 0; rep < spec.repeat; ++rep) {
            for (const SchedulerEntry &entry : plan.schedulers)
                plan.jobs.push_back({workload, entry.config,
                                     spec.seed + rep, entry.device,
                                     entry.overrides});
        }
    }
    return plan;
}

ExperimentResult
resultFromPlan(const ExperimentPlan &plan)
{
    ExperimentResult result;
    result.spec = plan.spec;
    result.env = plan.env;
    result.workloads = plan.workloads;
    result.schedulers = plan.schedulers;
    result.base = plan.base;
    return result;
}

void
configureRunner(ExperimentRunner &runner, const ExperimentPlan &plan)
{
    runner.setMaxAttempts(plan.spec.attempts);
    for (const auto &[size, base] : plan.bases)
        runner.addBase(base);
    for (const auto &[name, profile] : plan.spec.benchmarks)
        runner.addBenchmark(name, profile);
}

void
aggregateOutcomes(ExperimentResult &result)
{
    result.aggregates.assign(result.schedulers.size(), SweepResult{});
    for (std::size_t s = 0; s < result.schedulers.size(); ++s)
        result.aggregates[s].policyName = result.schedulers[s].label;
    for (std::size_t r = 0; r < result.rows(); ++r) {
        for (std::size_t s = 0; s < result.schedulers.size(); ++s) {
            const RunOutcome &outcome = result.outcome(r, s);
            if (outcome.failed) {
                ++result.aggregates[s].failures;
                continue;
            }
            result.aggregates[s].policyName =
                displayLabel(result.schedulers[s], outcome.policyName);
            result.aggregates[s].summary.add(outcome.metrics);
        }
    }
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    const ExperimentPlan plan = planExperiment(spec);
    ExperimentResult result = resultFromPlan(plan);

    ExperimentRunner runner(plan.base);
    configureRunner(runner, plan);
    result.outcomes = runner.runMany(plan.jobs, spec.jobs);

    // Per-scheduler aggregates in job order (failures excluded), the
    // exact accumulation the legacy sweep performed.
    aggregateOutcomes(result);
    return result;
}

void
printExperiment(const ExperimentResult &result, std::ostream &os,
                ReportStyle style)
{
    if (style == ReportStyle::Auto) {
        const bool single_thread = std::all_of(
            result.workloads.begin(), result.workloads.end(),
            [](const Workload &w) { return w.size() == 1; });
        if (single_thread) {
            printCharacteristicsReport(result, os);
            return;
        }
        style = result.rows() == 1 ? ReportStyle::CaseStudy
                                   : ReportStyle::Sweep;
    }
    if (style == ReportStyle::CaseStudy)
        printCaseStudyReport(result, os);
    else
        printSweepReport(result, os);
}

Json
resultsJson(const ExperimentResult &result)
{
    Json out = Json::object();
    out.set("schema", "stfm-results-v1");
    out.set("name", result.spec.name);
    out.set("title", result.spec.heading());
    out.set("spec", toJson(result.spec));
    out.set("envOverrides", result.env.toJson());
    out.set("resolvedConfig", toJson(result.base));

    Json schedulers = Json::array();
    for (const SchedulerEntry &entry : result.schedulers)
        schedulers.push(toJson(entry));
    out.set("schedulers", std::move(schedulers));

    Json runs = Json::array();
    for (std::size_t r = 0; r < result.rows(); ++r) {
        for (std::size_t s = 0; s < result.schedulers.size(); ++s) {
            const RunOutcome &o = result.outcome(r, s);
            Json run = Json::object();
            Json workload = Json::array();
            for (const std::string &bench : result.rowWorkload(r))
                workload.push(Json(bench));
            run.set("workload", std::move(workload));
            run.set("repetition", result.rowRepetition(r));
            run.set("scheduler", result.schedulers[s].label);
            if (!result.schedulers[s].device.empty())
                run.set("device", result.schedulers[s].device);
            run.set("failed", o.failed);
            run.set("attempts", o.attempts);
            if (o.failed) {
                run.set("error", o.error);
                runs.push(std::move(run));
                continue;
            }
            Json metrics = Json::object();
            Json slowdowns = Json::array();
            for (const double v : o.metrics.slowdowns)
                slowdowns.push(Json(v));
            metrics.set("slowdowns", std::move(slowdowns));
            metrics.set("unfairness", o.metrics.unfairness);
            metrics.set("weightedSpeedup", o.metrics.weightedSpeedup);
            metrics.set("hmeanSpeedup", o.metrics.hmeanSpeedup);
            metrics.set("sumOfIpcs", o.metrics.sumOfIpcs);
            run.set("metrics", std::move(metrics));
            Json threads = Json::array();
            for (const ThreadResult &thread : o.shared.threads)
                threads.push(toJson(thread));
            run.set("threads", std::move(threads));
            run.set("totalCycles", o.shared.totalCycles);
            runs.push(std::move(run));
        }
    }
    out.set("runs", std::move(runs));

    Json aggregates = Json::array();
    for (const SweepResult &r : result.aggregates) {
        Json agg = Json::object();
        agg.set("scheduler", r.policyName);
        agg.set("failed", r.failures);
        if (r.summary.unfairness.count() > 0) {
            agg.set("unfairness", r.summary.unfairness.value());
            agg.set("weightedSpeedup",
                    r.summary.weightedSpeedup.value());
            agg.set("sumOfIpcs", r.summary.sumOfIpcs.value());
            agg.set("hmeanSpeedup", r.summary.hmeanSpeedup.value());
        }
        aggregates.push(std::move(agg));
    }
    out.set("aggregates", std::move(aggregates));
    return out;
}

void
writeResultsJson(const ExperimentResult &result, const std::string &path)
{
    writeJsonFile(resultsJson(result), path);
}

namespace
{

/** File-name-safe form of a workload/scheduler label. */
std::string
sanitizeTag(const std::string &label)
{
    std::string out;
    for (const char c : label) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        out += ok ? c : '-';
    }
    return out;
}

/** Insert ".<tag>" before @p path's extension ("a.json" -> "a.t.json"). */
std::string
taggedPath(const std::string &path, const std::string &tag)
{
    if (tag.empty())
        return path;
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

std::string
runTag(const ExperimentResult &result, std::size_t row, std::size_t s)
{
    std::string tag = sanitizeTag(workloadLabel(result.rowWorkload(row)));
    if (result.spec.repeat > 1)
        tag += formatMessage("-r%u", result.rowRepetition(row) + 1);
    tag += "." + sanitizeTag(result.schedulers[s].label);
    return tag;
}

} // namespace

std::vector<std::string>
writeObsArtifacts(const ExperimentResult &result)
{
    std::vector<std::string> written;
    const TelemetryConfig &telemetry = result.base.telemetry;
    if (!telemetry.collecting())
        return written;

    std::string telemetry_path = telemetry.output;
    if (telemetry.enabled && telemetry_path.empty())
        telemetry_path = result.spec.name + "_telemetry.json";

    // With a single document-bearing run the configured paths are used
    // as-is; a grid of runs tags each artifact with its workload and
    // scheduler so the documents don't overwrite each other.
    std::size_t docs = 0;
    for (const RunOutcome &o : result.outcomes) {
        if (o.hasTelemetry() || o.hasTrace())
            ++docs;
    }

    for (std::size_t r = 0; r < result.rows(); ++r) {
        for (std::size_t s = 0; s < result.schedulers.size(); ++s) {
            const RunOutcome &o = result.outcome(r, s);
            const std::string tag = docs > 1 ? runTag(result, r, s) : "";
            if (o.hasTelemetry() && !telemetry_path.empty()) {
                const std::string path = taggedPath(telemetry_path, tag);
                writeJsonFile(o.telemetry, path);
                written.push_back(path);
            }
            if (o.hasTrace() && !telemetry.trace.empty()) {
                const std::string path =
                    taggedPath(telemetry.trace, tag);
                writeJsonFile(o.trace, path);
                written.push_back(path);
            }
        }
    }
    return written;
}

} // namespace stfm
