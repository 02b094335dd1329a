#include "harness/cli.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fleet/supervisor.hh"
#include "fleet/worker.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/spec.hh"
#include "dram/device_spec.hh"
#include "obs/telemetry.hh"
#include "report/diff.hh"
#include "report/rollup.hh"
#include "sim/config_io.hh"

namespace stfm
{

namespace
{

void
printUsage(std::ostream &os)
{
    os << "usage: stfm <command> [arguments]\n"
          "\n"
          "commands:\n"
          "  run <spec.json> [flags]   execute a declarative experiment\n"
          "  validate <spec.json>      parse, resolve and validate only\n"
          "  worker                    shard executor (fleet-internal;\n"
          "                            speaks frames on stdin/stdout)\n"
          "  list schedulers           scheduling policies and knobs\n"
          "  list workloads            the named workload catalog\n"
          "  list figures              registered paper figures\n"
          "  list telemetry            the telemetry series catalog\n"
          "  list devices              built-in DRAM device presets\n"
          "  report <paths...> [flags] fold sweep artifacts (results\n"
          "                            JSON, manifest.jsonl) into a\n"
          "                            stfm-report-v1 rollup\n"
          "                            (docs/REPORTING.md)\n"
          "  <figure> [flags]          run a figure (fig09, table5, ...)\n"
          "  help                      this message\n"
          "\n"
          "flags (report):\n"
          "  --out PATH        write the stfm-report-v1 JSON there\n"
          "                    (default: stdout)\n"
          "  --spec PATH       the spec a manifest.jsonl input was run\n"
          "                    with (required to ingest manifests)\n"
          "  --name NAME       report name (default: spec name, or\n"
          "                    'fleet')\n"
          "  --diff BASELINE   compare against a baseline report; exit\n"
          "                    3 when any metric regressed\n"
          "  --diff-out PATH   write the stfm-reportdiff-v1 document\n"
          "  --threshold X     relative diff slack (default 0.02 = 2%)\n"
          "  --quiet           suppress progress notes on stderr\n"
          "\n"
          "flags (run and figures):\n"
          "  --json PATH       also write machine-readable results\n"
          "  --check           run under the integrity layer\n"
          "  --reference       pin the cycle-by-cycle reference path\n"
          "  --jobs N          worker-pool width\n"
          "  --instructions N  per-thread instruction-budget override\n"
          "  --telemetry       sample epoch telemetry (docs/METRICS.md)\n"
          "  --trace PATH      export a Chrome trace (docs/TRACING.md)\n"
          "  --device NAME     run on a DRAM device preset or spec file\n"
          "                    (see `stfm list devices`)\n"
          "  --full            full-size sweep (figures only)\n"
          "\n"
          "fleet flags (run and figures; any of them engages the\n"
          "supervised worker-process pool, see docs/ARCHITECTURE.md):\n"
          "  --shards N        shard count (default: one per result row)\n"
          "  --workers N       concurrent worker processes\n"
          "  --retries N       process-level retries per shard (default 2)\n"
          "  --timeout SEC     per-shard wall-clock timeout (default 600)\n"
          "  --checkpoint DIR  append completed shards to DIR/manifest.jsonl\n"
          "  --resume          replay checkpointed shards, run the rest\n"
          "  --strict          exit 2 when any shard is merged as FAILED\n"
          "  --quiet           suppress per-shard progress/ETA on stderr\n";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SimError("cannot open spec file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Shared flag parsing for `run`, `validate` and the figures. */
struct RunFlags
{
    std::string specPath;
    std::string jsonPath;
    /** --full: full-size sweep (figures only). */
    bool full = false;
    /** Any fleet flag was given: run through the worker pool. */
    bool fleetMode = false;
    /** FAILED shards make the exit code nonzero. */
    bool strict = false;
    fleet::FleetOptions fleetOptions;
};

unsigned
parseUnsignedFlag(const std::string &flag, const char *value)
{
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0') {
        throw SimError("flag " + flag + " needs an unsigned integer, "
                       "got '" + value + "'");
    }
    return static_cast<unsigned>(parsed);
}

double
parseSecondsFlag(const std::string &flag, const char *value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || parsed < 0) {
        throw SimError("flag " + flag + " needs a non-negative number "
                       "of seconds, got '" + value + "'");
    }
    return parsed;
}

double
parseDoubleFlag(const std::string &flag, const char *value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(parsed) ||
        parsed < 0) {
        throw SimError("flag " + flag + " needs a non-negative number, "
                       "got '" + value + "'");
    }
    return parsed;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * Parse `stfm <command>`'s flags from argv[2] on. A figure is its own
 * spec, so it takes no spec path; only a figure takes --full.
 */
RunFlags
parseRunFlags(const std::string &command, int argc, char **argv,
              bool figure = false)
{
    RunFlags flags;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            flags.jsonPath = argv[++i];
        } else if (arg == "--shards" && i + 1 < argc) {
            flags.fleetOptions.shards =
                parseUnsignedFlag(arg, argv[++i]);
            flags.fleetMode = true;
        } else if (arg == "--workers" && i + 1 < argc) {
            flags.fleetOptions.workers =
                parseUnsignedFlag(arg, argv[++i]);
            flags.fleetMode = true;
        } else if (arg == "--retries" && i + 1 < argc) {
            flags.fleetOptions.retries =
                parseUnsignedFlag(arg, argv[++i]);
            flags.fleetMode = true;
        } else if (arg == "--timeout" && i + 1 < argc) {
            flags.fleetOptions.timeoutSec =
                parseSecondsFlag(arg, argv[++i]);
            flags.fleetMode = true;
        } else if (arg == "--checkpoint" && i + 1 < argc) {
            flags.fleetOptions.checkpoint = argv[++i];
            flags.fleetMode = true;
        } else if (arg == "--resume") {
            flags.fleetOptions.resume = true;
            flags.fleetMode = true;
        } else if (arg == "--strict") {
            flags.strict = true;
            flags.fleetMode = true;
        } else if (arg == "--quiet") {
            flags.fleetOptions.quiet = true;
        } else if (arg == "--check") {
            setenv("STFM_CHECK", "1", 1);
        } else if (arg == "--reference") {
            setenv("STFM_REFERENCE", "1", 1);
        } else if (arg == "--jobs" && i + 1 < argc) {
            setenv("STFM_JOBS", argv[++i], 1);
        } else if (arg == "--instructions" && i + 1 < argc) {
            setenv("STFM_INSTRUCTIONS", argv[++i], 1);
        } else if (arg == "--telemetry") {
            setenv("STFM_TELEMETRY", "1", 1);
        } else if (arg == "--trace" && i + 1 < argc) {
            setenv("STFM_TRACE", argv[++i], 1);
        } else if (arg == "--device" && i + 1 < argc) {
            setenv("STFM_DEVICE", argv[++i], 1);
        } else if (arg == "--full" && figure) {
            flags.full = true;
        } else if (!arg.empty() && arg[0] == '-') {
            throw SimError(std::string("unknown flag '") + arg +
                           "' for stfm " + command);
        } else if (figure) {
            throw SimError("stfm " + command +
                           " takes no spec file (got '" + arg + "')");
        } else if (flags.specPath.empty()) {
            flags.specPath = arg;
        } else {
            throw SimError(std::string("stfm ") + command +
                           " takes one spec file (got '" + arg + "')");
        }
    }
    if (flags.specPath.empty() && !figure)
        throw SimError(std::string("stfm ") + command +
                       " needs a spec file argument");
    return flags;
}

int
finishRun(const ExperimentResult &result, const RunFlags &flags)
{
    printExperiment(result);
    if (!flags.jsonPath.empty()) {
        writeResultsJson(result, flags.jsonPath);
        std::cout << "\nresults written to " << flags.jsonPath << "\n";
    }
    for (const std::string &path : writeObsArtifacts(result))
        std::cout << "observability artifact written to " << path << "\n";
    return 0;
}

/** Run @p spec in process, or through the worker pool on fleet flags. */
int
runSpec(const ExperimentSpec &spec, const RunFlags &flags)
{
    if (!flags.fleetMode) {
        const ExperimentResult result = runExperiment(spec);
        return finishRun(result, flags);
    }

    const fleet::FleetOutcome outcome =
        fleet::runShardedExperiment(spec, flags.fleetOptions);
    if (outcome.interrupted) {
        std::cerr << "stfm run: interrupted before the sweep completed"
                  << (flags.fleetOptions.checkpoint.empty()
                          ? ""
                          : "; completed shards are checkpointed — "
                            "rerun with --resume")
                  << "\n";
        return 130;
    }
    const int code = finishRun(outcome.result, flags);
    if (outcome.anyFailed()) {
        std::cerr << "stfm run: " << outcome.failedShards.size()
                  << " shard(s) FAILED after retries; their rows are "
                     "marked failed in the report"
                  << (flags.strict ? "" : " (pass --strict to make "
                                          "this exit nonzero)")
                  << "\n";
        if (flags.strict)
            return 2;
    }
    return code;
}

int
commandRun(int argc, char **argv)
{
    const RunFlags flags = parseRunFlags("run", argc, argv);
    return runSpec(specFromText(readFile(flags.specPath)), flags);
}

int
commandFigure(const Figure &figure, int argc, char **argv)
{
    const RunFlags flags = parseRunFlags(figure.name, argc, argv, true);
    return runSpec(figure.spec(flags.full), flags);
}

int
commandValidate(int argc, char **argv)
{
    const RunFlags flags = parseRunFlags("validate", argc, argv);
    const ExperimentSpec spec = specFromText(readFile(flags.specPath));
    const std::vector<Workload> workloads = resolveWorkloads(spec);
    const SimConfig base =
        resolveConfig(spec, EnvOverrides::capture());

    std::size_t scheduler_count = spec.schedulers.size();
    if (scheduler_count == 0)
        scheduler_count = 5; // The paper's five policies.

    std::cout << flags.specPath << ": OK\n"
              << "  name:       " << spec.name << "\n"
              << "  workloads:  " << workloads.size() << " x "
              << spec.repeat << " repetition(s)\n"
              << "  schedulers: " << scheduler_count << "\n"
              << "  cores:      " << base.cores << "\n"
              << "  budget:     " << base.instructionBudget
              << " instructions/thread\n";
    const TelemetryConfig &telemetry = base.telemetry;
    if (!telemetry.collecting()) {
        std::cout << "  telemetry:  off\n";
    } else {
        if (telemetry.enabled) {
            std::cout << "  telemetry:  every " << telemetry.epochCycles
                      << " DRAM cycles -> "
                      << (telemetry.output.empty()
                              ? spec.name + "_telemetry.json"
                              : telemetry.output)
                      << "\n";
        }
        if (telemetry.tracing())
            std::cout << "  trace:      " << telemetry.trace << "\n";
    }
    return 0;
}

int
commandReport(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string out_path;
    std::string spec_path;
    std::string diff_path;
    std::string diff_out;
    std::string name;
    report::DiffOptions diff_options;
    bool quiet = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--spec" && i + 1 < argc) {
            spec_path = argv[++i];
        } else if (arg == "--name" && i + 1 < argc) {
            name = argv[++i];
        } else if (arg == "--diff" && i + 1 < argc) {
            diff_path = argv[++i];
        } else if (arg == "--diff-out" && i + 1 < argc) {
            diff_out = argv[++i];
        } else if (arg == "--threshold" && i + 1 < argc) {
            diff_options.threshold = parseDoubleFlag(arg, argv[++i]);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            throw SimError("unknown flag '" + arg +
                           "' for stfm report");
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) {
        throw SimError("stfm report needs at least one artifact file "
                       "or directory");
    }

    // Manifest inputs need the sweep's job grid; re-derive it from the
    // spec exactly as the supervisor and workers did.
    bool have_plan = false;
    ExperimentPlan plan;
    if (!spec_path.empty()) {
        plan = planExperiment(specFromText(readFile(spec_path)));
        have_plan = true;
    }
    if (name.empty())
        name = have_plan ? plan.spec.name : "fleet";
    report::ReportBuilder builder(name);

    std::vector<std::string> files;
    for (const std::string &input : inputs) {
        if (report::isDirectory(input)) {
            for (std::string &file : report::listDirectoryFiles(input))
                files.push_back(std::move(file));
        } else if (!report::pathExists(input)) {
            // A typo'd path must not roll up into a clean-looking
            // empty report.
            throw SimError("report: input '" + input +
                           "' does not exist");
        } else {
            files.push_back(input);
        }
    }
    if (files.empty()) {
        throw SimError("report: the given director" +
                       std::string(inputs.size() == 1 ? "y contains"
                                                      : "ies contain") +
                       " no artifact files");
    }
    std::size_t ingested = 0;
    for (const std::string &file : files) {
        if (endsWith(file, ".jsonl")) {
            if (!have_plan) {
                throw SimError(
                    "report: " + file + " is a manifest checkpoint; "
                    "pass --spec <spec.json> (the spec the sweep ran) "
                    "so the job grid can be re-derived");
            }
            builder.addManifest(file, plan);
            ++ingested;
            continue;
        }
        if (!endsWith(file, ".json")) {
            if (!quiet) {
                std::fprintf(stderr, "[report] skipping %s\n",
                             file.c_str());
            }
            continue;
        }
        const Json doc = Json::parse(readFile(file));
        const Json *schema = doc.find("schema");
        const std::string kind =
            schema && schema->isString() ? schema->asString() : "";
        if (kind == "stfm-results-v1") {
            builder.addResultsDoc(doc, file);
            ++ingested;
        } else if (!quiet) {
            std::fprintf(stderr,
                         "[report] skipping %s (schema '%s')\n",
                         file.c_str(), kind.c_str());
        }
    }
    if (ingested == 0) {
        throw SimError(
            "report: none of the given inputs carried a sweep "
            "artifact (stfm-results-v1 or a manifest.jsonl)");
    }

    const Json doc = builder.toJson();
    if (!quiet) {
        std::fprintf(stderr,
                     "[report] folded %llu runs from %zu file(s)\n",
                     static_cast<unsigned long long>(builder.runs()),
                     files.size());
    }
    if (out_path.empty()) {
        std::cout << doc.dump(2) << "\n";
    } else {
        writeJsonFile(doc, out_path);
        if (!quiet) {
            std::fprintf(stderr, "[report] rollup written to %s\n",
                         out_path.c_str());
        }
    }

    if (!diff_path.empty()) {
        const Json baseline = Json::parse(readFile(diff_path));
        const report::ReportDiff diff =
            report::diffReports(doc, baseline, diff_options);
        if (!diff_out.empty())
            writeJsonFile(report::diffJson(diff, diff_options),
                          diff_out);
        report::printDiff(diff, diff_options, std::cout);
        if (diff.regressed())
            return 3; // The CI gate (docs/REPORTING.md, exit codes).
    }
    return 0;
}

int
commandList(int argc, char **argv)
{
    const std::string what = argc > 2 ? argv[2] : "";
    if (what == "schedulers") {
        std::cout
            << "FR-FCFS     row-hit-first, oldest-first (baseline)\n"
            << "FCFS        strict arrival order\n"
            << "FRFCFS+Cap  FR-FCFS with a column-over-row cap "
               "(knob: cap)\n"
            << "NFQ         network-fair-queueing virtual finish times "
               "(knobs: shares, inversionThreshold)\n"
            << "STFM        stall-time fair scheduling (knobs: alpha, "
               "intervalLength, gamma, quantizeSlowdowns,\n"
            << "            busInterference, requestLevelEstimator, "
               "weights)\n";
        return 0;
    }
    if (what == "workloads") {
        for (const std::string &name : namedWorkloadCatalog()) {
            const std::vector<Workload> expanded = namedWorkloads(name);
            std::cout << name << " (" << expanded.size()
                      << (expanded.size() == 1 ? " workload)"
                                               : " workloads)")
                      << "\n";
            for (const Workload &w : expanded)
                std::cout << "  " << workloadLabel(w) << "\n";
        }
        return 0;
    }
    if (what == "figures") {
        for (const Figure &figure : figureRegistry()) {
            std::printf("%-20s %s\n", figure.name.c_str(),
                        figure.description.c_str());
        }
        return 0;
    }
    if (what == "devices") {
        // One row per built-in preset. ci/check_docs.py parses this
        // output to keep the README device catalog in sync; the first
        // two columns (name, standard) are the contract.
        std::printf("%-14s %-8s %9s %6s %7s %11s %9s\n", "name",
                    "standard", "tCK(ns)", "banks", "groups",
                    "CL-RCD-RP", "bus(MHz)");
        for (const DeviceSpec &device : builtinDevices()) {
            const std::string clrcdrp =
                std::to_string(device.timing.tCL) + "-" +
                std::to_string(device.timing.tRCD) + "-" +
                std::to_string(device.timing.tRP);
            std::printf("%-14s %-8s %9.3f %6u %7u %11s %9u\n",
                        device.name.c_str(), device.standard.c_str(),
                        device.tCKns, device.banks, device.bankGroups,
                        clrcdrp.c_str(), device.busMHz());
        }
        return 0;
    }
    if (what == "telemetry") {
        // The machine-checkable metrics contract: every registered
        // series matches one of these patterns (docs/METRICS.md).
        for (const TelemetryCatalogEntry &entry : telemetryCatalog()) {
            std::printf("%-32s %-9s %-12s %-6s %s\n", entry.pattern,
                        entry.kind, entry.unit, entry.subsystem,
                        entry.description);
        }
        return 0;
    }
    std::cerr << "usage: stfm list "
                 "{schedulers|workloads|figures|telemetry|devices}\n";
    return 1;
}

} // namespace

int
cliMain(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(std::cerr);
        return 1;
    }
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        printUsage(std::cout);
        return 0;
    }

    try {
        if (command == "run")
            return commandRun(argc, argv);
        if (command == "worker")
            return fleet::workerMain();
        if (command == "validate")
            return commandValidate(argc, argv);
        if (command == "report")
            return commandReport(argc, argv);
        if (command == "list")
            return commandList(argc, argv);
        if (const Figure *figure = findFigure(command))
            return commandFigure(*figure, argc, argv);
    } catch (const SimError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    std::cerr << "stfm: unknown command '" << command << "'\n\n";
    printUsage(std::cerr);
    return 1;
}

} // namespace stfm
