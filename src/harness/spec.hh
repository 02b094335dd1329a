/**
 * @file
 * ExperimentSpec: the declarative description of one experiment.
 *
 * A spec names what to run — workloads (by case-study catalog name or
 * as inline benchmark mixes), a scheduler list with per-policy
 * parameters, configuration overrides over SimConfig::baseline, budgets
 * and repeat/seed controls — and the experiment engine
 * (harness/experiment.hh) turns it into RunJobs for
 * ExperimentRunner::runMany. The JSON form is the CLI's input
 * (`stfm run spec.json`); every registered figure is a named spec
 * (harness/figures.hh).
 *
 * Spec JSON schema (all fields optional unless noted):
 *
 *   {
 *     "name":      "fig09",                 // identifier (required)
 *     "title":     "Figure 9: ...",         // report heading
 *     "workloads": ["case_intensive",       // catalog name, or
 *                   ["mcf", "libquantum", "GemsFDTD", "astar"]],
 *                                           // inline benchmark mix
 *     "sample":    {"cores": 4, "count": 32, "seed": 85262089},
 *                                           // category-balanced sampling
 *     "schedulers": "paper"                 // the five paper policies
 *               | [ "STFM",                 // policy name with defaults
 *                   {"label": "STFM a=2",   // or full per-policy params
 *                    "policy": "STFM", "alpha": 2.0,
 *                    "device": "DDR4-2400",    // per-entry device
 *                    "config": {"memory": {"banksPerChannel": 4}}} ],
 *                                           // per-entry SimConfig
 *                                           // overrides, layered after
 *                                           // the device onto the entry's
 *                                           // shared runs and alone
 *                                           // baselines (no "cores" or
 *                                           // "scheduler")
 *     "devices":   ["DDR2-800", "DDR4-2400"],
 *                                           // cross-device axis: every
 *                                           // scheduler runs once per
 *                                           // device (labels gain
 *                                           // "@<device>")
 *     "config":    { ... },                 // SimConfig overrides layered
 *                                           // onto baseline(cores)
 *     "telemetry": {"enabled": true,        // observability block
 *                   "epochCycles": 10000,   // (docs/METRICS.md):
 *                   "output": "t.json",     // sampled telemetry doc
 *                   "trace": "t.trace.json"},  // Chrome trace export
 *     "budget":    50000,                   // per-thread instructions
 *     "labelRows": 10,                      // per-workload report rows
 *     "repeat":    1,                       // trace-reseeded repetitions
 *     "seed":      0,                       // base trace salt
 *     "jobs":      0,                       // workers (0 = default pool)
 *     "attempts":  1,                       // retries per run
 *     "benchmarks": {"hog": {"mpki": 300, ...}}  // inline TraceProfiles
 *   }
 *
 * Unknown keys anywhere are structured SimErrors, not silently ignored.
 */

#ifndef STFM_HARNESS_SPEC_HH
#define STFM_HARNESS_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "harness/workloads.hh"
#include "sched/policy.hh"
#include "trace/catalog.hh"

namespace stfm
{

/** One scheduler under test: display label + full policy parameters. */
struct SchedulerEntry
{
    std::string label; ///< Report label (defaults to the policy name).
    SchedulerConfig config;
    /** Device spec name/path this entry runs on; "" = the config's
     *  own memory settings (the DDR2-800 baseline by default). */
    std::string device;
    /** SimConfig overrides (the entry's JSON "config" object), applied
     *  after the device to this entry's shared runs and alone
     *  baselines. Empty = none. Never sets "cores" or "scheduler". */
    Json overrides = Json::object();
};

/** Category-balanced workload sampling (the averaged sweeps). */
struct WorkloadSample
{
    unsigned cores = 4;
    unsigned count = 32;
    std::uint64_t seed = 0;
};

struct ExperimentSpec
{
    std::string name;
    /** Report heading; empty falls back to name. */
    std::string title;

    /**
     * Explicit workloads, in spec order. Catalog names expand here at
     * parse time (a name like "sixteen_core" may contribute several
     * workloads). Sampled workloads (if any) append after these.
     */
    std::vector<Workload> workloads;
    std::optional<WorkloadSample> sample;

    /** Schedulers to run; empty means the five paper schedulers. */
    std::vector<SchedulerEntry> schedulers;

    /**
     * Cross-device axis: when non-empty, the experiment plan expands to
     * every (device, scheduler) pair — device-major, so all schedulers
     * run on one device before the next — with entry labels suffixed
     * "@<device>". Entries carrying their own "device" are exempt from
     * the expansion.
     */
    std::vector<std::string> devices;

    /** SimConfig overrides (JSON object), layered onto baseline(cores). */
    Json config = Json::object();

    /**
     * Telemetry overrides (JSON object, TelemetryConfig fields).
     * Layered after "config" so a spec-level telemetry block wins over
     * "config.telemetry"; environment overrides win over both.
     */
    Json telemetry = Json::object();

    /** Per-thread instruction budget; 0 keeps the config's value. */
    std::uint64_t budget = 0;

    /** Per-workload unfairness rows to print (sweep reports). */
    std::size_t labelRows = static_cast<std::size_t>(-1);

    /** Trace-reseeded repetitions of every workload (>= 1). */
    unsigned repeat = 1;
    /** Base trace-RNG salt; repetition r runs with seed + r. */
    std::uint64_t seed = 0;

    /** Worker-pool width; 0 = ExperimentRunner::defaultJobs(). */
    unsigned jobs = 0;
    /** Attempts per run (retries reseed the trace RNG). */
    unsigned attempts = 1;

    /** Inline synthetic benchmarks, registered under their names. */
    std::vector<std::pair<std::string, BenchmarkProfile>> benchmarks;

    /** Heading to print. */
    const std::string &heading() const { return title.empty() ? name : title; }
};

/** The case-study workload catalog names a spec may reference. */
std::vector<std::string> namedWorkloadCatalog();

/**
 * Expand one catalog name ("case_intensive", "sixteen_core", ...) into
 * its workloads. @throws SimError on an unknown name, listing the
 * catalog.
 */
std::vector<Workload> namedWorkloads(const std::string &name);

/**
 * An inline benchmark as a spec's "benchmarks" block defines it: the
 * profile's targets double as its reference ("paper") values.
 */
BenchmarkProfile inlineBenchmark(const std::string &name,
                                 const TraceProfile &trace);

/** Parse a spec from its JSON form. @throws SimError with field paths. */
ExperimentSpec specFromJson(const Json &json);

/** Parse a spec from JSON text (file contents). */
ExperimentSpec specFromText(const std::string &text);

/** Serialize back to canonical JSON (the results-file spec echo). */
Json toJson(const ExperimentSpec &spec);

/** Serialize one scheduler entry ({"label": ..., policy knobs...}). */
Json toJson(const SchedulerEntry &entry);

} // namespace stfm

#endif // STFM_HARNESS_SPEC_HH
