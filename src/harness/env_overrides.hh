/**
 * @file
 * The harness's environment-variable overrides, captured in one place.
 *
 * Four variables tune every harness entry point (benches, the stfm CLI,
 * tests):
 *
 *   - STFM_INSTRUCTIONS=<n>  per-thread instruction budget;
 *   - STFM_REFERENCE=1       pin the cycle-by-cycle reference path
 *                            (fastForward off) — the oracle for perf
 *                            comparisons;
 *   - STFM_CHECK=1           enable the full integrity layer (shadow
 *                            protocol checker + watchdogs);
 *   - STFM_JOBS=<n>          worker-pool width for runMany();
 *   - STFM_TELEMETRY=1|path  enable epoch telemetry sampling ("1" uses
 *                            the default output path; any other value
 *                            is the output path itself);
 *   - STFM_TRACE=<path>      export a Chrome trace_event file;
 *   - STFM_DEVICE=<name>     run on a DRAM device spec: a built-in
 *                            preset name or a JSON spec file path
 *                            (see sim/device_io.hh).
 *
 * EnvOverrides::capture() snapshots them once, apply() layers them onto
 * a resolved SimConfig at spec-resolution time, and toJson() records
 * which behaviour-changing overrides took effect so a results file is
 * self-describing. STFM_JOBS only sets host parallelism, which never
 * changes a result, so it is not recorded: the same spec yields the
 * same document at any pool width. "0"/empty means unset for the
 * boolean variables, matching the historical behavior of the
 * scattered getenv() calls this helper replaces.
 */

#ifndef STFM_HARNESS_ENV_OVERRIDES_HH
#define STFM_HARNESS_ENV_OVERRIDES_HH

#include <cstdint>
#include <optional>

#include "common/json.hh"
#include "sim/config.hh"

namespace stfm
{

struct EnvOverrides
{
    /** STFM_INSTRUCTIONS, when set to a positive integer. */
    std::optional<std::uint64_t> instructionBudget;
    /** STFM_REFERENCE set (non-"0"): force the reference path. */
    bool reference = false;
    /** STFM_CHECK set (non-"0"): enable the full integrity layer. */
    bool check = false;
    /** STFM_JOBS, when set to a positive integer. */
    std::optional<unsigned> jobs;
    /** STFM_TELEMETRY set (non-"0"): enable telemetry sampling. */
    bool telemetry = false;
    /** STFM_TELEMETRY's value when it names an output path (any value
     *  other than "1"). Empty means "use the configured default". */
    std::string telemetryOutput;
    /** STFM_TRACE: Chrome trace output path (empty = tracing off). */
    std::string tracePath;
    /** STFM_DEVICE: device spec name or path (empty = config's own). */
    std::string device;

    /** Snapshot the process environment. */
    static EnvOverrides capture();

    /** True when at least one override is active. */
    bool any() const
    {
        return instructionBudget.has_value() || reference || check ||
               jobs.has_value() || telemetry || !tracePath.empty() ||
               !device.empty();
    }

    /** Layer the active overrides onto @p config. */
    void apply(SimConfig &config) const;

    /** Worker-pool width: STFM_JOBS, else @p fallback. */
    unsigned jobsOr(unsigned fallback) const
    {
        return jobs.value_or(fallback);
    }

    /**
     * The active overrides as a JSON object (only the variables that
     * are set appear, STFM_JOBS never), for the results-file echo.
     */
    Json toJson() const;
};

} // namespace stfm

#endif // STFM_HARNESS_ENV_OVERRIDES_HH
