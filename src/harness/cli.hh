/**
 * @file
 * The `stfm` command-line driver. One binary fronts the whole
 * experiment layer:
 *
 *   stfm run <spec.json> [flags]   execute a declarative experiment
 *   stfm validate <spec.json>      parse + resolve + validate, no run
 *   stfm list schedulers           scheduling policies and their knobs
 *   stfm list workloads            the named workload catalog
 *   stfm list figures              every registered paper figure
 *   stfm <figure> [flags]          run a registered figure (fig09, ...)
 *
 * Flags for `run` (figures parse the same set, plus `--full`):
 *   --json PATH       also emit machine-readable results
 *   --check           run under the integrity layer (STFM_CHECK=1)
 *   --reference       pin the cycle-by-cycle path (STFM_REFERENCE=1)
 *   --jobs N          worker-pool width (STFM_JOBS=N)
 *   --instructions N  per-thread budget override (STFM_INSTRUCTIONS=N)
 *   --full            full-size sweep for figures that sample
 *
 * Every figure is a spec, so it then runs exactly as `stfm run` on it.
 */

#ifndef STFM_HARNESS_CLI_HH
#define STFM_HARNESS_CLI_HH

namespace stfm
{

/** Entry point for the stfm binary; returns the process exit code. */
int cliMain(int argc, char **argv);

} // namespace stfm

#endif // STFM_HARNESS_CLI_HH
