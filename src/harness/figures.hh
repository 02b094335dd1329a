/**
 * @file
 * The figure registry: every paper figure/table the repo reproduces,
 * addressable by name from the stfm CLI (`stfm fig09`, `stfm list
 * figures`).
 *
 * Two kinds of figures:
 *  - spec-driven: the figure is a named ExperimentSpec (workloads x
 *    the five paper schedulers) executed by the experiment engine —
 *    these support `--json <path>` structured results emission;
 *  - custom: figures whose harness does not fit the (workload x
 *    scheduler) grid (the fig03 idleness schedule, the fig05 pairing
 *    sweep, table5's geometry grid, the ablations) — plain functions
 *    over the runner.
 *
 * Common flags parsed by runFigure for every figure:
 *   --check       run under the integrity layer (STFM_CHECK=1)
 *   --reference   pin the cycle-by-cycle path (STFM_REFERENCE=1)
 *   --full        full-size sweeps (STFM_FULL_SWEEP semantics)
 *   --json PATH   also write machine-readable results (spec-driven)
 */

#ifndef STFM_HARNESS_FIGURES_HH
#define STFM_HARNESS_FIGURES_HH

#include <string>
#include <vector>

#include "harness/spec.hh"

namespace stfm
{

/** Flags shared by every figure run. */
struct FigureFlags
{
    /** Full-size sweep (--full or STFM_FULL_SWEEP). */
    bool full = false;
    /** Results-JSON output path (empty = table report only). */
    std::string jsonPath;
};

/** One registered figure. */
struct Figure
{
    std::string name;        ///< Registry key ("fig09", "table5", ...).
    std::string description; ///< One line for `stfm list figures`.
    /** Spec builder (spec-driven figures); null for custom figures. */
    ExperimentSpec (*spec)(bool full) = nullptr;
    /** Custom harness; null for spec-driven figures. */
    int (*custom)(const FigureFlags &flags) = nullptr;

    bool specDriven() const { return spec != nullptr; }
};

/** All figures, in paper order. */
const std::vector<Figure> &figureRegistry();

/** Lookup by name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

/**
 * Run figure @p name with bench-style command-line flags. Prints the
 * report to stdout; errors (unknown figure, invalid config) go to
 * stderr. Returns a process exit code.
 */
int runFigure(const std::string &name, int argc, char **argv);

/** The custom figure harnesses (bodies in figures_custom.cc). */
namespace figures
{

int motivation(const FigureFlags &);         ///< Figure 1.
int idleness(const FigureFlags &);           ///< Figure 3.
int twoCore(const FigureFlags &);            ///< Figure 5.
int threadWeights(const FigureFlags &);      ///< Figure 14.
int alphaSweep(const FigureFlags &);         ///< Figure 15.
int table3Characteristics(const FigureFlags &);
int table5Sensitivity(const FigureFlags &);
int ablationStfm(const FigureFlags &);
int ablationController(const FigureFlags &);

} // namespace figures

} // namespace stfm

#endif // STFM_HARNESS_FIGURES_HH
