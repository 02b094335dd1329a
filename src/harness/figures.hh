/**
 * @file
 * The figure registry: every paper figure/table the repo reproduces,
 * addressable by name from the stfm CLI (`stfm fig09`, `stfm list
 * figures`).
 *
 * Every figure is a named ExperimentSpec — workloads x scheduler
 * entries, with per-entry policy knobs and configuration overrides —
 * executed by the experiment engine. `stfm <figure>` parses the same
 * flags as `stfm run`, plus `--full` (full-size sweeps), and then runs
 * exactly as `stfm run` on the figure's spec: every figure writes a
 * `--json` results document and takes the fleet flags.
 */

#ifndef STFM_HARNESS_FIGURES_HH
#define STFM_HARNESS_FIGURES_HH

#include <string>
#include <vector>

#include "harness/spec.hh"

namespace stfm
{

/** One registered figure. */
struct Figure
{
    std::string name;        ///< Registry key ("fig09", "table5", ...).
    std::string description; ///< One line for `stfm list figures`.
    /** Spec builder; @p full selects the full-size sweep. */
    ExperimentSpec (*spec)(bool full) = nullptr;
};

/** All figures, in paper order. */
const std::vector<Figure> &figureRegistry();

/** Lookup by name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

} // namespace stfm

#endif // STFM_HARNESS_FIGURES_HH
