/**
 * @file
 * The rollup builder: folds per-run artifacts — stfm-results-v1
 * documents and manifest.jsonl shard checkpoints — into one
 * `stfm-report-v1` document (docs/REPORTING.md is the schema
 * contract).
 *
 * Folding is order-independent: every distribution is an exact
 * MetricSketch (report/quantile.hh), and all serialization orders are
 * canonical (groups by plan order then key, workloads by label,
 * samples ascending). A checkpoint's manifest and the merged results
 * document of the same sweep therefore roll up to the same bytes,
 * `sources` aside.
 *
 * Grouping: one group per (scheduler, device) pair. Failed runs are
 * counted per group and per workload but excluded from the metric
 * distributions (there are no valid metrics to fold).
 */

#ifndef STFM_REPORT_ROLLUP_HH
#define STFM_REPORT_ROLLUP_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "report/quantile.hh"

namespace stfm
{

struct RunOutcome;
struct ExperimentPlan;

namespace report
{

class ReportBuilder
{
  public:
    explicit ReportBuilder(std::string name);

    /**
     * Fold one run outcome under its labels. @p scheduler may carry
     * the plan's "@<device>" suffix; it is stripped when it names
     * @p device. @p order_hint fixes the group's position in the
     * serialized report (plan scheduler index); pass -1 to assign
     * first-seen order.
     */
    void addOutcome(const std::string &scheduler,
                    const std::string &device,
                    const std::string &workload,
                    const RunOutcome &outcome, int order_hint);

    /**
     * Fold every run of a stfm-results-v1 document. Returns the runs
     * folded. @throws SimError on a malformed document.
     */
    std::uint64_t addResultsDoc(const Json &doc,
                                const std::string &source_path);

    /**
     * Fold the completed shards of a manifest.jsonl checkpoint,
     * labeling outcomes by re-deriving the job grid from @p plan (the
     * same planExperiment() the sweep used). Returns the runs folded.
     * @throws SimError on unreadable contents or a plan whose job
     * count disagrees with the manifest header.
     */
    std::uint64_t addManifest(const std::string &path,
                              const ExperimentPlan &plan);

    /** Total outcomes folded so far (failed included). */
    std::uint64_t runs() const { return runs_; }

    /** The stfm-report-v1 document (docs/REPORTING.md). */
    Json toJson() const;

  private:
    struct WorkloadStats
    {
        std::uint64_t runs = 0;
        std::uint64_t failed = 0;
        MetricSketch unfairness;
    };

    struct Group
    {
        int order = -1;
        std::uint64_t runs = 0;
        std::uint64_t failed = 0;
        MetricSketch unfairness;
        MetricSketch slowdown;
        MetricSketch weightedSpeedup;
        std::map<std::string, WorkloadStats> workloads;
    };

    struct Source
    {
        std::string path;
        std::string kind;
        std::uint64_t runs = 0;
    };

    Group &groupFor(const std::string &scheduler,
                    const std::string &device, int order_hint);

    std::string name_;
    std::uint64_t runs_ = 0;
    std::uint64_t failedRuns_ = 0;
    int nextOrder_ = 0;
    /** Keyed (scheduler, device); serialization sorts by (order, key). */
    std::map<std::pair<std::string, std::string>, Group> groups_;
    std::vector<Source> sources_;
};

// Input discovery ----------------------------------------------------

/** True when @p path exists at all (any file type). */
bool pathExists(const std::string &path);

/** True when @p path names a directory. */
bool isDirectory(const std::string &path);

/**
 * Regular files directly inside directory @p path, sorted by name
 * (canonical ingestion order). @throws SimError when unreadable.
 */
std::vector<std::string> listDirectoryFiles(const std::string &path);

} // namespace report
} // namespace stfm

#endif // STFM_REPORT_ROLLUP_HH
