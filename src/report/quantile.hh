/**
 * @file
 * MetricSketch: the exact distribution behind every stfm-report-v1
 * block (docs/REPORTING.md).
 *
 * Rollups need tail percentiles of *double-valued* fairness metrics
 * (slowdown, unfairness). The largest distribution any checked-in
 * spec produces holds about a thousand samples, so the sketch simply
 * keeps every one, in ascending order. Every statistic is then a pure
 * function of the folded multiset: the serialized report is
 * byte-identical whatever order the runs were folded in.
 *
 * Percentile definition (the stfm-report-v1 contract): quantile(p)
 * for p in (0, 1] is the nearest-rank statistic — the value of rank
 * ceil(p * count) (1-based) in ascending order. quantile of an empty
 * sketch is 0.
 */

#ifndef STFM_REPORT_QUANTILE_HH
#define STFM_REPORT_QUANTILE_HH

#include <cstdint>
#include <vector>

#include "common/json.hh"

namespace stfm
{
namespace report
{

class MetricSketch
{
  public:
    /** Record one sample. */
    void add(double value);

    std::uint64_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    double min() const { return empty() ? 0.0 : samples_.front(); }
    double max() const { return empty() ? 0.0 : samples_.back(); }

    /** Arithmetic mean, summed in ascending order. */
    double mean() const;

    /** Nearest-rank quantile, p in (0, 1]; see file header. */
    double quantile(double p) const;

    /**
     * The distribution block: {"count", "min", "max", "mean", "p50",
     * "p95", "p99", "samples": [ascending...]}.
     */
    Json toJson() const;

  private:
    /** Every sample, ascending. */
    std::vector<double> samples_;
};

} // namespace report
} // namespace stfm

#endif // STFM_REPORT_QUANTILE_HH
