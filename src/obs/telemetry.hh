/**
 * @file
 * The telemetry registry: named counters, gauges and histograms that
 * subsystems register by name when observability is enabled.
 *
 * Probes are *pull-based*: a registration is a name plus a sampling
 * closure over state the subsystem already maintains (its existing
 * stats structs). Nothing is added to any hot path — when telemetry is
 * off the registry simply never exists and no closure is ever created;
 * when it is on, cost is confined to the epoch sampler walking the
 * closures every N DRAM cycles.
 *
 * Naming contract (documented in docs/METRICS.md, browsable via
 * `stfm list telemetry`): dotted lowercase paths where instance
 * indices are literal digits, e.g. `dram.ch0.activates`,
 * `sched.stfm.slowdown.t2`. `normalizeSeriesName()` maps a concrete
 * name onto its catalog pattern (`dram.ch<n>.activates`,
 * `sched.stfm.slowdown.t<n>`) so tests and CI can verify that every
 * registered series is documented and vice versa.
 */

#ifndef STFM_OBS_TELEMETRY_HH
#define STFM_OBS_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "stats/histogram.hh"

namespace stfm
{

enum class SeriesKind
{
    Counter, ///< Monotonically non-decreasing cumulative count.
    Gauge,   ///< Instantaneous level; may move in both directions.
};

/** One registered time-series probe. */
struct TelemetrySeries
{
    std::string name;
    std::string unit;
    std::string subsystem;
    SeriesKind kind = SeriesKind::Counter;
    std::function<double()> sample;
};

/** One registered histogram (emitted once, at end of run). */
struct TelemetryHistogram
{
    std::string name;
    std::string unit;
    std::string subsystem;
    const LatencyHistogram *histogram = nullptr;
};

class TelemetryRegistry
{
  public:
    /** Register a cumulative counter probe. @throws SimError on a
     *  duplicate name. */
    void counter(std::string name, std::string unit,
                 std::string subsystem, std::function<double()> sample);

    /** Register an instantaneous gauge probe. */
    void gauge(std::string name, std::string unit, std::string subsystem,
               std::function<double()> sample);

    /** Register a histogram snapshotted at end of run. The pointee
     *  must outlive the registry. */
    void histogram(std::string name, std::string unit,
                   std::string subsystem, const LatencyHistogram *hist);

    const std::vector<TelemetrySeries> &series() const { return series_; }
    const std::vector<TelemetryHistogram> &
    histograms() const
    {
        return histograms_;
    }

    std::size_t size() const { return series_.size(); }

    /** Drop every registration (per-run lifetime management). */
    void reset();

  private:
    void add(std::string name, std::string unit, std::string subsystem,
             SeriesKind kind, std::function<double()> sample);

    std::vector<TelemetrySeries> series_;
    std::vector<TelemetryHistogram> histograms_;
};

/** One row of the static metrics catalog (`stfm list telemetry`). */
struct TelemetryCatalogEntry
{
    const char *pattern;   ///< Name with <n> in place of indices.
    const char *kind;      ///< "counter" / "gauge" / "histogram".
    const char *unit;
    const char *subsystem;
    const char *description;
};

/**
 * The authoritative in-tree catalog of every series the simulator can
 * register. docs/METRICS.md mirrors this table; tests assert the two
 * never drift (each registered name normalizes onto a pattern here,
 * and each pattern is exercised by a telemetry-enabled run).
 */
const std::vector<TelemetryCatalogEntry> &telemetryCatalog();

/** Replace each digit run with `<n>`: `dram.ch0.reads` ->
 *  `dram.ch<n>.reads`, `sched.stfm.slowdown.t12` ->
 *  `sched.stfm.slowdown.t<n>`. */
std::string normalizeSeriesName(const std::string &name);

/**
 * Serialize @p hist exactly as stfm-telemetry-v1 documents carry
 * end-of-run histograms: {"count", "min", "max", "mean", "p50",
 * "p90", "p99", "buckets": [32 counts]}.
 */
Json latencyHistogramToJson(const LatencyHistogram &hist);

} // namespace stfm

#endif // STFM_OBS_TELEMETRY_HH
