/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call into a layer: name, start, end, the span
 * that was open when it started (its parent) and a job id shared by
 * every span of one (row, scheduler) run. Spans are appended to a
 * vector while the benchmark runs and written out once at exit, so
 * recording costs two clock reads and a push per call. Spans are
 * opened and closed on the recording thread only; the layers it times
 * may fan work out to their own threads inside one span.
 */

#ifndef STFM_PERF_SPANS_HH
#define STFM_PERF_SPANS_HH

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

struct Span
{
    std::string name;
    double start = 0.0; ///< Seconds since the recorder was created.
    double end = 0.0;
    int parent = -1;    ///< Index of the enclosing span, -1 at the root.
    int job = -1;       ///< Job id, -1 outside any (row, scheduler) run.

    double seconds() const { return end - start; }
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string &name, int job = -1);
    /** Close span @p id and any span still open inside it. */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Span @p id's duration minus the part of it covered by its direct
     * children (their union, so overlapping children count once).
     */
    double selfSeconds(int id) const;

    /** Summed duration of every span named @p name. */
    double totalSeconds(const std::string &name) const;
    /** Durations of every span named @p name, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Chrome trace_event document ("X" events, microseconds): one
     * event per span with its id, parent, job and self time in args.
     * Loads in Perfetto / chrome://tracing.
     */
    stfm::Json toJson() const;

  private:
    using Clock = std::chrono::steady_clock;

    double now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null recorder makes it a no-op (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               int job = -1)
        : recorder_(recorder),
          id_(recorder ? recorder->open(name, job) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    int id_;
};

/** Median of @p values (mean of the middle pair for an even count). */
double median(std::vector<double> values);

/** A timing distribution: median plus its highest reportable tail. */
struct Distribution
{
    std::size_t count = 0;
    double p50 = 0.0;
    /** Highest of p75/p90/p95/p99 with >= 10 samples beyond it; 50 if
     *  none qualifies (then tail == p50). */
    unsigned tailPercentile = 50;
    double tail = 0.0;
};

/**
 * Summarize @p values. The tail percentile is nearest-rank: the value
 * at sorted index ceil(p/100 * n) - 1, which leaves floor(n * (1 -
 * p/100)) samples strictly beyond it.
 */
Distribution distribution(std::vector<double> values);

} // namespace perfbench

#endif // STFM_PERF_SPANS_HH
