#include "obs/telemetry.hh"

#include <cctype>

#include "common/logging.hh"

namespace stfm
{

void
TelemetryRegistry::add(std::string name, std::string unit,
                       std::string subsystem, SeriesKind kind,
                       std::function<double()> sample)
{
    for (const TelemetrySeries &s : series_) {
        if (s.name == name) {
            throw SimError(formatMessage(
                "telemetry: duplicate series registration '%s'",
                name.c_str()));
        }
    }
    series_.push_back({std::move(name), std::move(unit),
                       std::move(subsystem), kind, std::move(sample)});
}

void
TelemetryRegistry::counter(std::string name, std::string unit,
                           std::string subsystem,
                           std::function<double()> sample)
{
    add(std::move(name), std::move(unit), std::move(subsystem),
        SeriesKind::Counter, std::move(sample));
}

void
TelemetryRegistry::gauge(std::string name, std::string unit,
                         std::string subsystem,
                         std::function<double()> sample)
{
    add(std::move(name), std::move(unit), std::move(subsystem),
        SeriesKind::Gauge, std::move(sample));
}

void
TelemetryRegistry::histogram(std::string name, std::string unit,
                             std::string subsystem,
                             const LatencyHistogram *hist)
{
    for (const TelemetryHistogram &h : histograms_) {
        if (h.name == name) {
            throw SimError(formatMessage(
                "telemetry: duplicate histogram registration '%s'",
                name.c_str()));
        }
    }
    histograms_.push_back(
        {std::move(name), std::move(unit), std::move(subsystem), hist});
}

void
TelemetryRegistry::reset()
{
    series_.clear();
    histograms_.clear();
}

std::string
normalizeSeriesName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (std::size_t i = 0; i < name.size();) {
        if (std::isdigit(static_cast<unsigned char>(name[i]))) {
            out += "<n>";
            while (i < name.size() &&
                   std::isdigit(static_cast<unsigned char>(name[i])))
                ++i;
        } else {
            out += name[i++];
        }
    }
    return out;
}

const std::vector<TelemetryCatalogEntry> &
telemetryCatalog()
{
    // Keep in sync with docs/METRICS.md (tests/test_telemetry.cc and
    // the CI docs job enforce the correspondence in both directions).
    static const std::vector<TelemetryCatalogEntry> catalog = {
        // DRAM channel (device model).
        {"dram.ch<n>.reads", "counter", "commands", "dram",
         "column-read commands issued on the channel"},
        {"dram.ch<n>.writes", "counter", "commands", "dram",
         "column-write commands issued on the channel"},
        {"dram.ch<n>.activates", "counter", "commands", "dram",
         "row-activate commands (row misses + conflicts opened)"},
        {"dram.ch<n>.precharges", "counter", "commands", "dram",
         "explicit precharge commands (row conflicts closed)"},
        {"dram.ch<n>.refreshes", "counter", "commands", "dram",
         "all-bank auto-refresh operations"},
        {"dram.ch<n>.fawLimitedActs", "counter", "commands", "dram",
         "activates whose issue time was bound by the tFAW "
         "four-activate window"},
        {"dram.ch<n>.busUtilization", "gauge", "fraction", "dram",
         "cumulative data-bus busy cycles / elapsed DRAM cycles"},
        // Memory controller.
        {"mem.ch<n>.rowHits", "counter", "requests", "mem",
         "demand accesses serviced as row-buffer hits"},
        {"mem.ch<n>.rowClosed", "counter", "requests", "mem",
         "demand accesses to a closed (precharged) bank"},
        {"mem.ch<n>.rowConflicts", "counter", "requests", "mem",
         "demand accesses that had to close another row first"},
        {"mem.ch<n>.readQueueOccupancy", "gauge", "requests", "mem",
         "reads waiting in the request buffer"},
        {"mem.ch<n>.writeQueueOccupancy", "gauge", "requests", "mem",
         "writebacks waiting in the write buffer"},
        {"mem.ch<n>.drainEpisodes", "counter", "episodes", "mem",
         "write-drain batches started by the drain state machine"},
        {"mem.ch<n>.emergencyDrains", "counter", "episodes", "mem",
         "entries into the emergency (buffer-nearly-full) drain state"},
        {"mem.ch<n>.readLatency.t<n>", "histogram", "dram-cycles",
         "mem",
         "per-thread demand-read service latency distribution "
         "(arrival to data)"},
        // Scheduler (policy-dependent; STFM registers the full set).
        {"sched.stfm.unfairness", "gauge", "ratio", "sched",
         "current max/min estimated slowdown ratio (paper sec. 3.2)"},
        {"sched.stfm.fairnessMode", "gauge", "bool", "sched",
         "1 while unfairness > alpha and STFM prioritizes the hot "
         "thread, else 0 (paper sec. 3.1)"},
        {"sched.stfm.fairnessModeToggles", "counter", "transitions",
         "sched", "times the scheduler entered fairness mode"},
        {"sched.stfm.hotGrants", "counter", "commands", "sched",
         "column commands granted to the prioritized (hot) thread "
         "while in fairness mode"},
        {"sched.stfm.slowdown.t<n>", "gauge", "ratio", "sched",
         "thread t's estimated slowdown S = Tshared/Talone from the "
         "hardware slowdown registers (paper sec. 3.2)"},
        // Cores.
        {"core.t<n>.mshrOccupancy", "gauge", "entries", "core",
         "MSHR entries currently allocated (misses in flight)"},
        {"core.t<n>.stallCycles", "counter", "cpu-cycles", "core",
         "cumulative cycles the thread was memory-stalled"},
        {"core.t<n>.instructions", "counter", "instructions", "core",
         "instructions committed"},
        {"core.t<n>.llcMisses", "counter", "requests", "core",
         "L2 (last-level cache) misses; DRAM demand accesses"},
        // Simulation engine: work counts of the fast path, summed over
        // the cores (all zero on the reference path).
        {"sim.runAhead.bursts", "counter", "bursts", "sim",
         "run-ahead bursts entered (Core::runAhead calls that passed "
         "the eligibility check)"},
        {"sim.runAhead.batchedCycles", "counter", "cpu-cycles", "sim",
         "burst cycles run by the closed-form ALU batch"},
        {"sim.runAhead.steppedCycles", "counter", "cpu-cycles", "sim",
         "burst cycles run one at a time through commit()/fetch(), "
         "rolled-back ones included"},
        {"sim.runAhead.rollbacks", "counter", "cpu-cycles", "sim",
         "stepped cycles rolled back for tick() to rerun (the memory "
         "op would leave the core)"},
        // Fleet supervisor (process-pool tier; registered by
        // registerFleetTelemetry over FleetStats, not by a simulated
        // run — written to <checkpoint>/fleet_counters.json).
        {"fleet.shards.completed", "counter", "shards", "fleet",
         "shards executed to success by worker processes this run"},
        {"fleet.shards.resumed", "counter", "shards", "fleet",
         "shards replayed from the checkpoint manifest"},
        {"fleet.shards.failed", "counter", "shards", "fleet",
         "shards that exhausted their process-level retries (merged "
         "as FAILED rows)"},
        {"fleet.retries", "counter", "attempts", "fleet",
         "shard attempts after the first (bounded retry machinery)"},
        {"fleet.timeouts", "counter", "events", "fleet",
         "workers killed for exceeding the per-shard wall-clock "
         "timeout"},
        {"fleet.hangs", "counter", "events", "fleet",
         "workers killed for missing the heartbeat liveness window"},
        {"fleet.crashes", "counter", "events", "fleet",
         "workers that exited nonzero or died to a signal mid-shard"},
        {"fleet.garbage", "counter", "events", "fleet",
         "shard attempts abandoned for protocol garbage on the "
         "worker stream"},
        {"fleet.heartbeats", "counter", "frames", "fleet",
         "heartbeat frames received from busy workers"},
        {"fleet.sigkills", "counter", "events", "fleet",
         "workers killed by SIGKILL mid-shard (likely the OOM killer "
         "on the host; counted inside fleet.crashes too)"},
    };
    return catalog;
}

Json
latencyHistogramToJson(const LatencyHistogram &hist)
{
    Json out = Json::object();
    out.set("count", hist.count());
    out.set("min", hist.min());
    out.set("max", hist.max());
    out.set("mean", hist.mean());
    out.set("p50", hist.quantile(0.5));
    out.set("p90", hist.quantile(0.9));
    out.set("p99", hist.quantile(0.99));
    Json buckets = Json::array();
    for (unsigned k = 0; k < LatencyHistogram::kBuckets; ++k)
        buckets.push(Json(hist.bucket(k)));
    out.set("buckets", std::move(buckets));
    return out;
}

} // namespace stfm
