#include "core/stfm.hh"

#include <bit>

#include "common/logging.hh"
#include "obs/telemetry.hh"
#include "sched/fr_fcfs.hh"

namespace stfm
{

StfmPolicy::StfmPolicy(const StfmParams &params, unsigned num_threads,
                       unsigned total_banks, unsigned channels)
    : params_(params), tracker_([&] {
          SlowdownTrackerParams tp;
          tp.numThreads = num_threads;
          tp.totalBanks = total_banks;
          tp.intervalLength = params.intervalLength;
          tp.gamma = params.gamma;
          tp.quantize = params.quantize;
          tp.weights = params.weights;
          return tp;
      }()),
      prepOwner_(total_banks, kInvalidThread), prepUntil_(total_banks, 0),
      busOwner_(channels, kInvalidThread), busUntil_(channels, 0),
      chargedCycles_(num_threads, 0), unchargedCycles_(num_threads, 0),
      lastStall_(num_threads, 0)
{}

void
StfmPolicy::onRowCommand(const RowIssueEvent &ev, const SchedContext &ctx)
{
    const unsigned bank = ctx.globalBank(ev.bank);
    prepOwner_[bank] = ev.req->thread;
    const DramCycles busy = (ev.cmd == DramCommand::Precharge)
                                ? (ctx.timing ? ctx.timing->tRP : 6)
                                : (ctx.timing ? ctx.timing->tRCD : 6);
    prepUntil_[bank] = ctx.dramNow + busy;
}

void
StfmPolicy::onEnqueueBlocked(ThreadId thread, double foreign_fraction,
                             const SchedContext &)
{
    // One CPU cycle of stall the thread spends locked out of a request
    // buffer that is (mostly) full of other threads' requests.
    tracker_.addStallInterference(thread, foreign_fraction);
}

void
StfmPolicy::beginCycle(const SchedContext &ctx)
{
    // Bank-interference accounting, per DRAM cycle: a thread whose
    // *blocking* reads (reads a load is stalled on) sit waiting in
    // banks that other threads' requests currently occupy is being
    // delayed by interference — running alone, those banks would have
    // been free. Time spent behind the thread's own requests, and any
    // delay to non-blocking fills, is not charged. The charge is the
    // blocked fraction of the thread's bank-waiting parallelism, so a
    // fully blocked thread accrues extra stall at wall-clock rate —
    // this per-cycle formulation keeps the estimate proportional to
    // the real extra stall even when the memory system is saturated,
    // where the paper's per-scheduling-event description loses
    // discrimination (see DESIGN.md, deliberate simplifications).
    if (ctx.occupancy && !params_.requestLevelEstimator) {
        const ThreadBankOccupancy &occ = *ctx.occupancy;
        for (unsigned t = 0; t < ctx.numThreads; ++t) {
            // Stall the thread actually accrued since the last DRAM
            // cycle: the charge below is a fraction of this, never
            // more. Interference is by definition a part of Tshared.
            double stall_delta = static_cast<double>(ctx.cpuPerDram);
            if (ctx.stallCycles) {
                const Cycles current = (*ctx.stallCycles)[t];
                stall_delta =
                    static_cast<double>(current - lastStall_[t]);
                lastStall_[t] = current;
            }
            const unsigned bwp = occ.bankWaitingParallelism(t);
            if (bwp == 0 || stall_delta <= 0.0)
                continue;
            // Visit only the banks holding the thread's waiting
            // blocking reads: O(bwp) per thread, not O(banks).
            unsigned blocked = 0;
            const std::span<const std::uint64_t> words =
                occ.blockingBanks(t);
            for (std::size_t w = 0; w < words.size(); ++w) {
                for (std::uint64_t bits = words[w]; bits != 0;
                     bits &= bits - 1) {
                    const unsigned g = static_cast<unsigned>(
                        w * 64 + std::countr_zero(bits));
                    if (occ.inService(t, g) > 0)
                        continue; // Behind its own access: not interference.
                    // Foreign activity in the bank itself (column
                    // service — any in service here is another
                    // thread's, since the thread's own was skipped —
                    // or a precharge/activate in flight)...
                    bool foreign_busy =
                        occ.bankInService(g) > 0 ||
                        (prepUntil_[g] > ctx.dramNow && prepOwner_[g] != t);
                    // ...or another thread's burst occupying the
                    // channel's data bus: in a loaded system most of a
                    // request's wait is for the shared bus, not its bank.
                    if (!foreign_busy) {
                        const unsigned ch = g / ctx.banksPerChannel;
                        foreign_busy = busUntil_[ch] > ctx.dramNow &&
                                       busOwner_[ch] != t;
                    }
                    if (foreign_busy)
                        ++blocked;
                }
            }
            if (blocked > 0) {
                tracker_.addStallInterference(
                    t, stall_delta * blocked / bwp);
                ++chargedCycles_[t];
            } else {
                ++unchargedCycles_[t];
            }
        }
    }

    if (ctx.stallCycles)
        tracker_.updateSlowdowns(*ctx.stallCycles, ctx.cpuNow);

    // Determine unfairness among threads that currently have at least
    // one outstanding request (Section 3.2.1, step 1). Threads with no
    // requests neither need nor can receive prioritization.
    double s_max = 0.0, s_min = 0.0;
    ThreadId hot = kInvalidThread;
    for (unsigned t = 0; t < ctx.numThreads; ++t) {
        if (!ctx.occupancy || ctx.occupancy->waitingTotal(t) == 0)
            continue;
        const double s = tracker_.slowdown(t);
        if (hot == kInvalidThread || s > s_max) {
            if (hot == kInvalidThread)
                s_min = s;
            s_max = s;
            hot = t;
        }
        s_min = std::min(s_min, s);
    }

    if (hot == kInvalidThread || s_min <= 0.0) {
        unfairness_ = 1.0;
        setFairnessMode(false, kInvalidThread, ctx.dramNow);
        return;
    }
    unfairness_ = s_max / s_min;
    setFairnessMode(unfairness_ > params_.alpha, hot, ctx.dramNow);
}

void
StfmPolicy::setFairnessMode(bool active, ThreadId hot, DramCycles now)
{
    hotThread_ = active ? hot : kInvalidThread;
    if (active == fairnessMode_)
        return;
    fairnessMode_ = active;
    if (active)
        ++fairnessModeToggles_;
    if (fairnessTap_)
        fairnessTap_->onFairnessMode(active, hotThread_, unfairness_,
                                     now);
}

bool
StfmPolicy::higherPriority(const Candidate &a, const Candidate &b,
                           const SchedContext &) const
{
    if (fairnessMode_) {
        // 2b-1) Tmax-first, 2b-2) column-first, 2b-3) oldest-first.
        const bool hot_a = a.req->thread == hotThread_;
        const bool hot_b = b.req->thread == hotThread_;
        if (hot_a != hot_b)
            return hot_a;
    }
    return FrFcfsPolicy::frFcfsBefore(a, b);
}

void
StfmPolicy::onColumnCommand(const ColumnIssueEvent &ev,
                            const SchedContext &ctx)
{
    const ThreadId owner = ev.req->thread;
    if (fairnessMode_ && owner == hotThread_)
        ++hotGrants_;
    const unsigned bank = ctx.globalBank(ev.req->coords.bank);
    busOwner_[ctx.channel] = owner;
    busUntil_[ctx.channel] = ev.busBusyUntil;
    const double cpu_per_dram = static_cast<double>(ctx.cpuPerDram);

    // (a) DRAM bus interference: the data burst blocks every other
    // thread that had a ready column command in this channel. In
    // request-level mode the bus delay is already part of each
    // victim's observed latency, so the event charge would double
    // count.
    if (params_.busInterference && !params_.requestLevelEstimator &&
        ctx.timing) {
        const double tbus_cpu =
            static_cast<double>(ctx.timing->burst) * cpu_per_dram;
        for (unsigned t = 0; t < ctx.numThreads; ++t) {
            if (t == owner)
                continue;
            if (ev.readyColumnThreads & (1u << t))
                tracker_.addBusInterference(t, tbus_cpu);
        }
    }

    if (params_.requestLevelEstimator && ctx.timing) {
        // (b) Request-level interference estimate: the request's
        // observed queueing+service latency minus the latency it would
        // have had running alone (zero queueing; row-buffer state
        // reconstructed from LastRowAddress). The excess is charged as
        // extra stall, amortized over the thread's bank-waiting
        // parallelism since concurrent waits overlap. This subsumes
        // the paper's separate own-thread row-state term: the alone
        // latency already uses the would-have-been row category.
        const DramTiming &timing = *ctx.timing;
        const RowId last = tracker_.lastRow(owner, bank);
        tracker_.setLastRow(owner, bank, ev.req->coords.row);
        if (!ev.req->isWrite && ev.req->blocking) {
            DramCycles alone_bank = ev.bankLatency;
            if (last != kInvalidRow) {
                alone_bank = (last == ev.req->coords.row)
                                 ? timing.rowHitLatency()
                                 : timing.rowConflictLatency();
            }
            const double observed = static_cast<double>(
                ctx.dramNow - ev.req->arrivalDram + timing.tCL +
                timing.burst);
            const double alone =
                static_cast<double>(alone_bank + timing.burst);
            if (observed > alone) {
                const unsigned bwp =
                    ctx.occupancy
                        ? std::max(
                              1u,
                              ctx.occupancy->bankWaitingParallelism(
                                  owner))
                        : 1u;
                tracker_.addStallInterference(
                    owner, (observed - alone) * cpu_per_dram / bwp);
            }
        }
        return;
    }

    // (2) Own-thread interference: row-buffer state lost to sharing
    // (per-cycle estimator path).
    if (ctx.timing) {
        const unsigned bap =
            ctx.occupancy ? ctx.occupancy->bankAccessParallelism(owner) : 1;
        tracker_.noteOwnService(owner, bank, ev.req->coords.row,
                                ev.serviceState, bap, *ctx.timing,
                                ctx.cpuPerDram);
    }
}

void
StfmPolicy::registerTelemetry(TelemetryRegistry &registry)
{
    registry.gauge("sched.stfm.unfairness", "ratio", "sched",
                   [this] { return unfairness_; });
    registry.gauge("sched.stfm.fairnessMode", "bool", "sched",
                   [this] { return fairnessMode_ ? 1.0 : 0.0; });
    registry.counter("sched.stfm.fairnessModeToggles", "transitions",
                     "sched", [this] {
                         return static_cast<double>(fairnessModeToggles_);
                     });
    registry.counter("sched.stfm.hotGrants", "commands", "sched",
                     [this] {
                         return static_cast<double>(hotGrants_);
                     });
    for (unsigned t = 0; t < tracker_.numThreads(); ++t) {
        registry.gauge(
            formatMessage("sched.stfm.slowdown.t%u", t), "ratio",
            "sched", [this, t] { return tracker_.slowdown(t); });
    }
}

} // namespace stfm
