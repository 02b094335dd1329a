/**
 * @file
 * STFM: the Stall-Time Fair Memory scheduler — the paper's contribution.
 *
 * Scheduling policy (Section 3.2.1):
 *  1. Each DRAM cycle, compute each thread's (weighted) slowdown
 *     S = Tshared / Talone and the unfairness Smax / Smin over threads
 *     with at least one outstanding request.
 *  2. If unfairness <= alpha, schedule with the baseline FR-FCFS rules.
 *  3. Otherwise prioritize, in order: requests of the most slowed-down
 *     thread (Tmax-first), then ready column accesses, then older
 *     requests.
 *
 * Tinterference estimation follows Section 3.2.2 in spirit but is
 * accounted per DRAM cycle rather than per scheduling event (see
 * DESIGN.md): each cycle a thread accrues stall while its blocking
 * reads wait behind other threads' bank or bus activity, the accrued
 * stall (scaled by the blocked fraction of its BankWaitingParallelism)
 * is charged as interference. The paper's bus term (tbus to ready
 * column losers) and own-thread row-state term (ExtraLatency via
 * LastRowAddress, both signs, amortized by BankAccessParallelism) are
 * retained, and the paper's literal per-event formulation plus a
 * request-level variant remain available as ablations.
 */

#ifndef STFM_CORE_STFM_HH
#define STFM_CORE_STFM_HH

#include <memory>

#include "core/slowdown_tracker.hh"
#include "sched/policy.hh"

namespace stfm
{

/** STFM-specific knobs (a view over SchedulerConfig). */
struct StfmParams
{
    double alpha = 1.10;
    Cycles intervalLength = 1ULL << 24;
    double gamma = 0.5;
    bool quantize = true;
    bool busInterference = false;
    /**
     * Estimate Tinterference per completed request (observed latency
     * minus the reconstructed alone-mode latency, amortized over the
     * thread's bank-waiting parallelism). When false, fall back to the
     * per-DRAM-cycle wait-attribution estimator (ablation).
     */
    bool requestLevelEstimator = false;
    std::vector<double> weights;
};

class StfmPolicy : public SchedulingPolicy
{
  public:
    StfmPolicy(const StfmParams &params, unsigned num_threads,
               unsigned total_banks, unsigned channels);

    std::string name() const override { return "STFM"; }

    void beginCycle(const SchedContext &ctx) override;

    /** STFM integrates interference every DRAM cycle; the simulation
     *  loop must invoke beginCycle even across quiescent stretches. */
    bool perCycleAccounting() const override { return true; }

    bool higherPriority(const Candidate &a, const Candidate &b,
                        const SchedContext &ctx) const override;

    /** The fairness-rule trip (and hot thread) is re-evaluated every
     *  beginCycle, so the ordering can flip between any two cycles. */
    bool timeVaryingPriority() const override { return true; }

    void onRowCommand(const RowIssueEvent &ev,
                      const SchedContext &ctx) override;
    void onEnqueueBlocked(ThreadId thread, double foreign_fraction,
                          const SchedContext &ctx) override;
    void onColumnCommand(const ColumnIssueEvent &ev,
                         const SchedContext &ctx) override;

    /** True if the fairness-rule (not FR-FCFS) governs this cycle. */
    bool fairnessMode() const { return fairnessMode_; }
    /** Thread prioritized while the fairness-rule is active. */
    ThreadId hotThread() const { return hotThread_; }
    /** Unfairness (Smax/Smin) computed at the last beginCycle. */
    double unfairness() const { return unfairness_; }

    /** Times the scheduler entered fairness mode. */
    std::uint64_t fairnessModeToggles() const
    {
        return fairnessModeToggles_;
    }
    /** Column commands granted to the hot thread in fairness mode. */
    std::uint64_t hotGrants() const { return hotGrants_; }

    void registerTelemetry(TelemetryRegistry &registry) override;

    const SlowdownTracker &tracker() const { return tracker_; }

  private:
    /** Commit a fairness-mode decision, counting entries and firing
     *  the trace tap on transitions. */
    void setFairnessMode(bool active, ThreadId hot, DramCycles now);

    StfmParams params_;
    SlowdownTracker tracker_;

    bool fairnessMode_ = false;
    ThreadId hotThread_ = kInvalidThread;
    double unfairness_ = 1.0;
    std::uint64_t fairnessModeToggles_ = 0;
    std::uint64_t hotGrants_ = 0;

    /** Row-command (precharge/activate) occupancy per global bank, so
     *  the prep phase of a foreign access counts as interference too. */
    std::vector<ThreadId> prepOwner_;
    std::vector<DramCycles> prepUntil_;

    /** Data-bus occupancy per channel: in a saturated system most of a
     *  request's wait is for the shared bus, not its specific bank. */
    std::vector<ThreadId> busOwner_;
    std::vector<DramCycles> busUntil_;

  public:
    /** Diagnostics: DRAM cycles in which the thread had blocking reads
     *  waiting and at least one was charged as foreign-blocked. */
    std::uint64_t chargedCycles(ThreadId t) const
    {
        return chargedCycles_[t];
    }
    /** DRAM cycles with blocking reads waiting but no charge (the
     *  blocking banks looked idle — self-queueing or timing gaps). */
    std::uint64_t unchargedCycles(ThreadId t) const
    {
        return unchargedCycles_[t];
    }

  private:
    std::vector<std::uint64_t> chargedCycles_;
    std::vector<std::uint64_t> unchargedCycles_;

    /** Last observed cumulative stall per thread: per-cycle charges are
     *  scaled by the stall actually accrued since the previous DRAM
     *  cycle, so Tinterference stays a portion of Tshared by
     *  construction (interference is *extra stall*, nothing else). */
    std::vector<Cycles> lastStall_;
};

} // namespace stfm

#endif // STFM_CORE_STFM_HH
