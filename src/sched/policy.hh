/**
 * @file
 * The DRAM scheduling-policy interface.
 *
 * The controller implements the two-level structure from Section 2.3 of
 * the paper: per-bank schedulers each select the highest-priority *ready*
 * command for their bank, and the across-bank channel scheduler selects
 * the highest-priority command among those. Readiness (timing
 * constraints, bus conflicts) is the controller's business; policies
 * only define a priority order over ready (request, command) candidates
 * and observe scheduling events to maintain their internal state.
 *
 * One policy instance serves all channels of a memory system, so
 * thread-level state (slowdowns, virtual finish times) is naturally
 * global while per-bank state is indexed by global bank number.
 */

#ifndef STFM_SCHED_POLICY_HH
#define STFM_SCHED_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "mem/occupancy.hh"
#include "mem/request.hh"
#include "obs/taps.hh"

namespace stfm
{

class TelemetryRegistry;

/** Read-only view of the system state passed to policy hooks. */
struct SchedContext
{
    Cycles cpuNow = 0;
    DramCycles dramNow = 0;
    /** Channel whose scheduler is consulting the policy. */
    ChannelId channel = 0;
    unsigned numThreads = 0;
    unsigned banksPerChannel = 0;
    /** CPU cycles per DRAM cycle, derived from the configured clock
     *  pair (baseline 4 GHz / DDR2-800 = 10). */
    Cycles cpuPerDram = kBaselineCoreMHz / kBaselineDramMHz;
    const DramTiming *timing = nullptr;
    const ThreadBankOccupancy *occupancy = nullptr;
    /**
     * Cumulative per-thread memory stall cycles (the Tshared counters
     * the cores communicate to the controller). May be null in unit
     * tests that exercise policies without cores.
     */
    const std::vector<Cycles> *stallCycles = nullptr;

    /** Global bank number of @p b within the consulting channel. */
    unsigned globalBank(BankId b) const
    {
        return channel * banksPerChannel + b;
    }
};

/** Notification for a non-column (activate/precharge) command issue. */
struct RowIssueEvent
{
    const Request *req = nullptr; ///< Request the command was issued for.
    DramCommand cmd = DramCommand::Activate;
    BankId bank = 0;
};

/** Notification for a column (read/write) command issue. */
struct ColumnIssueEvent
{
    const Request *req = nullptr;
    /** Row-buffer category the request experienced end to end. */
    RowBufferState serviceState = RowBufferState::Hit;
    /**
     * Bank service latency of the request in DRAM cycles, including any
     * precharge/activate it needed (tCL / tRCD+tCL / tRP+tRCD+tCL).
     */
    DramCycles bankLatency = 0;
    /** DRAM cycle at which the request's data burst leaves the bus. */
    DramCycles busBusyUntil = 0;
    /**
     * Bitmask of threads that currently have at least one waiting
     * column-ready (row-hit) read or write in this channel. Used for
     * STFM's DRAM-bus interference term.
     */
    std::uint32_t readyColumnThreads = 0;
    /**
     * Bitmask of threads that had a *ready* command to the same bank
     * this cycle (it lost arbitration to this request). These are the
     * threads STFM charges bank interference to — a thread whose
     * commands were not ready (e.g. queued behind its own accesses)
     * would not have been serviced any sooner running alone.
     */
    std::uint32_t readyBankThreads = 0;
    /**
     * True if at least one older request wanting a row command to the
     * same bank was bypassed by this column access (FR-FCFS+Cap input).
     */
    bool bypassedOlderRowAccess = false;
};

/** Abstract scheduling policy. */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Human-readable policy name (used in reports). */
    virtual std::string name() const = 0;

    /**
     * Called once per DRAM cycle for the whole memory system, before any
     * channel makes a scheduling decision. STFM uses this to recompute
     * slowdowns and the unfairness mode from the previous cycle's state.
     */
    virtual void beginCycle(const SchedContext &) {}

    /**
     * True when beginCycle() performs per-cycle accounting whose result
     * depends on being invoked every DRAM cycle (STFM's interference
     * integration). When false (the default no-op beginCycle), the
     * simulation loop may fast-forward the DRAM clock across quiescent
     * cycles without calling beginCycle for each one.
     */
    virtual bool perCycleAccounting() const { return false; }

    /**
     * True when higherPriority()'s verdict for a fixed candidate pair
     * can change from one DRAM cycle to the next with no intervening
     * scheduler event (enqueue, command issue, completion) — e.g.
     * NFQ's wait-threshold boost expiring or STFM's per-cycle slowdown
     * trip. The controller's quiet-window memo consults this where a
     * priority comparison (row protection) suppressed an issue: a
     * time-varying ordering caps the window at the next cycle, an
     * event-driven ordering cannot flip the outcome until an event
     * invalidates the memo anyway.
     */
    virtual bool timeVaryingPriority() const { return false; }

    /**
     * Strict priority order: true iff @p a must be scheduled in
     * preference to @p b. Both candidates are ready. Must be a strict
     * weak ordering for any fixed cycle.
     */
    virtual bool higherPriority(const Candidate &a, const Candidate &b,
                                const SchedContext &ctx) const = 0;

    /** An activate/precharge command was issued. */
    virtual void onRowCommand(const RowIssueEvent &, const SchedContext &)
    {}

    /** A read/write command was issued (the request enters service). */
    virtual void onColumnCommand(const ColumnIssueEvent &,
                                 const SchedContext &)
    {}

    /** A request's data burst finished. */
    virtual void onRequestCompleted(const Request &, const SchedContext &)
    {}

    /**
     * A core failed to enqueue a blocking read this CPU cycle because
     * the channel's request buffer was full. @p foreign_fraction is the
     * share of buffered reads belonging to other threads — the degree
     * to which the blockage is interference rather than self-inflicted.
     */
    virtual void onEnqueueBlocked(ThreadId, double foreign_fraction,
                                  const SchedContext &)
    {
        (void)foreign_fraction;
    }

    /**
     * Register this policy's observable state (slowdown estimates,
     * mode flags, decision counters) into the telemetry registry.
     * Called once at system construction when observability is on;
     * the default policy exposes nothing.
     */
    virtual void registerTelemetry(TelemetryRegistry &) {}

    /**
     * Attach the fairness-mode span tap (trace exporter). Null by
     * default and only ever consulted on mode *transitions*, so the
     * disabled configuration costs nothing on the decision path.
     */
    void setFairnessTap(FairnessModeTap *tap) { fairnessTap_ = tap; }

  protected:
    FairnessModeTap *fairnessTap_ = nullptr;
};

/** Which scheduling algorithm to instantiate. */
enum class PolicyKind
{
    FrFcfs,    ///< Baseline throughput-oriented FR-FCFS.
    Fcfs,      ///< Plain first-come first-serve over ready commands.
    FrFcfsCap, ///< FR-FCFS with a cap on column-over-row reordering.
    Nfq,       ///< Network-fair-queueing (Nesbit et al. FQ-VFTF).
    Stfm,      ///< The paper's stall-time fair memory scheduler.
};

const char *toString(PolicyKind kind);

/** Policy parameters (union of all algorithms' knobs). */
struct SchedulerConfig
{
    PolicyKind kind = PolicyKind::FrFcfs;

    // --- STFM ---
    /** Maximum tolerable unfairness threshold (paper: 1.10). */
    double alpha = 1.10;
    /** Register-reset interval in CPU cycles (paper: 2^24). */
    Cycles intervalLength = 1ULL << 24;
    /** Bank-parallelism scaling factor (paper: 1/2). */
    double gamma = 0.5;
    /** Store slowdowns in the 8-bit fixed-point register format. */
    bool quantizeSlowdowns = true;
    /** Include the paper's per-event DRAM-bus interference term (tbus
     *  charged to ready-column losers). Off by default: the per-cycle
     *  estimator already attributes bus-occupancy delay, so the event
     *  charge double-counts (see `stfm ablation_stfm`). */
    bool busInterference = false;
    /** Use the request-level Tinterference estimator (ablation; the
     *  default per-cycle estimator is more robust under saturation). */
    bool requestLevelEstimator = false;
    /** Per-thread weights (empty = all 1). */
    std::vector<double> weights;

    // --- FR-FCFS+Cap ---
    /** Younger column accesses allowed past an older row access. */
    unsigned cap = 4;

    // --- NFQ ---
    /** Per-thread bandwidth shares (empty = equal). */
    std::vector<double> shares;
    /**
     * Priority-inversion-prevention threshold in DRAM cycles; 0 means
     * "use tRAS" (the value used in the paper and in Nesbit et al.).
     */
    DramCycles inversionThreshold = 0;
};

/**
 * Instantiate a policy. @p num_threads sizes the per-thread state,
 * @p total_banks the per-bank state (banks summed over channels) and
 * @p channels the per-channel state.
 */
std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const SchedulerConfig &config, unsigned num_threads,
                     unsigned total_banks, unsigned channels);

} // namespace stfm

#endif // STFM_SCHED_POLICY_HH
