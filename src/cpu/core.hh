/**
 * @file
 * Trace-driven processor core model.
 *
 * Approximates the paper's performance model (Table 2): a 4 GHz core
 * with a 128-entry instruction window, 3-wide fetch/commit with at most
 * one memory operation per cycle, private L1/L2 caches, and 64 MSHRs.
 * Commit is in order; when the oldest instruction is an outstanding L2
 * miss, the core cannot commit and increments its memory stall counter —
 * this counter is exactly the Tshared value STFM consumes.
 *
 * Loads enter the window and complete after their cache/DRAM latency;
 * independent loads overlap (memory-level parallelism), while loads
 * marked address-dependent serialize. Stores commit immediately but
 * trigger store fills and, eventually, dirty writebacks to DRAM.
 */

#ifndef STFM_CPU_CORE_HH
#define STFM_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "cpu/cache.hh"
#include "cpu/memory_port.hh"
#include "cpu/mshr.hh"
#include "trace/trace.hh"

namespace stfm
{

class TelemetryRegistry;

/** Core tunables; defaults are the paper's Table 2 values. */
struct CoreParams
{
    unsigned windowSize = 128;
    unsigned fetchWidth = 3;
    unsigned commitWidth = 3;
    unsigned mshrs = 64;
    CacheParams l1{32 * 1024, 4, 64, 2};
    CacheParams l2{512 * 1024, 8, 64, 12};
    /** Fixed controller/interconnect overhead per DRAM access (CPU
     *  cycles); 40 cycles = the 10 ns that completes Table 2's 35 ns
     *  uncontended row-hit round trip. */
    Cycles dramOverhead = 40;
    /** Core-side buffer for writebacks the controller can't yet take. */
    unsigned maxPendingWritebacks = 8;
};

/** Work counts of Core::runAhead(): engine observability only, never
 *  read by the simulation. */
struct RunAheadStats
{
    std::uint64_t bursts = 0; ///< Calls that passed the eligibility check.
    /** Burst cycles run by the closed-form ALU batch. */
    std::uint64_t batchedCycles = 0;
    /** Burst cycles run one at a time through commit()/fetch(), rolled
     *  back ones included; an idle stretch jumped after one is not. */
    std::uint64_t steppedCycles = 0;
    /** Stepped cycles rolled back for tick() to rerun (at most one per
     *  burst). */
    std::uint64_t rollbacks = 0;

    RunAheadStats &
    operator+=(const RunAheadStats &o)
    {
        bursts += o.bursts;
        batchedCycles += o.batchedCycles;
        steppedCycles += o.steppedCycles;
        rollbacks += o.rollbacks;
        return *this;
    }
};

class Core
{
  public:
    Core(ThreadId id, const CoreParams &params, TraceSource &trace,
         MemoryPort &memory);

    /**
     * Pre-install @p lines into the L2 (and drop a subset into the L1),
     * modeling the working set resident before the simulated window.
     */
    void prewarmCaches(const std::vector<WarmLine> &lines);

    /**
     * Advance one CPU cycle: commit, then fetch/issue.
     * @return true if architectural progress was made (an instruction
     * committed, fetched, or a writeback drained) — i.e. anything
     * beyond stall accounting. Used by the simulation loop as a cheap
     * "certainly active next cycle too" hint: on progress it assumes a
     * wake at now + 1 instead of computing nextEventCycle(); the first
     * progress-free tick then computes the exact wake. The assumption
     * is always sound (an early wake is never wrong, only a late one).
     */
    bool tick(Cycles now);

    /** DRAM data for @p line_addr arrived (called by the system). */
    void onReadComplete(Addr line_addr, Cycles now);

    /**
     * Quiescence predictor for the fast-forward path: the earliest
     * cycle >= @p now + 1 at which tick() would do anything beyond the
     * fixed per-cycle bookkeeping (incrementing memStallCycles), given
     * that no external event (a read completing, the memory system
     * freeing capacity) occurs before it. Must be called on post-tick
     * state (after tick(now)). Returns kNever when only an external
     * event can make the core progress. Sets @p stalls to whether every
     * skipped cycle increments the memory-stall counter (apply with
     * skipStalledCycles). Sets @p waits_capacity when the predicted
     * sleep depends on memory-system capacity (request buffer or write
     * path) — such a sleep must be cut short when the controller frees
     * capacity (a column issue), whereas a purely core-local or
     * completion-bound sleep need not be. The prediction errs early,
     * never late: a premature wake costs a spurious tick, a late one
     * would diverge.
     */
    Cycles nextEventCycle(Cycles now, bool &stalls,
                          bool &waits_capacity) const;

    /** Account @p n skipped cycles of pure memory stall. */
    void skipStalledCycles(Cycles n) { memStall_ += n; }

    /**
     * Burst execution ahead of the global clock. A core's cycle-by-cycle
     * behavior is a closed function of its own state as long as no
     * cycle touches the memory system and no external event targets it:
     * cache hits stay core-local, and even in the shadow of outstanding
     * L2 misses, loads and store fills that coalesce into an existing
     * MSHR entry never leave the core. This executes cycles
     * [@p now, ...) in a tight loop of the same commit()/fetch() step
     * tick() runs — batching steady ALU stretches in closed form at any
     * window occupancy of at least one commit group (equal fetch and
     * commit widths) and jumping idle (dependence- or latency-blocked)
     * stretches analytically — stopping *before* the first cycle that
     * would touch the memory system (memOpLeavesCore(): a new L2 miss,
     * a new store fill, a non-temporal store), before the first *stall*
     * cycle (the oldest instruction a blocked L2 miss — the cycle a
     * completion matters and the stall counter must advance), before
     * any cycle that could push the committed-instruction count to
     * @p commit_cap (so the caller's per-cycle snapshot/freeze scan
     * still fires on the exact cycle), and at @p end. fetch() declines
     * a memory op that would leave the core before touching anything;
     * that cycle is rolled back and re-executed later through tick() at
     * the correct global cycle.
     *
     * When mshrInUse() != 0 the caller MUST cap @p end at the earliest
     * cycle a completion for this thread could be *observed*
     * (MemorySystem::nextCompletionEffectCpuCycle): an in-flight miss
     * makes this core a completion target, and a completion becoming
     * visible inside an executed burst would rewrite history. Data
     * delivered at boundary B is observable from B + 1 (the reference
     * ticks the core before the memory at B), so a burst may cover the
     * delivery cycle itself. With no miss in flight no external event
     * can target the core and no merge can occur, so @p end needs no
     * cap.
     *
     * @return the first cycle NOT executed; == @p now when the core is
     * ineligible or the very next cycle needs the memory system. After
     * a return of X > now, the caller must not tick this core again
     * until cycle X (it already ran), and may treat it as quiescent
     * with no stall accrual in between.
     */
    Cycles runAhead(Cycles now, Cycles end, std::uint64_t commit_cap);

    ThreadId threadId() const { return id_; }
    std::uint64_t instructionsCommitted() const { return committed_; }
    /** Cycles in which the oldest instruction was an unfinished L2-miss
     *  load (the Tshared counter of Section 3.2.1). */
    Cycles memStallCycles() const { return memStall_; }
    /** Demand L2 misses (distinct lines; MSHR allocations). */
    std::uint64_t l2Misses() const { return mshr_.allocations(); }
    std::uint64_t l1Hits() const { return l1_.hits(); }
    std::uint64_t l2Hits() const { return l2_.hits(); }
    /** MSHR entries currently allocated (misses in flight). */
    unsigned mshrInUse() const { return mshr_.inUse(); }
    const RunAheadStats &runAheadStats() const { return burstStats_; }

    /** Register this core's gauges/counters (core.t<id>.*) into the
     *  telemetry registry. */
    void registerTelemetry(TelemetryRegistry &registry);

  private:
    struct WindowEntry
    {
        Cycles readyAt = 0;
        bool memWait = false; ///< Still waiting on the DRAM data.
        bool l2Miss = false;  ///< Load that missed the L2 (for stall
                              ///< attribution, including the return-path
                              ///< overhead after the data arrives).
    };

    bool windowFull() const { return tail_ - head_ >= params_.windowSize; }
    WindowEntry &at(std::uint64_t pos)
    {
        return window_[pos & windowMask_];
    }
    bool entryDone(std::uint64_t pos, Cycles now) const
    {
        const WindowEntry &e = window_[pos & windowMask_];
        return !e.memWait && e.readyAt <= now;
    }

    /** The pending memory op is address-dependent on an L2-missing
     *  load still unfinished at @p now. */
    bool depBlocked(Cycles now) const
    {
        return pendingOp_.dependsOnPrev && lastMissPos_ != ~0ULL &&
               lastMissPos_ >= head_ && !entryDone(lastMissPos_, now);
    }
    /** Whether issuing the pending memory op would reach the memory
     *  system: a streaming store, a store missing the L2 and the MSHRs,
     *  or a load missing the L1, the L2 and the MSHRs. */
    bool memOpLeavesCore() const;

    void commit(Cycles now);
    /** @return false, with the memory op untouched, when @p burst and
     *  the pending memory op would leave the core (runAhead aborts). */
    bool fetch(Cycles now, bool burst);
    /** @return false if the memory op must retry next cycle. */
    bool issueMemOp(Cycles now);
    void handleFill(Addr line_addr, bool dirty, Cycles now);
    bool drainWritebacks();

    ThreadId id_;
    CoreParams params_;
    TraceSource &trace_;
    MemoryPort &memory_;

    Cache l1_;
    Cache l2_;
    MshrFile mshr_;

    std::vector<WindowEntry> window_;
    /** window_.size() - 1: position-to-slot mapping is a mask. The
     *  store's size is an invariant runAhead() relies on (see the
     *  constructor); capacity checks use params_.windowSize. */
    std::uint64_t windowMask_ = 0;
    std::uint64_t head_ = 0; ///< Position of the oldest instruction.
    std::uint64_t tail_ = 0; ///< Position one past the youngest.

    /** Trace decode state. */
    std::uint32_t aluCredit_ = 0;
    bool memPending_ = false;
    TraceOp pendingOp_;

    /** Position of the most recent load (for dependence stalls). */
    std::uint64_t lastLoadPos_ = ~0ULL;
    /** Position of the most recent L2-missing load: dependence chains
     *  serialize misses on each other (pointer chasing), not on
     *  interleaved cache-hitting loads. */
    std::uint64_t lastMissPos_ = ~0ULL;

    std::deque<Addr> pendingWritebacks_;
    std::vector<std::uint64_t> wakeScratch_;

    /** Fetch was blocked by a full MSHR file / request buffer last
     *  cycle; with an empty window this still counts as memory stall
     *  (the machine is drained waiting on outstanding misses). */
    bool fetchBlockedByMemory_ = false;

    std::uint64_t committed_ = 0;
    Cycles memStall_ = 0;
    RunAheadStats burstStats_;
};

} // namespace stfm

#endif // STFM_CPU_CORE_HH
