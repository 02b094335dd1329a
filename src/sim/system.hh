/**
 * @file
 * The CMP system: N trace-driven cores sharing one multi-channel DRAM
 * memory system through the scheduling policy under test.
 *
 * Following the paper's methodology (Section 6), each thread runs a
 * fixed instruction budget; its statistics freeze the cycle it commits
 * the budget, but the thread keeps executing so that the remaining
 * threads continue to see its interference. The run ends when every
 * thread's stats are frozen.
 */

#ifndef STFM_SIM_SYSTEM_HH
#define STFM_SIM_SYSTEM_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "obs/session.hh"
#include "sim/config.hh"
#include "sim/results.hh"
#include "trace/trace.hh"

namespace stfm
{

/**
 * Indexed binary min-heap of per-core due cycles. Keyed on
 * (due, thread): ties break toward the lower thread index so that
 * cores waking on the same cycle are processed in the exact order the
 * cycle-by-cycle reference ticks them (core-to-memory enqueue order is
 * architecturally visible through the request buffer).
 */
class WakeHeap
{
  public:
    /** (Re)build the heap with @p n cores, all due at cycle 0. */
    void
    reset(unsigned n)
    {
        heap_.resize(n);
        pos_.resize(n);
        for (unsigned t = 0; t < n; ++t) {
            heap_[t] = {0, t};
            pos_[t] = t;
        }
    }

    Cycles minDue() const { return heap_[0].due; }
    unsigned minThread() const { return heap_[0].thread; }

    /** Move core @p t's due cycle (either direction). */
    void
    setDue(unsigned t, Cycles due)
    {
        unsigned i = pos_[t];
        const Cycles old = heap_[i].due;
        heap_[i].due = due;
        if (due < old)
            siftUp(i);
        else if (due > old)
            siftDown(i);
    }

  private:
    struct Slot
    {
        Cycles due;
        unsigned thread;
    };

    bool
    before(const Slot &a, const Slot &b) const
    {
        return a.due != b.due ? a.due < b.due : a.thread < b.thread;
    }

    void
    place(unsigned i, Slot s)
    {
        heap_[i] = s;
        pos_[s.thread] = i;
    }

    void
    siftUp(unsigned i)
    {
        const Slot s = heap_[i];
        while (i > 0) {
            const unsigned parent = (i - 1) / 2;
            if (!before(s, heap_[parent]))
                break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, s);
    }

    void
    siftDown(unsigned i)
    {
        const Slot s = heap_[i];
        const unsigned n = static_cast<unsigned>(heap_.size());
        for (;;) {
            unsigned child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                ++child;
            if (!before(heap_[child], s))
                break;
            place(i, heap_[child]);
            i = child;
        }
        place(i, s);
    }

    std::vector<Slot> heap_;
    std::vector<unsigned> pos_; ///< thread -> heap index
};

class CmpSystem
{
  public:
    /**
     * @param config System configuration; `config.cores` must equal
     *               `traces.size()`.
     * @param traces One instruction stream per core.
     */
    CmpSystem(const SimConfig &config,
              std::vector<std::unique_ptr<TraceSource>> traces);

    /** Run to completion (all budgets met or the cycle limit). */
    SimResult run();

    MemorySystem &memory() { return memory_; }
    const SimConfig &config() const { return config_; }

    /**
     * The observability session, or null when telemetry and tracing
     * are both disabled. Documents are valid after run() returns
     * (finalize happens in run's epilogue).
     */
    const ObsSession *obs() const { return obs_.get(); }

    /** Core::runAhead() work counts summed over the cores; all zero
     *  on the reference path, which never bursts. */
    RunAheadStats runAheadStats() const;

  private:
    /** Counter snapshot taken when a thread finishes its warmup. */
    struct WarmSnapshot
    {
        bool taken = false;
        std::uint64_t instructions = 0;
        Cycles cycle = 0;
        Cycles memStall = 0;
        std::uint64_t l2Misses = 0;
        ControllerThreadStats memStats;
    };

    void snapshotThread(unsigned t, Cycles now);
    void freezeThread(unsigned t, Cycles now, SimResult &result);

    /**
     * The cumulative memory-stall counter core @p t would show after a
     * cycle-by-cycle run ticked it at cycle @p c. Stall accrual is
     * lazy: a sleeping, stalling core's counter is materialized only
     * when visited (see stallAnchor_), so reads in between — the
     * per-boundary stall snapshot STFM consumes — extrapolate from the
     * anchor instead.
     */
    Cycles
    stallAt(unsigned t, Cycles c) const
    {
        return cores_[t]->memStallCycles() +
               (coreStalls_[t] ? c - stallAnchor_[t] : 0);
    }

    SimConfig config_;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    MemorySystem memory_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Null unless config_.telemetry.collecting() — the hot path pays
     *  one null check per executed DRAM boundary when disabled. */
    std::unique_ptr<ObsSession> obs_;
    std::vector<Cycles> stallSnapshot_;
    std::vector<bool> frozen_;
    std::vector<WarmSnapshot> warm_;
    /**
     * The event model: each core sleeps until its due cycle. due = the
     * core's exact quiescence wake (Core::nextEventCycle) after a
     * progress-free tick, now + 1 after a progressing tick, or the end
     * of a Core::runAhead() burst (those cycles already executed).
     * Sleeps are cut short by the core's own read completions (the
     * callback re-arms the core for the next cycle) and — for cores
     * whose sleep depends on memory capacity (coreWaitsCap_) — by a
     * column issue during a boundary tick (coreEventGenSeen_). The
     * global clock jumps to min(heap, memory's next interesting cycle).
     */
    WakeHeap wake_;
    /** Sleeping core t accrues one stall cycle per slept cycle. */
    std::vector<char> coreStalls_;
    /** Core t's sleep must end early if controller capacity frees. */
    std::vector<char> coreWaitsCap_;
    /**
     * Lazy stall accrual: core t's memStallCycles() is accurate as of
     * its post-tick state at cycle stallAnchor_[t]; each later slept
     * cycle owes one stall iff coreStalls_[t]. Materialized when the
     * core is next visited, when a completion callback fires, and at
     * loop exit. stallAt() reads the counter without materializing.
     */
    std::vector<Cycles> stallAnchor_;
    std::uint64_t coreEventGenSeen_ = 0;
    /** Max cycles a single runAhead() burst may cover. Bounds wasted
     *  work past the (unknowable in advance) end of the run; large
     *  enough that burst re-entry cost is noise. */
    static constexpr Cycles kRunAheadChunk = 65536;
    Cycles cpuNow_ = 0;

    /** Committed-instruction count at which core @p t next crosses a
     *  snapshot/freeze threshold (run-ahead must stop short of it). */
    std::uint64_t commitCap(unsigned t) const
    {
        if (!warm_[t].taken)
            return config_.warmupInstructions;
        if (!frozen_[t])
            return config_.warmupInstructions +
                   config_.instructionBudget;
        return ~0ULL;
    }
};

} // namespace stfm

#endif // STFM_SIM_SYSTEM_HH
