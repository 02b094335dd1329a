/**
 * @file
 * Unit tests for the trace-driven core: commit/stall accounting, cache
 * interaction, MLP and dependence serialization, writeback flow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "cpu/core.hh"

namespace stfm
{
namespace
{

/** Scripted trace: replays a fixed op list, then idles. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceOp> ops) : ops_(std::move(ops))
    {}

    TraceOp
    next() override
    {
        if (cursor_ < ops_.size())
            return ops_[cursor_++];
        TraceOp idle;
        idle.kind = TraceOp::Kind::None;
        idle.aluBefore = 1000;
        return idle;
    }

  private:
    std::vector<TraceOp> ops_;
    std::size_t cursor_ = 0;
};

/** Memory stub with a fixed latency and full visibility. */
class StubMemory : public MemoryPort
{
  public:
    bool canAcceptRead(Addr) const override { return acceptReads; }
    bool canAcceptWrite(Addr) const override { return acceptWrites; }

    void
    issueRead(Addr addr, ThreadId, bool blocking) override
    {
        reads.push_back({addr, blocking});
    }

    void
    issueWrite(Addr addr, ThreadId) override
    {
        writes.push_back(addr);
    }

    void
    noteEnqueueBlocked(Addr, ThreadId) override
    {
        ++blockedNotes;
    }

    struct Issued
    {
        Addr addr;
        bool blocking;
    };
    std::vector<Issued> reads;
    std::vector<Addr> writes;
    unsigned blockedNotes = 0;
    bool acceptReads = true;
    bool acceptWrites = true;
};

TraceOp
loadOp(Addr addr, std::uint32_t alu = 0, bool dep = false)
{
    TraceOp op;
    op.kind = TraceOp::Kind::Load;
    op.addr = addr;
    op.aluBefore = alu;
    op.dependsOnPrev = dep;
    return op;
}

TraceOp
storeOp(Addr addr, bool non_temporal = false)
{
    TraceOp op;
    op.kind = TraceOp::Kind::Store;
    op.addr = addr;
    op.nonTemporal = non_temporal;
    return op;
}

void
run(Core &core, Cycles from, Cycles to)
{
    for (Cycles c = from; c < to; ++c)
        core.tick(c);
}

TEST(Core, AluOnlyCommitsAtFullWidth)
{
    ScriptedTrace trace({});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 101);
    // 3-wide minus the 1-cycle completion pipeline warmup.
    EXPECT_GE(core.instructionsCommitted(), 295u);
    EXPECT_EQ(core.memStallCycles(), 0u);
}

TEST(Core, LoadMissGoesToDramAndStalls)
{
    ScriptedTrace trace({loadOp(0x100000)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 50);
    ASSERT_EQ(memory.reads.size(), 1u);
    EXPECT_TRUE(memory.reads[0].blocking);
    EXPECT_GT(core.memStallCycles(), 30u); // Stalled since the miss.
    EXPECT_EQ(core.l2Misses(), 1u);

    // Completion wakes the load after the return-path overhead.
    core.onReadComplete(memory.reads[0].addr, 50);
    run(core, 50, 50 + CoreParams{}.dramOverhead + 5);
    EXPECT_GT(core.instructionsCommitted(), 0u);
}

TEST(Core, StallAttributedOnlyWhileMissAtHead)
{
    // 60 ALU instructions before the load: no stall while the commit
    // stream still has ALU work (~20 cycles at 3-wide).
    ScriptedTrace trace({loadOp(0x100000, 60)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 15); // ALU work only so far.
    EXPECT_EQ(core.memStallCycles(), 0u);
    run(core, 15, 80);
    EXPECT_GT(core.memStallCycles(), 20u);
}

TEST(Core, SecondAccessToLineHitsCache)
{
    // Enough ALU padding that the second load is fetched after the
    // first one's fill has landed in the caches.
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x100000, 600)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 10);
    ASSERT_EQ(memory.reads.size(), 1u);
    core.onReadComplete(memory.reads[0].addr, 10);
    run(core, 10, 400);
    EXPECT_EQ(memory.reads.size(), 1u); // Second load hit the L1/L2.
    EXPECT_GE(core.l1Hits() + core.l2Hits(), 1u);
}

TEST(Core, ConcurrentAccessToSameMissMerges)
{
    // A second load to an in-flight line merges into the MSHR and does
    // not issue another DRAM read.
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x100000, 1)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 20);
    EXPECT_EQ(memory.reads.size(), 1u);
    core.onReadComplete(memory.reads[0].addr, 20);
    run(core, 20, 120);
    EXPECT_GT(core.instructionsCommitted(), 1u); // Both woke up.
}

TEST(Core, IndependentMissesOverlap)
{
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x200000, 1)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 20);
    EXPECT_EQ(memory.reads.size(), 2u); // Both in flight together.
}

TEST(Core, DependentMissSerializes)
{
    ScriptedTrace trace(
        {loadOp(0x100000), loadOp(0x200000, 1, /*dep=*/true)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 30);
    EXPECT_EQ(memory.reads.size(), 1u); // Second waits on the first.
    core.onReadComplete(memory.reads[0].addr, 30);
    run(core, 30, 120);
    EXPECT_EQ(memory.reads.size(), 2u);
}

TEST(Core, StoreMissFetchesNonBlockingFill)
{
    ScriptedTrace trace({storeOp(0x300000)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 30);
    ASSERT_EQ(memory.reads.size(), 1u);
    EXPECT_FALSE(memory.reads[0].blocking);
    EXPECT_EQ(core.memStallCycles(), 0u); // Stores do not stall.
    EXPECT_GT(core.instructionsCommitted(), 0u);
}

TEST(Core, NonTemporalStoreWritesDirectly)
{
    ScriptedTrace trace({storeOp(0x400000, /*non_temporal=*/true)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 10);
    EXPECT_TRUE(memory.reads.empty());
    ASSERT_EQ(memory.writes.size(), 1u);
    EXPECT_EQ(memory.writes[0], 0x400000u);
}

TEST(Core, DirtyFillEvictionWritesBack)
{
    // Fill enough distinct dirty lines through one L2 set to force a
    // dirty eviction. L2: 1024 sets, so lines 64 B * 1024 sets apart
    // collide in set 0.
    std::vector<TraceOp> ops;
    const Addr stride = 64 * 1024; // Same L2 set, different tags.
    for (int i = 0; i < 10; ++i)
        ops.push_back(storeOp(0x10000000 + i * stride));
    ScriptedTrace trace(ops);
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 50);
    // Complete the fills so evictions can happen.
    for (unsigned i = 0; i < memory.reads.size(); ++i)
        core.onReadComplete(memory.reads[i].addr, 60 + i);
    run(core, 100, 200);
    EXPECT_GE(memory.writes.size(), 1u); // Dirty victim written back.
}

TEST(Core, BlockedEnqueueNotifiesMemory)
{
    ScriptedTrace trace({loadOp(0x100000)});
    StubMemory memory;
    memory.acceptReads = false;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 20);
    EXPECT_TRUE(memory.reads.empty());
    EXPECT_GT(memory.blockedNotes, 0u);
}

TEST(Core, MshrFullStallsFetchWithoutNotify)
{
    CoreParams params;
    params.mshrs = 1;
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x200000, 1)});
    StubMemory memory;
    Core core(0, params, trace, memory);
    run(core, 0, 30);
    EXPECT_EQ(memory.reads.size(), 1u);
    EXPECT_EQ(memory.blockedNotes, 0u); // Self-limited, not interference.
}

TEST(Core, PrewarmMakesLinesResident)
{
    ScriptedTrace trace({loadOp(0x500000)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    core.prewarmCaches({{0x500000, false}});
    run(core, 0, 30);
    EXPECT_TRUE(memory.reads.empty()); // L2 hit thanks to the warmup.
}

TEST(Core, WindowLimitsMlp)
{
    // 128-entry window with 127 ALU ops between misses: at most two
    // misses can coexist.
    std::vector<TraceOp> ops;
    for (int i = 0; i < 6; ++i)
        ops.push_back(loadOp(0x100000 + i * 0x100000, 127));
    ScriptedTrace trace(ops);
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 120);
    EXPECT_LE(memory.reads.size(), 2u);
}

/** Reads issued since the last call, as completions @p latency
 *  cycles after @p now. */
void
scheduleCompletions(const StubMemory &memory, std::size_t &seen,
                    Cycles now, Cycles latency,
                    std::deque<std::pair<Cycles, Addr>> &due)
{
    for (; seen < memory.reads.size(); ++seen)
        due.emplace_back(now + latency, memory.reads[seen].addr);
}

TEST(Core, RunAheadMatchesTickingAtEveryWindowSize)
{
    // Each round: a miss fills the window behind it, then ALU stretches
    // with L2-hit and L1-hit loads (the round's four prewarmed lines,
    // each touched more than once) run at up to a full window.
    constexpr Addr kWarm = 0x800000;
    std::vector<TraceOp> ops;
    std::vector<WarmLine> warm;
    for (unsigned round = 0; round < 6; ++round) {
        ops.push_back(loadOp(0x1000000 + round * 0x100000, 2));
        for (unsigned i = 0; i < 10; ++i) {
            ops.push_back(
                loadOp(kWarm + round * 256 + (i % 4) * 64, 4 + 9 * i));
        }
        for (unsigned j = 0; j < 4; ++j)
            warm.push_back({kWarm + round * 256 + j * 64, false});
    }
    constexpr Cycles kLatency = 150;

    for (const unsigned window : {4u, 16u, 128u}) {
        SCOPED_TRACE("window " + std::to_string(window));
        CoreParams params;
        params.windowSize = window;
        ScriptedTrace trace_a(ops);
        ScriptedTrace trace_b(ops);
        StubMemory memory_a;
        StubMemory memory_b;
        Core a(0, params, trace_a, memory_a);
        Core b(0, params, trace_b, memory_b);
        a.prewarmCaches(warm);
        b.prewarmCaches(warm);

        // Core a ticks every cycle. Core b runs ahead the way
        // CmpSystem::run does: a burst from each cycle it is due,
        // capped while a miss is in flight so it ends on the cycle the
        // completion lands (data delivered at cycle C is observable
        // from C + 1), and a real tick when no burst can start.
        std::deque<std::pair<Cycles, Addr>> due_a;
        std::deque<std::pair<Cycles, Addr>> due_b;
        std::size_t seen_a = 0;
        std::size_t seen_b = 0;
        Cycles next_b = 0;
        unsigned synced = 0;
        for (Cycles c = 0; c < 4000; ++c) {
            a.tick(c);
            scheduleCompletions(memory_a, seen_a, c, kLatency, due_a);
            if (c >= next_b) {
                Cycles end = c + 512;
                if (b.mshrInUse() != 0) {
                    ASSERT_FALSE(due_b.empty());
                    end = std::min(end, due_b.front().first + 1);
                }
                next_b = b.runAhead(c, end, ~0ULL);
                if (next_b == c) {
                    b.tick(c);
                    next_b = c + 1;
                    scheduleCompletions(memory_b, seen_b, c, kLatency,
                                        due_b);
                }
            }
            for (; !due_a.empty() && due_a.front().first == c;
                 due_a.pop_front())
                a.onReadComplete(due_a.front().second, c);
            for (; !due_b.empty() && due_b.front().first == c;
                 due_b.pop_front()) {
                ASSERT_EQ(next_b, c + 1) << "burst ran past a completion";
                b.onReadComplete(due_b.front().second, c);
            }
            if (next_b == c + 1) {
                ++synced;
                ASSERT_EQ(a.instructionsCommitted(),
                          b.instructionsCommitted())
                    << "cycle " << c;
                ASSERT_EQ(a.memStallCycles(), b.memStallCycles())
                    << "cycle " << c;
            }
        }
        EXPECT_EQ(memory_a.reads.size(), 6u);
        EXPECT_EQ(memory_b.reads.size(), memory_a.reads.size());
        EXPECT_EQ(a.l1Hits(), b.l1Hits());
        EXPECT_EQ(a.l2Hits(), b.l2Hits());
        EXPECT_GT(synced, 100u);
        EXPECT_GT(b.runAheadStats().batchedCycles, 0u);
    }
}

} // namespace
} // namespace stfm
