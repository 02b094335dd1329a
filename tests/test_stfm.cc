/**
 * @file
 * Unit tests for the STFM policy: mode switching, Tmax prioritization,
 * weighted slowdowns and the interference hooks.
 */

#include <gtest/gtest.h>

#include "core/stfm.hh"
#include "mem/occupancy.hh"

namespace stfm
{
namespace
{

Request
makeRequest(ThreadId thread, std::uint64_t seq, BankId bank = 0)
{
    Request req;
    req.thread = thread;
    req.seq = seq;
    req.coords.bank = bank;
    return req;
}

class StfmTest : public ::testing::Test
{
  protected:
    StfmTest() : occupancy_(4, 8)
    {
        StfmParams params;
        params.alpha = 1.10;
        params.quantize = false;
        policy_ = std::make_unique<StfmPolicy>(params, 4, 8, 1);
        stall_.assign(4, 0);
    }

    SchedContext
    context(DramCycles now = 1)
    {
        SchedContext ctx;
        ctx.numThreads = 4;
        ctx.banksPerChannel = 8;
        ctx.timing = &timing_;
        ctx.occupancy = &occupancy_;
        ctx.stallCycles = &stall_;
        ctx.dramNow = now;
        ctx.cpuNow = now * 10;
        return ctx;
    }

    DramTiming timing_;
    ThreadBankOccupancy occupancy_;
    std::vector<Cycles> stall_;
    std::unique_ptr<StfmPolicy> policy_;
};

TEST_F(StfmTest, FrFcfsModeWhenFair)
{
    occupancy_.onArrive(0, 0, true);
    occupancy_.onArrive(1, 1, true);
    stall_ = {1000, 1000, 0, 0};
    policy_->beginCycle(context());
    EXPECT_FALSE(policy_->fairnessMode());
    EXPECT_NEAR(policy_->unfairness(), 1.0, 1e-9);

    // FR-FCFS rules apply: column beats row regardless of thread.
    const Request a = makeRequest(0, 1);
    const Request b = makeRequest(1, 9);
    const Candidate row{&a, DramCommand::Activate};
    const Candidate col{&b, DramCommand::Read};
    EXPECT_TRUE(policy_->higherPriority(col, row, context()));
}

TEST_F(StfmTest, FairnessModePrioritizesMostSlowedThread)
{
    occupancy_.onArrive(0, 0, true);
    occupancy_.onArrive(1, 1, true);
    stall_ = {1000, 1000, 0, 0};
    // Thread 1 suffered heavy interference: slowdown 2x.
    for (int i = 0; i < 50; ++i)
        ; // (interference injected below via the tracker path)
    // Inject via enqueue-blocked charges (1 CPU cycle each).
    for (int i = 0; i < 5000; ++i)
        policy_->onEnqueueBlocked(1, 0.1, context());
    policy_->beginCycle(context());
    ASSERT_TRUE(policy_->fairnessMode());
    EXPECT_EQ(policy_->hotThread(), 1u);

    // Tmax-first: even a row command from the hot thread beats a
    // column command from another.
    const Request cold = makeRequest(0, 1);
    const Request hot = makeRequest(1, 9);
    const Candidate col_cold{&cold, DramCommand::Read};
    const Candidate row_hot{&hot, DramCommand::Precharge};
    EXPECT_TRUE(policy_->higherPriority(row_hot, col_cold, context()));
}

TEST_F(StfmTest, ThreadsWithoutRequestsExcludedFromUnfairness)
{
    // Only thread 0 has outstanding requests; even with a huge
    // estimated slowdown there is no pair to be unfair to.
    occupancy_.onArrive(0, 0, true);
    stall_ = {10000, 0, 0, 0};
    for (int i = 0; i < 5000; ++i)
        policy_->onEnqueueBlocked(0, 1.0, context());
    policy_->beginCycle(context());
    EXPECT_FALSE(policy_->fairnessMode());
}

TEST_F(StfmTest, BusInterferenceChargedToReadyColumnLosers)
{
    // The per-event bus term is an ablation (off by default).
    StfmParams params;
    params.busInterference = true;
    params.quantize = false;
    StfmPolicy with_bus(params, 4, 8, 1);

    const Request req = makeRequest(0, 1, 2);
    ColumnIssueEvent ev;
    ev.req = &req;
    ev.serviceState = RowBufferState::Hit;
    ev.bankLatency = timing_.tCL;
    ev.readyColumnThreads = 0b0110; // Threads 1 and 2 lost the bus.
    with_bus.onColumnCommand(ev, context());
    const double tbus_cpu = timing_.burst * 10.0;
    EXPECT_DOUBLE_EQ(with_bus.tracker().interferenceCycles(1), tbus_cpu);
    EXPECT_DOUBLE_EQ(with_bus.tracker().interferenceCycles(2), tbus_cpu);
    EXPECT_DOUBLE_EQ(with_bus.tracker().interferenceCycles(3), 0.0);
    EXPECT_DOUBLE_EQ(with_bus.tracker().interferenceCycles(0), 0.0);

    // Default configuration: no per-event bus charge.
    policy_->onColumnCommand(ev, context());
    EXPECT_DOUBLE_EQ(policy_->tracker().interferenceCycles(1), 0.0);
}

TEST_F(StfmTest, PerCycleChargeWhenForeignOccupiesBank)
{
    // Thread 1 waits (blocking) in bank 0 while thread 0 is in service
    // there, and thread 1 accrued 10 stall cycles this DRAM cycle.
    occupancy_.onArrive(0, 0, true);
    occupancy_.onColumnIssue(0, 0, true);
    occupancy_.onArrive(1, 0, true);
    stall_[1] = 10;
    policy_->beginCycle(context());
    // One DRAM cycle = 10 CPU cycles; blocked/bwp = 1/1.
    EXPECT_DOUBLE_EQ(policy_->tracker().interferenceCycles(1), 10.0);
    EXPECT_EQ(policy_->chargedCycles(1), 1u);
    // The servicing thread itself is not charged.
    EXPECT_DOUBLE_EQ(policy_->tracker().interferenceCycles(0), 0.0);
}

TEST_F(StfmTest, NoChargeBehindOwnAccess)
{
    occupancy_.onArrive(0, 0, true);
    occupancy_.onColumnIssue(0, 0, true); // Own request in service,
    occupancy_.onArrive(0, 0, true);      // another waiting behind it.
    policy_->beginCycle(context());
    EXPECT_DOUBLE_EQ(policy_->tracker().interferenceCycles(0), 0.0);
}

TEST_F(StfmTest, BusOccupancyCountsAsInterference)
{
    // Thread 0's burst occupies the channel bus until cycle 20.
    const Request req = makeRequest(0, 1, 5);
    ColumnIssueEvent ev;
    ev.req = &req;
    ev.serviceState = RowBufferState::Hit;
    ev.bankLatency = timing_.tCL;
    ev.busBusyUntil = 20;
    policy_->onColumnCommand(ev, context(10));
    occupancy_.onArrive(1, 3, true); // Waiting in an idle bank...
    stall_[1] = 10;                  // ...and actually stalling.
    policy_->beginCycle(context(15));
    // ...but the shared bus is busy with thread 0: charged.
    EXPECT_GT(policy_->tracker().interferenceCycles(1), 0.0);
}

TEST_F(StfmTest, WeightsBiasPrioritization)
{
    StfmParams params;
    params.alpha = 1.10;
    params.quantize = false;
    params.weights = {1.0, 8.0, 1.0, 1.0};
    StfmPolicy weighted(params, 4, 8, 1);

    occupancy_.onArrive(0, 0, true);
    occupancy_.onArrive(1, 1, true);
    stall_ = {1000, 1000, 0, 0};
    // Equal raw interference, but thread 1's weight amplifies it.
    for (int i = 0; i < 100; ++i) {
        weighted.onEnqueueBlocked(0, 1.0, context());
        weighted.onEnqueueBlocked(1, 1.0, context());
    }
    weighted.beginCycle(context());
    ASSERT_TRUE(weighted.fairnessMode());
    EXPECT_EQ(weighted.hotThread(), 1u);
}

TEST_F(StfmTest, AlphaGovernsModeSwitch)
{
    StfmParams params;
    params.alpha = 100.0; // Effectively disables the fairness rule.
    params.quantize = false;
    StfmPolicy lenient(params, 4, 8, 1);
    occupancy_.onArrive(0, 0, true);
    occupancy_.onArrive(1, 1, true);
    stall_ = {1000, 1000, 0, 0};
    for (int i = 0; i < 5000; ++i)
        lenient.onEnqueueBlocked(1, 1.0, context());
    lenient.beginCycle(context());
    EXPECT_GT(lenient.unfairness(), 1.5);
    EXPECT_FALSE(lenient.fairnessMode()); // alpha too large to trigger.
}

} // namespace
} // namespace stfm
