/**
 * @file
 * Unit tests for the baseline scheduling policies (FR-FCFS, FCFS,
 * FR-FCFS+Cap) and the policy factory.
 */

#include <gtest/gtest.h>

#include "sched/fcfs.hh"
#include "sched/fr_fcfs.hh"
#include "sched/fr_fcfs_cap.hh"
#include "sched/policy.hh"

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

SchedContext
context()
{
    SchedContext ctx;
    ctx.numThreads = 4;
    ctx.banksPerChannel = 8;
    return ctx;
}

TEST(FrFcfs, ColumnBeatsRow)
{
    FrFcfsPolicy policy;
    const Request old_req = makeRequest(0, 1);
    const Request young_req = makeRequest(1, 9);
    const Candidate row{&old_req, DramCommand::Activate};
    const Candidate col{&young_req, DramCommand::Read};
    EXPECT_TRUE(policy.higherPriority(col, row, context()));
    EXPECT_FALSE(policy.higherPriority(row, col, context()));
}

TEST(FrFcfs, OldestBreaksTies)
{
    FrFcfsPolicy policy;
    const Request a = makeRequest(0, 1);
    const Request b = makeRequest(1, 2);
    const Candidate ca{&a, DramCommand::Read};
    const Candidate cb{&b, DramCommand::Read};
    EXPECT_TRUE(policy.higherPriority(ca, cb, context()));
    EXPECT_FALSE(policy.higherPriority(cb, ca, context()));
}

TEST(FrFcfs, WritesAreColumnsToo)
{
    FrFcfsPolicy policy;
    const Request w = makeRequest(0, 9);
    const Request r = makeRequest(1, 1);
    const Candidate cw{&w, DramCommand::Write};
    const Candidate cr{&r, DramCommand::Precharge};
    EXPECT_TRUE(policy.higherPriority(cw, cr, context()));
}

TEST(Fcfs, AgeOnly)
{
    FcfsPolicy policy;
    const Request old_req = makeRequest(0, 1);
    const Request young_req = makeRequest(1, 9);
    const Candidate row{&old_req, DramCommand::Precharge};
    const Candidate col{&young_req, DramCommand::Read};
    EXPECT_TRUE(policy.higherPriority(row, col, context()));
}

TEST(FrFcfsCap, BehavesLikeFrFcfsUnderCap)
{
    FrFcfsCapPolicy policy(4, 8);
    const Request old_req = makeRequest(0, 1);
    const Request young_req = makeRequest(1, 9);
    const Candidate row{&old_req, DramCommand::Activate};
    const Candidate col{&young_req, DramCommand::Read};
    EXPECT_TRUE(policy.higherPriority(col, row, context()));
}

TEST(FrFcfsCap, FallsBackToFcfsWhenCapReached)
{
    FrFcfsCapPolicy policy(2, 8);
    const SchedContext ctx = context();
    const Request old_req = makeRequest(0, 1, 3);
    const Request young_req = makeRequest(1, 9, 3);

    // Two bypasses charge the bank's budget.
    for (int i = 0; i < 2; ++i) {
        ColumnIssueEvent ev;
        ev.req = &young_req;
        ev.bypassedOlderRowAccess = true;
        policy.onColumnCommand(ev, ctx);
    }
    EXPECT_EQ(policy.bypassCount(3), 2u);

    const Candidate row{&old_req, DramCommand::Activate};
    const Candidate col{&young_req, DramCommand::Read};
    // Same bank: FCFS now, so the older row access wins.
    EXPECT_TRUE(policy.higherPriority(row, col, ctx));

    // An activate in the bank resets the budget.
    RowIssueEvent act;
    act.req = &old_req;
    act.cmd = DramCommand::Activate;
    act.bank = 3;
    policy.onRowCommand(act, ctx);
    EXPECT_EQ(policy.bypassCount(3), 0u);
    EXPECT_TRUE(policy.higherPriority(col, row, ctx));
}

TEST(FrFcfsCap, CapIsPerBank)
{
    FrFcfsCapPolicy policy(1, 8);
    const SchedContext ctx = context();
    const Request bypasser = makeRequest(1, 9, 2);
    ColumnIssueEvent ev;
    ev.req = &bypasser;
    ev.bypassedOlderRowAccess = true;
    policy.onColumnCommand(ev, ctx);

    const Request old_b2 = makeRequest(0, 1, 2);
    const Request young_b2 = makeRequest(1, 8, 2);
    const Candidate row2{&old_b2, DramCommand::Activate};
    const Candidate col2{&young_b2, DramCommand::Read};
    EXPECT_TRUE(policy.higherPriority(row2, col2, ctx)); // Capped.

    const Request old_b5 = makeRequest(0, 2, 5);
    const Request young_b5 = makeRequest(1, 7, 5);
    const Candidate row5{&old_b5, DramCommand::Activate};
    const Candidate col5{&young_b5, DramCommand::Read};
    EXPECT_TRUE(policy.higherPriority(col5, row5, ctx)); // Not capped.
}

TEST(Factory, CreatesEveryKind)
{
    for (const PolicyKind kind :
         {PolicyKind::FrFcfs, PolicyKind::Fcfs, PolicyKind::FrFcfsCap,
          PolicyKind::Nfq, PolicyKind::Stfm}) {
        SchedulerConfig config;
        config.kind = kind;
        const auto policy = makeSchedulingPolicy(config, 4, 8, 1);
        ASSERT_NE(policy, nullptr);
        EXPECT_FALSE(policy->name().empty());
    }
}

TEST(Factory, NamesAreDistinct)
{
    std::vector<std::string> names;
    for (const PolicyKind kind :
         {PolicyKind::FrFcfs, PolicyKind::Fcfs, PolicyKind::FrFcfsCap,
          PolicyKind::Nfq, PolicyKind::Stfm}) {
        SchedulerConfig config;
        config.kind = kind;
        names.push_back(makeSchedulingPolicy(config, 2, 8, 1)->name());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

} // namespace
} // namespace stfm
