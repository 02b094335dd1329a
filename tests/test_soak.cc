/**
 * @file
 * Randomized soak tests: every scheduling policy is driven with
 * thousands of random requests and must uphold the controller's
 * system-level invariants:
 *
 *  - conservation: every accepted read eventually completes, exactly
 *    once (no lost or duplicated requests);
 *  - legality: no DRAM timing constraint is ever violated (the channel
 *    panics on illegal issues, so merely surviving the run checks it);
 *  - forward progress: the controller never wedges while work remains.
 *
 * The full integrity layer rides along in throw mode: the shadow
 * protocol checker revalidates every DRAM command independently of the
 * device model, and the request auditor cross-checks the conservation
 * bookkeeping (any violation aborts the test via CheckFailure).
 *
 * The per-policy runs are parameterized (TEST_P) so a failure names
 * the offending policy directly.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "dram/address_mapping.hh"
#include "mem/controller.hh"
#include "sched/policy.hh"

namespace stfm
{
namespace
{

class PolicySoak : public ::testing::TestWithParam<PolicyKind>
{};

TEST_P(PolicySoak, ConservationAndLegalityUnderRandomTraffic)
{
    constexpr unsigned kThreads = 6;
    constexpr unsigned kBanks = 8;
    constexpr unsigned kReads = 3000;

    DramTiming timing;
    ControllerParams params;
    params.refreshEnabled = true; // Soak the refresh machinery too.
    params.integrity = IntegrityConfig::full();
    SchedulerConfig sched_config;
    sched_config.kind = GetParam();
    const auto policy =
        makeSchedulingPolicy(sched_config, kThreads, kBanks, 1);
    ThreadBankOccupancy occupancy(kThreads, kBanks);
    MemoryController controller(0, kBanks, timing, params, *policy,
                                occupancy, kThreads);
    AddressMapping mapping(1, kBanks, 16 * 1024, 64, 16 * 1024, true);

    std::multiset<Addr> outstanding;
    std::uint64_t completed = 0;
    controller.setReadCallback([&](const Request &req) {
        const auto it = outstanding.find(req.addr);
        ASSERT_NE(it, outstanding.end())
            << "completion for an unknown/duplicated request";
        outstanding.erase(it);
        ++completed;
    });

    std::vector<Cycles> stalls(kThreads, 0);
    SchedContext ctx;
    ctx.numThreads = kThreads;
    ctx.banksPerChannel = kBanks;
    ctx.timing = &timing;
    ctx.occupancy = &occupancy;
    ctx.stallCycles = &stalls;

    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
    unsigned issued_reads = 0;
    DramCycles now = 0;
    std::set<Addr> used; // Distinct lines: keep conservation exact.

    while ((completed < kReads || !controller.idle()) &&
           now < 4'000'000) {
        ++now;
        ctx.dramNow = now;
        ctx.cpuNow = now * 10;
        for (auto &s : stalls)
            s += rng.nextBelow(10); // Plausible rising stall counters.

        // Bursty random arrivals: reads and writebacks.
        if (issued_reads < kReads && rng.nextBool(0.4)) {
            AddrDecode coords;
            coords.bank = static_cast<BankId>(rng.nextBelow(kBanks));
            coords.row = static_cast<RowId>(rng.nextBelow(512));
            coords.column =
                static_cast<ColumnId>(rng.nextBelow(256));
            const Addr addr = mapping.compose(coords);
            if (rng.nextBool(0.25)) {
                if (controller.canAcceptWrite()) {
                    controller.enqueueWrite(
                        addr, coords,
                        static_cast<ThreadId>(rng.nextBelow(kThreads)),
                        ctx.cpuNow, now);
                }
            } else if (controller.canAcceptRead() &&
                       used.insert(addr).second) {
                controller.enqueueRead(
                    addr, coords,
                    static_cast<ThreadId>(rng.nextBelow(kThreads)),
                    rng.nextBool(0.8), ctx.cpuNow, now);
                outstanding.insert(addr);
                ++issued_reads;
            }
        }
        policy->beginCycle(ctx);
        controller.tick(ctx);
    }

    EXPECT_EQ(completed, issued_reads);
    EXPECT_TRUE(outstanding.empty());
    EXPECT_TRUE(controller.idle());
    EXPECT_LT(now, 4'000'000u) << "controller failed to make progress";
    // Refresh actually exercised during the soak.
    EXPECT_GT(controller.channel().stats().refreshes, 0u);

    // The shadow checker saw (and revalidated) the whole command
    // stream, and the auditor agrees nothing leaked.
    ASSERT_NE(controller.protocolChecker(), nullptr);
    EXPECT_GT(controller.protocolChecker()->commandsChecked(),
              static_cast<std::uint64_t>(kReads));
    ASSERT_NE(controller.auditor(), nullptr);
    EXPECT_EQ(controller.auditor()->outstanding(), 0u);
    EXPECT_GE(controller.auditor()->completed(), completed);
    controller.auditDrained(now); // Throws on any leaked request.
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySoak,
    ::testing::Values(PolicyKind::FrFcfs, PolicyKind::Fcfs,
                      PolicyKind::FrFcfsCap, PolicyKind::Nfq,
                      PolicyKind::Stfm),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        switch (info.param) {
          case PolicyKind::FrFcfs: return "FrFcfs";
          case PolicyKind::Fcfs: return "Fcfs";
          case PolicyKind::FrFcfsCap: return "FrFcfsCap";
          case PolicyKind::Nfq: return "Nfq";
          case PolicyKind::Stfm: return "Stfm";
        }
        return "Unknown";
    });

} // namespace
} // namespace stfm
