/**
 * @file
 * Unit tests for the per-thread per-bank occupancy tracker.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hh"
#include "mem/occupancy.hh"

namespace stfm
{
namespace
{

TEST(Occupancy, LifecycleCounts)
{
    ThreadBankOccupancy occ(2, 4);
    occ.onArrive(0, 1, /*blocking=*/true);
    EXPECT_EQ(occ.waiting(0, 1), 1u);
    EXPECT_EQ(occ.waitingBlocking(0, 1), 1u);
    EXPECT_EQ(occ.waitingTotal(0), 1u);
    EXPECT_EQ(occ.bankWaitingParallelism(0), 1u);

    occ.onColumnIssue(0, 1, /*blocking=*/true);
    EXPECT_EQ(occ.waiting(0, 1), 0u);
    EXPECT_EQ(occ.bankWaitingParallelism(0), 0u);
    EXPECT_EQ(occ.inService(0, 1), 1u);
    EXPECT_EQ(occ.bankAccessParallelism(0), 1u);

    occ.onComplete(0, 1);
    EXPECT_EQ(occ.inService(0, 1), 0u);
    EXPECT_EQ(occ.bankAccessParallelism(0), 0u);
}

TEST(Occupancy, BankWaitingParallelismCountsBanksNotRequests)
{
    ThreadBankOccupancy occ(1, 4);
    occ.onArrive(0, 2, true);
    occ.onArrive(0, 2, true); // Second request, same bank.
    EXPECT_EQ(occ.bankWaitingParallelism(0), 1u);
    occ.onArrive(0, 3, true);
    EXPECT_EQ(occ.bankWaitingParallelism(0), 2u);
}

TEST(Occupancy, NonBlockingExcludedFromParallelism)
{
    ThreadBankOccupancy occ(1, 4);
    occ.onArrive(0, 0, /*blocking=*/false);
    EXPECT_EQ(occ.waiting(0, 0), 1u);
    EXPECT_EQ(occ.waitingBlocking(0, 0), 0u);
    EXPECT_EQ(occ.bankWaitingParallelism(0), 0u);
    // Still counted in the total (it occupies buffer space).
    EXPECT_EQ(occ.waitingTotal(0), 1u);
    occ.onColumnIssue(0, 0, false);
    EXPECT_EQ(occ.inService(0, 0), 1u);
}

TEST(Occupancy, ThreadsAreIndependent)
{
    ThreadBankOccupancy occ(3, 2);
    occ.onArrive(0, 0, true);
    occ.onArrive(2, 1, true);
    EXPECT_EQ(occ.waiting(0, 0), 1u);
    EXPECT_EQ(occ.waiting(1, 0), 0u);
    EXPECT_EQ(occ.waiting(2, 1), 1u);
    EXPECT_EQ(occ.bankWaitingParallelism(1), 0u);
}

TEST(Occupancy, ServiceBanksTrackDistinctBanks)
{
    ThreadBankOccupancy occ(1, 4);
    for (unsigned b = 0; b < 3; ++b) {
        occ.onArrive(0, b, true);
        occ.onColumnIssue(0, b, true);
    }
    EXPECT_EQ(occ.bankAccessParallelism(0), 3u);
    occ.onComplete(0, 1);
    EXPECT_EQ(occ.bankAccessParallelism(0), 2u);
}

TEST(Occupancy, BankInServiceSumsOverThreads)
{
    ThreadBankOccupancy occ(3, 4);
    for (ThreadId t = 0; t < 3; ++t) {
        occ.onArrive(t, 2, /*blocking=*/t != 1);
        occ.onColumnIssue(t, 2, t != 1);
    }
    EXPECT_EQ(occ.bankInService(2), 3u);
    EXPECT_EQ(occ.bankInService(1), 0u);
    occ.onComplete(1, 2);
    EXPECT_EQ(occ.bankInService(2), 2u);
}

TEST(Occupancy, BlockingBankMaskSpansEveryWord)
{
    // 130 banks: three mask words, the last one partial.
    ThreadBankOccupancy occ(2, 130);
    ASSERT_EQ(occ.blockingBanks(0).size(), 3u);
    occ.onArrive(1, 0, true);
    occ.onArrive(1, 64, true);
    occ.onArrive(1, 129, true);
    occ.onArrive(1, 70, /*blocking=*/false);
    EXPECT_EQ(occ.blockingBanks(1)[0], 1u);
    EXPECT_EQ(occ.blockingBanks(1)[1], 1u);
    EXPECT_EQ(occ.blockingBanks(1)[2], 2u);
    for (const std::uint64_t word : occ.blockingBanks(0))
        EXPECT_EQ(word, 0u);
    occ.onColumnIssue(1, 64, true);
    EXPECT_EQ(occ.blockingBanks(1)[1], 0u);
}

TEST(Occupancy, TotalsAndMasksTrackRandomTraffic)
{
    // Random arrivals, issues and completions against the per-(thread,
    // bank) counts the totals and masks summarize.
    constexpr unsigned kThreads = 5;
    constexpr unsigned kBanks = 96;
    ThreadBankOccupancy occ(kThreads, kBanks);
    struct Read
    {
        ThreadId thread;
        unsigned bank;
        bool blocking;
    };
    std::vector<Read> waiting;
    std::vector<Read> in_service;
    Rng rng(0x0cc);
    for (unsigned step = 0; step < 20000; ++step) {
        const std::uint64_t action = rng.nextBelow(3);
        if (action == 0 || waiting.empty()) {
            const Read r{static_cast<ThreadId>(rng.nextBelow(kThreads)),
                         static_cast<unsigned>(rng.nextBelow(kBanks)),
                         rng.nextBool(0.7)};
            occ.onArrive(r.thread, r.bank, r.blocking);
            waiting.push_back(r);
        } else if (action == 1) {
            const std::size_t i = rng.nextBelow(waiting.size());
            const Read r = waiting[i];
            waiting.erase(waiting.begin() + static_cast<long>(i));
            occ.onColumnIssue(r.thread, r.bank, r.blocking);
            in_service.push_back(r);
        } else if (!in_service.empty()) {
            const std::size_t i = rng.nextBelow(in_service.size());
            const Read r = in_service[i];
            in_service.erase(in_service.begin() + static_cast<long>(i));
            occ.onComplete(r.thread, r.bank);
        }

        for (unsigned g = 0; g < kBanks; ++g) {
            unsigned total = 0;
            for (ThreadId t = 0; t < kThreads; ++t)
                total += occ.inService(t, g);
            ASSERT_EQ(occ.bankInService(g), total) << "step " << step;
        }
        for (ThreadId t = 0; t < kThreads; ++t) {
            unsigned set = 0;
            const auto words = occ.blockingBanks(t);
            for (unsigned g = 0; g < kBanks; ++g) {
                const bool bit = (words[g / 64] >> (g % 64)) & 1;
                ASSERT_EQ(bit, occ.waitingBlocking(t, g) > 0)
                    << "step " << step << " thread " << t << " bank " << g;
            }
            for (const std::uint64_t word : words)
                set += static_cast<unsigned>(std::popcount(word));
            ASSERT_EQ(set, occ.bankWaitingParallelism(t));
        }
    }
}

} // namespace
} // namespace stfm
