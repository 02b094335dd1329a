/**
 * @file
 * Per-thread, per-bank occupancy bookkeeping shared by all channels of a
 * memory system.
 *
 * This is the substrate behind two STFM registers from the paper's
 * Table 1:
 *  - BankWaitingParallelism: number of banks with at least one waiting
 *    request from the thread, and
 *  - BankAccessParallelism: number of banks currently servicing a
 *    request from the thread.
 *
 * Demand reads are tracked in two classes: *blocking* reads (a load is
 * stalled on them — they produce memory stall time) and non-blocking
 * fills (store misses / prefetch-like traffic that commits without
 * waiting). Interference accounting charges only blocking reads:
 * delaying a fill that nobody waits for produces no extra stall.
 * Writebacks are not tracked at all.
 */

#ifndef STFM_MEM_OCCUPANCY_HH
#define STFM_MEM_OCCUPANCY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace stfm
{

/** Tracks waiting/in-service read counts per (thread, global bank). */
class ThreadBankOccupancy
{
  public:
    ThreadBankOccupancy(unsigned threads, unsigned total_banks)
        : threads_(threads), banks_(total_banks),
          maskWords_((total_banks + 63) / 64),
          waiting_(threads * total_banks, 0),
          waitingBlocking_(threads * total_banks, 0),
          inService_(threads * total_banks, 0),
          bankInService_(total_banks, 0),
          blockingMask_(threads * maskWords_, 0),
          waitingBanksBlocking_(threads, 0), serviceBanks_(threads, 0),
          waitingTotal_(threads, 0)
    {}

    /** A read from @p t to @p bank entered the request buffer. */
    void
    onArrive(ThreadId t, unsigned bank, bool blocking)
    {
        ++waiting_[idx(t, bank)];
        if (blocking && waitingBlocking_[idx(t, bank)]++ == 0) {
            ++waitingBanksBlocking_[t];
            maskWord(t, bank) |= maskBit(bank);
        }
        ++waitingTotal_[t];
    }

    /** The read's column command issued: waiting -> in service. */
    void
    onColumnIssue(ThreadId t, unsigned bank, bool blocking)
    {
        STFM_ASSERT(waiting_[idx(t, bank)] > 0,
                    "occupancy underflow: column issue for thread %u bank %u "
                    "with no waiting read",
                    t, bank);
        --waiting_[idx(t, bank)];
        if (blocking && --waitingBlocking_[idx(t, bank)] == 0) {
            --waitingBanksBlocking_[t];
            maskWord(t, bank) &= ~maskBit(bank);
        }
        --waitingTotal_[t];
        if (inService_[idx(t, bank)]++ == 0)
            ++serviceBanks_[t];
        ++bankInService_[bank];
    }

    /** The read's data burst finished. */
    void
    onComplete(ThreadId t, unsigned bank)
    {
        STFM_ASSERT(inService_[idx(t, bank)] > 0,
                    "occupancy underflow: completion for thread %u bank %u "
                    "with no read in service",
                    t, bank);
        if (--inService_[idx(t, bank)] == 0)
            --serviceBanks_[t];
        --bankInService_[bank];
    }

    /** Banks with >= 1 waiting *blocking* read from @p t
     *  (BankWaitingParallelism). */
    unsigned bankWaitingParallelism(ThreadId t) const
    {
        return waitingBanksBlocking_[t];
    }

    /** Banks servicing a read from @p t (BankAccessParallelism). */
    unsigned bankAccessParallelism(ThreadId t) const
    {
        return serviceBanks_[t];
    }

    /** Waiting reads (any class) from @p t to @p bank. */
    unsigned waiting(ThreadId t, unsigned bank) const
    {
        return waiting_[idx(t, bank)];
    }

    /** Waiting blocking reads from @p t to @p bank. */
    unsigned waitingBlocking(ThreadId t, unsigned bank) const
    {
        return waitingBlocking_[idx(t, bank)];
    }

    /** Reads from @p t currently in service in @p bank. */
    unsigned inService(ThreadId t, unsigned bank) const
    {
        return inService_[idx(t, bank)];
    }

    /** Reads from all threads currently in service in @p bank. */
    unsigned bankInService(unsigned bank) const
    {
        return bankInService_[bank];
    }

    /**
     * The banks holding a waiting blocking read from @p t, as bitmask
     * words: bank g is bit g % 64 of word g / 64. The set bits are
     * exactly the banks bankWaitingParallelism(t) counts.
     */
    std::span<const std::uint64_t> blockingBanks(ThreadId t) const
    {
        return {blockingMask_.data() + std::size_t{t} * maskWords_,
                maskWords_};
    }

    /** Total waiting reads from @p t across all banks. */
    unsigned waitingTotal(ThreadId t) const { return waitingTotal_[t]; }

    unsigned threads() const { return threads_; }

  private:
    std::size_t idx(ThreadId t, unsigned bank) const
    {
        return static_cast<std::size_t>(t) * banks_ + bank;
    }
    std::uint64_t &maskWord(ThreadId t, unsigned bank)
    {
        return blockingMask_[std::size_t{t} * maskWords_ + bank / 64];
    }
    static std::uint64_t maskBit(unsigned bank)
    {
        return std::uint64_t{1} << (bank % 64);
    }

    unsigned threads_;
    unsigned banks_;
    unsigned maskWords_;
    std::vector<std::uint32_t> waiting_;
    std::vector<std::uint32_t> waitingBlocking_;
    std::vector<std::uint32_t> inService_;
    std::vector<std::uint32_t> bankInService_;
    std::vector<std::uint64_t> blockingMask_;
    std::vector<std::uint32_t> waitingBanksBlocking_;
    std::vector<std::uint32_t> serviceBanks_;
    std::vector<std::uint32_t> waitingTotal_;
};

} // namespace stfm

#endif // STFM_MEM_OCCUPANCY_HH
