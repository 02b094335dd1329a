#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/telemetry.hh"

namespace stfm
{

Core::Core(ThreadId id, const CoreParams &params, TraceSource &trace,
           MemoryPort &memory)
    : id_(id), params_(params), trace_(trace), memory_(memory),
      l1_(params.l1), l2_(params.l2), mshr_(params.mshrs),
      window_(std::bit_ceil(std::uint64_t{params.windowSize} +
                            params.commitWidth))
{
    STFM_ASSERT(params.windowSize > 0, "window size must be positive");
    // The store is a power of two so slot lookup is a mask. It holds
    // windowSize + commitWidth entries so a cycle runAhead() rolls back
    // never overwrites a live slot: the cycle commits at most
    // commitWidth entries and then fills the window at most windowSize
    // past the new head, so every position it writes lies within
    // windowSize + commitWidth of the old head, where live and written
    // positions map to distinct slots.
    windowMask_ = window_.size() - 1;
}

void
Core::registerTelemetry(TelemetryRegistry &registry)
{
    registry.gauge(formatMessage("core.t%u.mshrOccupancy", id_),
                   "entries", "core",
                   [this] { return static_cast<double>(mshrInUse()); });
    registry.counter(formatMessage("core.t%u.stallCycles", id_),
                     "cpu-cycles", "core", [this] {
                         return static_cast<double>(memStallCycles());
                     });
    registry.counter(
        formatMessage("core.t%u.instructions", id_), "instructions",
        "core", [this] {
            return static_cast<double>(instructionsCommitted());
        });
    // "llc", not "l2": digits in series names are reserved for
    // instance indices (normalizeSeriesName folds them to <n>).
    registry.counter(formatMessage("core.t%u.llcMisses", id_),
                     "requests", "core", [this] {
                         return static_cast<double>(l2Misses());
                     });
}

void
Core::prewarmCaches(const std::vector<WarmLine> &lines)
{
    for (const WarmLine &line : lines) {
        // Overflowing sets silently drop their LRU victim: the warmup
        // happened "before time zero", so no writeback traffic results.
        l2_.fill(line.addr & ~(params_.l2.lineBytes - 1), line.dirty);
    }
}

bool
Core::tick(Cycles now)
{
    const std::uint64_t head_before = head_;
    const std::uint64_t tail_before = tail_;
    const bool drained = drainWritebacks();
    commit(now);
    fetch(now, /*burst=*/false);
    return drained || head_ != head_before || tail_ != tail_before;
}

Cycles
Core::nextEventCycle(Cycles now, bool &stalls,
                     bool &waits_capacity) const
{
    stalls = false;
    waits_capacity = false;

    // Writeback drain would hand a write to the controller.
    if (!pendingWritebacks_.empty()) {
        if (memory_.canAcceptWrite(pendingWritebacks_.front()))
            return now + 1;
        // The blocked drain resumes when the controller frees write
        // capacity — a memory-side event this core must be woken for.
        waits_capacity = true;
    }

    Cycles wake = kNever;

    // Commit side. A blocked oldest instruction accrues stall per
    // cycle exactly when it is an L2 miss (the Tshared rule); one
    // waiting on its cache latency wakes by itself at readyAt.
    if (head_ != tail_) {
        const WindowEntry &e = window_[head_ & windowMask_];
        if (!e.memWait && e.readyAt <= now + 1)
            return now + 1; // Commit progresses next cycle.
        stalls = e.l2Miss;
        if (!e.memWait)
            wake = e.readyAt;
        // memWait: only onReadComplete can wake it (external).
    } else {
        // Drained window: stall is attributed while fetch is blocked
        // on memory structures, mirroring commit().
        stalls = fetchBlockedByMemory_;
    }

    // Fetch side: would the first fetch-loop iteration make progress?
    if (windowFull())
        return wake; // Slots free only via commit (covered by wake).
    if (pendingWritebacks_.size() >= params_.maxPendingWritebacks)
        return wake; // Frees only via the drain (external).
    if (aluCredit_ > 0 || !memPending_)
        return now + 1; // Would fetch an ALU op / refill the trace.

    // A memory op is pending. Address dependence first; a producer
    // waiting on DRAM wakes only externally.
    if (depBlocked(now + 1)) {
        const WindowEntry &p = window_[lastMissPos_ & windowMask_];
        return p.memWait ? wake : std::min(wake, p.readyAt);
    }

    // Would issueMemOp() succeed? A cache hit, an MSHR merge or a
    // streaming store (write capacity was checked above) always does.
    const bool is_store = pendingOp_.kind == TraceOp::Kind::Store;
    if (!memOpLeavesCore() || (is_store && pendingOp_.nonTemporal))
        return now + 1;
    // A new miss needs a free MSHR, and a store fill request-buffer
    // room too; both free only externally (a completion frees an MSHR,
    // a column issue frees buffer capacity). A load's full-MSHR wait is
    // flagged as a capacity wait as well: a spurious capacity wake is
    // sound, a missed wake would not be.
    const Addr line = pendingOp_.addr & ~(params_.l1.lineBytes - 1);
    if (mshr_.full() || (is_store && !memory_.canAcceptRead(line))) {
        waits_capacity = true;
        return wake;
    }
    // A load locked out of a full request buffer retries every cycle
    // *with* a policy side effect (noteEnqueueBlocked); it must not be
    // skipped. A miss that can issue is progress outright.
    return now + 1;
}

bool
Core::memOpLeavesCore() const
{
    const Addr line = pendingOp_.addr & ~(params_.l1.lineBytes - 1);
    if (pendingOp_.kind == TraceOp::Kind::Store)
        return pendingOp_.nonTemporal ||
               (!l2_.probe(line) && !mshr_.has(line));
    return !l1_.probe(line) && !l2_.probe(line) && !mshr_.has(line);
}

void
Core::commit(Cycles now)
{
    for (unsigned n = 0; n < params_.commitWidth; ++n) {
        if (head_ == tail_) {
            // Drained window while fetch is blocked on memory
            // structures: the thread is stalled on its misses.
            if (n == 0 && fetchBlockedByMemory_)
                ++memStall_;
            return;
        }
        const WindowEntry &e = window_[head_ & windowMask_];
        if (e.memWait || e.readyAt > now) {
            // In-order commit is blocked. Attribute the stall to memory
            // only when the oldest instruction is an L2 miss (the
            // paper's Tshared rule).
            if (n == 0 && e.l2Miss)
                ++memStall_;
            return;
        }
        ++head_;
        ++committed_;
    }
}

bool
Core::fetch(Cycles now, bool burst)
{
    fetchBlockedByMemory_ = false;
    bool mem_op_fetched = false;
    for (unsigned n = 0; n < params_.fetchWidth; ++n) {
        if (windowFull())
            return true;
        if (pendingWritebacks_.size() >= params_.maxPendingWritebacks)
            return true; // Backpressure from the write path.

        // Refill the decode state from the trace.
        if (aluCredit_ == 0 && !memPending_) {
            pendingOp_ = trace_.next();
            aluCredit_ = pendingOp_.aluBefore;
            memPending_ = pendingOp_.kind != TraceOp::Kind::None;
        }

        if (aluCredit_ > 0) {
            WindowEntry &e = at(tail_);
            e.readyAt = now + 1;
            e.memWait = false;
            e.l2Miss = false;
            ++tail_;
            --aluCredit_;
            continue;
        }

        STFM_ASSERT(memPending_, "decode state exhausted");
        if (mem_op_fetched)
            return true; // At most one memory op per cycle (Table 2).
        if (depBlocked(now))
            return true; // Address-dependent load: wait for the producer.
        if (burst && memOpLeavesCore())
            return false;
        if (!issueMemOp(now)) {
            // Structural stall (MSHRs / request buffer full).
            fetchBlockedByMemory_ = true;
            return true;
        }
        mem_op_fetched = true;
        memPending_ = false;
    }
    return true;
}

bool
Core::issueMemOp(Cycles now)
{
    const Addr line = pendingOp_.addr & ~(params_.l1.lineBytes - 1);
    const bool is_store = pendingOp_.kind == TraceOp::Kind::Store;

    if (is_store && pendingOp_.nonTemporal) {
        // Streaming store: bypass the caches, write straight to DRAM.
        if (pendingWritebacks_.size() >= params_.maxPendingWritebacks)
            return false;
        if (memory_.canAcceptWrite(line))
            memory_.issueWrite(line, id_);
        else
            pendingWritebacks_.push_back(line);
        WindowEntry &e = at(tail_);
        e.readyAt = now + 1;
        e.memWait = false;
        e.l2Miss = false;
        ++tail_;
        return true;
    }

    if (is_store) {
        // Stores commit immediately (write buffering); the cache fill
        // happens in the background.
        if (!l2_.access(line, /*is_store=*/true)) {
            // Store fill: fetch the line, install dirty.
            const bool merged = mshr_.has(line);
            if (!merged) {
                if (mshr_.full() || !memory_.canAcceptRead(line))
                    return false;
                mshr_.allocate(line, MshrFile::kNoWaiter,
                               /*dirty_fill=*/true);
                memory_.issueRead(line, id_, /*blocking=*/false);
            } else {
                mshr_.allocate(line, MshrFile::kNoWaiter,
                               /*dirty_fill=*/true);
            }
        } else {
            l1_.access(line, /*is_store=*/false); // Keep L1 LRU warm.
        }
        WindowEntry &e = at(tail_);
        e.readyAt = now + 1;
        e.memWait = false;
        e.l2Miss = false;
        ++tail_;
        return true;
    }

    // Load path.
    WindowEntry &e = at(tail_);
    e.memWait = false;
    e.l2Miss = false;
    if (l1_.access(line, /*is_store=*/false)) {
        e.readyAt = now + params_.l1.latency;
    } else if (l2_.access(line, /*is_store=*/false)) {
        e.readyAt = now + params_.l1.latency + params_.l2.latency;
        l1_.fill(line, /*dirty=*/false); // L1 is write-through: clean.
    } else {
        // L2 miss: allocate or merge an MSHR and go to DRAM.
        const bool merged = mshr_.has(line);
        if (!merged) {
            if (mshr_.full())
                return false;
            if (!memory_.canAcceptRead(line)) {
                // Request buffer full: a wait the memory system should
                // see (it is usually full of other threads' requests).
                memory_.noteEnqueueBlocked(line, id_);
                return false;
            }
        }
        mshr_.allocate(line, tail_, /*dirty_fill=*/false);
        if (!merged)
            memory_.issueRead(line, id_, /*blocking=*/true);
        e.memWait = true;
        e.l2Miss = true;
        e.readyAt = kNever;
        lastMissPos_ = tail_;
    }
    lastLoadPos_ = tail_;
    ++tail_;
    return true;
}

void
Core::onReadComplete(Addr line_addr, Cycles now)
{
    bool dirty = false;
    wakeScratch_.clear();
    if (!mshr_.complete(line_addr, wakeScratch_, dirty))
        return; // Spurious (e.g. after a reset); ignore.
    handleFill(line_addr, dirty, now);
    for (const std::uint64_t pos : wakeScratch_) {
        if (pos < head_ || pos >= tail_)
            continue; // The waiter is gone (should not happen for loads).
        WindowEntry &e = at(pos);
        e.memWait = false;
        // The fixed controller/interconnect overhead is charged on the
        // return path.
        e.readyAt = now + params_.dramOverhead;
    }
}

void
Core::handleFill(Addr line_addr, bool dirty, Cycles now)
{
    (void)now;
    const Eviction victim = l2_.fill(line_addr, dirty);
    if (victim.valid) {
        l1_.invalidate(victim.addr); // Maintain inclusion.
        if (victim.dirty)
            pendingWritebacks_.push_back(victim.addr);
    }
    l1_.fill(line_addr, /*dirty=*/false);
}

Cycles
Core::runAhead(Cycles now, Cycles end, std::uint64_t commit_cap)
{
    // Eligibility, both O(1): no buffered writeback (drain traffic
    // interacts with controller write capacity every cycle) and no
    // memory-blocked fetch retry (that path has a per-cycle policy
    // side effect, noteEnqueueBlocked). With neither, tick()'s drain is
    // a no-op for the whole burst: only a streaming store (which aborts
    // the cycle) or a completion (kept out by @p end) can buffer a
    // writeback. Outstanding misses do NOT disqualify: executing in
    // their shadow is core-local as long as every burst cycle stays
    // stall-free (checked per cycle below) and no completion can land
    // inside the burst — which the caller guarantees by capping @p end
    // at the memory system's next interesting cycle while
    // mshrInUse() != 0 (see the header contract).
    if (!pendingWritebacks_.empty() || fetchBlockedByMemory_)
        return now;
    ++burstStats_.bursts;

    const unsigned F = params_.commitWidth;
    Cycles c = now;
    // `committed_ + commitWidth < commit_cap` keeps every executed
    // cycle strictly below the cap, so the caller's threshold scan can
    // never fire early off run-ahead state; the crossing cycle itself
    // runs through the normal tick() path.
    while (c < end && committed_ + F < commit_cap) {
        // Stall cycles stay outside bursts: when the oldest instruction
        // is a blocked L2 miss (in flight, merged, or still paying its
        // DRAM return-path overhead), this cycle would increment the
        // memory-stall counter — hand it back to the normal tick()
        // path, whose quiescence machinery accounts it exactly. Every
        // cycle that runs below therefore accrues no stall in commit().
        if (head_ != tail_) {
            const WindowEntry &h = window_[head_ & windowMask_];
            if (h.l2Miss && (h.memWait || h.readyAt > c))
                return c;
        }
        // Steady ALU stretch, in closed form (DESIGN.md, batch rule).
        // With equal widths, k >= F window entries and >= F banked ALU
        // credits, a cycle whose commit group (the oldest F entries) is
        // all done commits F and fetches F ALU slots: k stays put and
        // entry i commits at cycle c + i/F. A slot fetched inside the
        // stretch is done a cycle after its fetch and, as k >= F,
        // commits no earlier, so only the k entries present now can
        // end the stretch: at the first cycle whose group holds an
        // entry not done by then. ALU slots never touch the caches,
        // the trace decode state, lastLoadPos_ or lastMissPos_, so the
        // stretch reduces to bumping the counters and writing the last
        // min(k, nF) slots fetched — the ones still live at its end —
        // exactly as a cycle-by-cycle run would leave them.
        const std::uint64_t k = tail_ - head_;
        if (params_.fetchWidth == F && k >= F && aluCredit_ >= F) {
            // Per-cycle cap guard: committed_ + jF + F < cap for every
            // executed cycle j in [0, n).
            std::uint64_t n = std::min<std::uint64_t>(
                {aluCredit_ / F, end - c, (commit_cap - committed_ - 1) / F});
            const std::uint64_t scan = std::min(k, n * F);
            Cycles due = c; // Commit cycle of entry i.
            unsigned lane = 0;
            for (std::uint64_t i = 0; i < scan; ++i) {
                const WindowEntry &e = window_[(head_ + i) & windowMask_];
                if (e.memWait || e.readyAt > due) {
                    n = due - c;
                    break;
                }
                if (++lane == F) {
                    lane = 0;
                    ++due;
                }
            }
            if (n > 0) {
                const std::uint64_t slots = n * F;
                const std::uint64_t live = std::min(k, slots);
                head_ += slots;
                tail_ += slots;
                committed_ += slots;
                aluCredit_ -= static_cast<std::uint32_t>(slots);
                // Stretch slot s was fetched at cycle c + s/F; the live
                // ones are s in [slots - live, slots).
                const std::uint64_t first = slots - live;
                Cycles ready = c + 1 + first / F;
                lane = static_cast<unsigned>(first % F);
                for (std::uint64_t p = tail_ - live; p != tail_; ++p) {
                    WindowEntry &e = window_[p & windowMask_];
                    e.readyAt = ready;
                    e.memWait = false;
                    e.l2Miss = false;
                    if (++lane == F) {
                        lane = 0;
                        ++ready;
                    }
                }
                c += n;
                burstStats_.batchedCycles += n;
                continue;
            }
        }

        const std::uint64_t head0 = head_;
        const std::uint64_t tail0 = tail_;
        const std::uint64_t committed0 = committed_;
        commit(c);
        ++burstStats_.steppedCycles;
        if (!fetch(c, /*burst=*/true)) {
            // The memory op would leave the core: roll the cycle back
            // for tick() to rerun. fetch() stopped before touching it,
            // so only ALU slots were taken; return their anonymous
            // credits. Their slot writes need no undo — the window
            // store's slack keeps them off every live slot (see the
            // constructor) — and trace decode state stays put, which is
            // exactly where the rerun lands.
            aluCredit_ += static_cast<std::uint32_t>(tail_ - tail0);
            head_ = head0;
            tail_ = tail0;
            committed_ = committed0;
            ++burstStats_.rollbacks;
            return c;
        }

        if (committed_ == committed0 && tail_ == tail0) {
            // Idle cycle: nothing commits or fetches until some
            // readyAt arrives — the head's, or the producer's of an
            // address-dependent memory op that stopped fetch — and idle
            // cycles in a burst are stall-free no-ops. Jump straight to
            // the earliest unblocking time; if every blocker waits on
            // DRAM, end the burst — only an external completion can
            // revive the core.
            Cycles unblock = kNever;
            if (head_ != tail_) {
                const WindowEntry &h = window_[head_ & windowMask_];
                if (!h.memWait)
                    unblock = h.readyAt;
            }
            if (!windowFull() && depBlocked(c)) {
                const WindowEntry &p =
                    window_[lastMissPos_ & windowMask_];
                if (!p.memWait)
                    unblock = std::min(unblock, p.readyAt);
            }
            if (unblock == kNever)
                return c;
            c = std::min(unblock, end);
            continue;
        }
        ++c;
    }
    return c;
}

bool
Core::drainWritebacks()
{
    bool drained = false;
    while (!pendingWritebacks_.empty() &&
           memory_.canAcceptWrite(pendingWritebacks_.front())) {
        memory_.issueWrite(pendingWritebacks_.front(), id_);
        pendingWritebacks_.pop_front();
        drained = true;
    }
    return drained;
}

} // namespace stfm
