#include "mem/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/session.hh"

namespace stfm
{

MemorySystem::MemorySystem(const MemoryConfig &config,
                           const SchedulerConfig &sched_config,
                           unsigned num_threads)
    : config_(config), numThreads_(num_threads),
      mapping_(config.channels, config.banksPerChannel, config.rowBytes,
               config.lineBytes, config.rowsPerBank,
               config.xorBankMapping, config.bankGroups),
      occupancy_(num_threads, config.channels * config.banksPerChannel),
      policy_(makeSchedulingPolicy(sched_config, num_threads,
                                   config.channels *
                                       config.banksPerChannel,
                                   config.channels))
{
    STFM_ASSERT(num_threads <= 32,
                "thread bitmasks limit the system to 32 threads "
                "(requested %u)",
                num_threads);
    for (ChannelId c = 0; c < config.channels; ++c) {
        controllers_.push_back(std::make_unique<MemoryController>(
            c, config.banksPerChannel, config.timing, config.controller,
            *policy_, occupancy_, num_threads, config.bankGroups));
    }
}

bool
MemorySystem::canAcceptRead(Addr addr) const
{
    return controllers_[mapping_.decode(addr).channel]->canAcceptRead();
}

bool
MemorySystem::canAcceptWrite(Addr addr) const
{
    return controllers_[mapping_.decode(addr).channel]->canAcceptWrite();
}

void
MemorySystem::issueRead(Addr addr, ThreadId thread, bool blocking)
{
    const AddrDecode coords = mapping_.decode(addr);
    controllers_[coords.channel]->enqueueRead(addr, coords, thread,
                                              blocking, cpuNow_,
                                              dramNow_);
}

void
MemorySystem::issueWrite(Addr addr, ThreadId thread)
{
    const AddrDecode coords = mapping_.decode(addr);
    controllers_[coords.channel]->enqueueWrite(addr, coords, thread,
                                               cpuNow_, dramNow_);
}

void
MemorySystem::noteEnqueueBlocked(Addr addr, ThreadId thread)
{
    const ChannelId channel = mapping_.decode(addr).channel;
    const RequestBuffer &buffer = controllers_[channel]->buffer();
    const unsigned total = buffer.readCount();
    if (total == 0)
        return;
    const double foreign =
        static_cast<double>(total - buffer.readCount(thread)) / total;
    policy_->onEnqueueBlocked(thread, foreign,
                              makeContext(channel, cpuNow_));
}

void
MemorySystem::setReadCallback(ReadCallback cb)
{
    for (auto &controller : controllers_)
        controller->setReadCallback(cb);
}

SchedContext
MemorySystem::makeContext(ChannelId channel, Cycles cpu_now) const
{
    SchedContext ctx;
    ctx.cpuNow = cpu_now;
    ctx.dramNow = dramNow_;
    ctx.channel = channel;
    ctx.numThreads = numThreads_;
    ctx.banksPerChannel = config_.banksPerChannel;
    ctx.cpuPerDram = config_.cpuPerDram();
    ctx.timing = &config_.timing;
    ctx.occupancy = &occupancy_;
    ctx.stallCycles = stallCycles_;
    return ctx;
}

void
MemorySystem::tick(Cycles cpu_now)
{
    cpuNow_ = cpu_now;
    if (cpu_now % config_.cpuPerDram() != 0)
        return;
    boundaryTick(cpu_now);
}

void
MemorySystem::boundaryTick(Cycles cpu_now)
{
    cpuNow_ = cpu_now;
    ++dramNow_;
    SchedContext ctx = makeContext(0, cpu_now);
    policy_->beginCycle(ctx);
    for (ChannelId c = 0; c < controllers_.size(); ++c) {
        ctx.channel = c;
        controllers_[c]->tick(ctx);
    }
}

void
MemorySystem::quiescentDramTick(Cycles cpu_now)
{
    cpuNow_ = cpu_now;
    ++dramNow_;
    policy_->beginCycle(makeContext(0, cpu_now));
}

void
MemorySystem::refreshWakeCache() const
{
    std::uint64_t gen = 0;
    for (const auto &controller : controllers_)
        gen += controller->stateGen();
    // Re-sweep when a scheduler-visible event occurred, or once the
    // cached bound's own cycle has executed (that tick either bumped
    // the generation by doing work, or proved itself a spurious wake —
    // in which case the fresh sweep lands strictly later).
    if (!wakeValid_ || gen != wakeGen_ ||
        (wakeDram_ != MemoryController::kNeverDram &&
         wakeDram_ <= dramNow_)) {
        DramCycles wake = MemoryController::kNeverDram;
        for (const auto &controller : controllers_) {
            wake = std::min(wake,
                            controller->nextInterestingCycle(dramNow_));
        }
        wakeDram_ = wake;
        wakeGen_ = gen;
        wakeValid_ = true;
    }
}

Cycles
MemorySystem::nextInterestingCpuCycle(Cycles now) const
{
    refreshWakeCache();
    // DRAM cycle W (> dramNow_) is reached at the (W - dramNow_)'th
    // DRAM boundary after the most recent one at or before `now`.
    if (wakeDram_ == MemoryController::kNeverDram)
        return kNever;
    const Cycles per = config_.cpuPerDram();
    const Cycles last_boundary = now / per * per;
    const DramCycles ahead = wakeDram_ - dramNow_;
    return ahead > (kNever - last_boundary) / per
               ? kNever // Saturate instead of overflowing.
               : last_boundary + ahead * per;
}

Cycles
MemorySystem::nextCompletionEffectCpuCycle(ThreadId t,
                                           Cycles first_boundary) const
{
    DramCycles finish = MemoryController::kNeverDram;
    bool queued = false;
    for (const auto &controller : controllers_) {
        finish = std::min(finish, controller->readCompletionMin(t));
        queued |= controller->queuedReads(t) != 0;
    }
    const Cycles per = config_.cpuPerDram();
    // Queued reads: earliest issue is the tick at first_boundary, and
    // finishAt strictly exceeds the issuing tick's DRAM cycle, so the
    // delivery boundary is at least the one after it.
    Cycles bound = queued ? first_boundary + per + 1 : kNever;
    if (finish != MemoryController::kNeverDram) {
        STFM_ASSERT(finish > dramNow_,
                    "pending completion overdue (finishAt %llu <= "
                    "dramNow %llu)",
                    static_cast<unsigned long long>(finish),
                    static_cast<unsigned long long>(dramNow_));
        const DramCycles ahead = finish - dramNow_ - 1;
        const Cycles delivery =
            ahead > (kNever - first_boundary) / per
                ? kNever // Saturate instead of overflowing.
                : first_boundary + ahead * per;
        if (delivery != kNever)
            bound = std::min(bound, delivery + 1);
    }
    return bound;
}

ControllerThreadStats
MemorySystem::threadStats(ThreadId thread) const
{
    ControllerThreadStats out;
    for (const auto &controller : controllers_) {
        const ControllerThreadStats &s = controller->threadStats(thread);
        out.readsServiced += s.readsServiced;
        out.writesServiced += s.writesServiced;
        out.rowHits += s.rowHits;
        out.rowClosed += s.rowClosed;
        out.rowConflicts += s.rowConflicts;
        out.writeRowHits += s.writeRowHits;
    }
    return out;
}

LatencyHistogram
MemorySystem::readLatency(ThreadId thread) const
{
    LatencyHistogram merged;
    for (const auto &controller : controllers_)
        merged.merge(controller->readLatency(thread));
    return merged;
}

void
MemorySystem::registerObservability(ObsSession &obs)
{
    for (ChannelId c = 0; c < controllers_.size(); ++c) {
        controllers_[c]->registerTelemetry(obs.registry(), &dramNow_);
        if (ChromeTraceWriter *trace = obs.trace()) {
            controllers_[c]->addChannelObserver(trace->channelTap(c));
            controllers_[c]->setDrainTap(trace->drainTap(c));
        }
    }
    policy_->registerTelemetry(obs.registry());
    if (ChromeTraceWriter *trace = obs.trace())
        policy_->setFairnessTap(trace->fairnessTap());
}

void
MemorySystem::auditDrained()
{
    for (auto &controller : controllers_)
        controller->auditDrained(dramNow_);
}

bool
MemorySystem::idle() const
{
    for (const auto &controller : controllers_) {
        if (!controller->idle())
            return false;
    }
    return true;
}

} // namespace stfm
