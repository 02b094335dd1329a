#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace stfm
{

CmpSystem::CmpSystem(const SimConfig &config,
                     std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(config), traces_(std::move(traces)),
      memory_(config.memory, config.scheduler, config.cores),
      stallSnapshot_(config.cores, 0), frozen_(config.cores, false),
      warm_(config.cores), coreStalls_(config.cores, 0),
      coreWaitsCap_(config.cores, 0), stallAnchor_(config.cores, 0)
{
    STFM_ASSERT(traces_.size() == config.cores,
                "one trace per core required (%zu traces, %u cores)",
                traces_.size(), config.cores);
    std::vector<WarmLine> footprint;
    for (unsigned t = 0; t < config_.cores; ++t) {
        cores_.push_back(std::make_unique<Core>(t, config_.cpu,
                                                *traces_[t], memory_));
        traces_[t]->warmupFootprint(
            config_.cpu.l2.sizeBytes / config_.cpu.l2.lineBytes,
            footprint);
        cores_.back()->prewarmCaches(footprint);
    }
    memory_.setStallCounters(&stallSnapshot_);
    wake_.reset(config_.cores);
    memory_.setReadCallback([this](const Request &req) {
        const unsigned t = req.thread;
        // Completions fire during the boundary memory tick, after the
        // core's (possibly virtual) tick this cycle: settle the lazy
        // stall owed through cpuNow_ with the pre-completion stall
        // state, then re-arm the core — the completion mutated it, so
        // its cached wake no longer describes its state. A run-ahead
        // burst may have covered cpuNow_ itself but never cpuNow_ + 1
        // (bursts with misses in flight end before the completion's
        // first *observable* cycle), and every due <= cpuNow_ was
        // drained before this tick, so the re-arm below only ever
        // moves the core's wake earlier.
        if (coreStalls_[t]) {
            cores_[t]->skipStalledCycles(cpuNow_ - stallAnchor_[t]);
            coreStalls_[t] = 0;
        }
        stallAnchor_[t] = cpuNow_;
        cores_[t]->onReadComplete(req.addr, cpuNow_);
        wake_.setDue(t, cpuNow_ + 1);
    });
    if (config_.telemetry.collecting()) {
        obs_ = std::make_unique<ObsSession>(config_.telemetry,
                                            config_.memory.timing);
        memory_.registerObservability(*obs_);
        TelemetryRegistry &registry = obs_->registry();
        for (auto &core : cores_)
            core->registerTelemetry(registry);
        const auto engine = [&](const char *name, const char *unit,
                                std::uint64_t RunAheadStats::*field) {
            registry.counter(name, unit, "sim", [this, field] {
                return static_cast<double>(runAheadStats().*field);
            });
        };
        engine("sim.runAhead.bursts", "bursts", &RunAheadStats::bursts);
        engine("sim.runAhead.batchedCycles", "cpu-cycles",
               &RunAheadStats::batchedCycles);
        engine("sim.runAhead.steppedCycles", "cpu-cycles",
               &RunAheadStats::steppedCycles);
        engine("sim.runAhead.rollbacks", "cpu-cycles",
               &RunAheadStats::rollbacks);
        obs_->start(memory_.dramNow());
    }
}

RunAheadStats
CmpSystem::runAheadStats() const
{
    RunAheadStats total;
    for (const auto &core : cores_)
        total += core->runAheadStats();
    return total;
}

void
CmpSystem::snapshotThread(unsigned t, Cycles now)
{
    WarmSnapshot &w = warm_[t];
    const Core &core = *cores_[t];
    w.taken = true;
    w.instructions = core.instructionsCommitted();
    w.cycle = now;
    w.memStall = core.memStallCycles();
    w.l2Misses = core.l2Misses();
    w.memStats = memory_.threadStats(t);
}

void
CmpSystem::freezeThread(unsigned t, Cycles now, SimResult &result)
{
    const WarmSnapshot &w = warm_[t];
    ThreadResult &r = result.threads[t];
    const Core &core = *cores_[t];
    r.instructions = core.instructionsCommitted() - w.instructions;
    r.cycles = now + 1 - w.cycle;
    r.memStallCycles = core.memStallCycles() - w.memStall;
    r.l2Misses = core.l2Misses() - w.l2Misses;
    const ControllerThreadStats stats = memory_.threadStats(t);
    r.dramReads = stats.readsServiced - w.memStats.readsServiced;
    r.dramWrites = stats.writesServiced - w.memStats.writesServiced;
    r.rowHits = stats.rowHits - w.memStats.rowHits;
    r.rowClosed = stats.rowClosed - w.memStats.rowClosed;
    r.rowConflicts = stats.rowConflicts - w.memStats.rowConflicts;
    const LatencyHistogram latency = memory_.readLatency(t);
    r.readLatencyMean = latency.mean();
    r.readLatencyP50 = latency.quantile(0.5);
    r.readLatencyP99 = latency.quantile(0.99);
    r.readLatencyMax = latency.max();
    frozen_[t] = true;
}

SimResult
CmpSystem::run()
{
    SimResult result;
    result.threads.resize(config_.cores);

    unsigned active = config_.cores;
    const Cycles cpu_per_dram = config_.memory.cpuPerDram();
    // Only STFM consumes the per-boundary stall snapshots (through
    // SchedContext::stallCycles); skip refreshing them for the other
    // policies — they are pure overhead on every executed boundary.
    const bool stall_snapshots = memory_.policyNeedsPerCycleAccounting();

    // Next DRAM-boundary cycle, tracked incrementally so the hot loop
    // carries no divisions. Re-derived after every event jump.
    Cycles next_boundary = 0;

    wake_.reset(config_.cores);
    std::fill(coreStalls_.begin(), coreStalls_.end(), 0);
    std::fill(coreWaitsCap_.begin(), coreWaitsCap_.end(), 0);
    std::fill(stallAnchor_.begin(), stallAnchor_.end(), 0);

    cpuNow_ = 0;
    while (active > 0 && cpuNow_ < config_.maxCycles) {
        const bool boundary = cpuNow_ == next_boundary;
        if (boundary)
            next_boundary += cpu_per_dram;

        // Cores whose tick() ran this cycle. Only a tick can push a
        // core across a snapshot/freeze threshold: runAhead() stops
        // strictly below commitCap() and sleeping cores commit
        // nothing, so the threshold scan below covers exactly these
        // cores. 32 cores max (asserted by MemorySystem).
        std::uint32_t ticked = 0;
        if (config_.fastForward) {
            // Visit exactly the cores due this cycle, in thread order
            // (the heap tie-breaks on the index, preserving the
            // reference's core-to-memory enqueue order). Each visit
            // settles the core's lazy stall debt, then either bursts
            // ahead (the whole burst is stall-free and pre-executed) or
            // ticks for real; a progressing tick is assumed active
            // again next cycle (sound: early wakes are harmless), so
            // the exact wake is only computed on the first
            // progress-free tick.
            while (wake_.minDue() <= cpuNow_) {
                const unsigned t = wake_.minThread();
                if (coreStalls_[t]) {
                    cores_[t]->skipStalledCycles(cpuNow_ - 1 -
                                                 stallAnchor_[t]);
                    coreStalls_[t] = 0;
                }
                coreWaitsCap_[t] = 0;
                // Horizon-bounded so a never-missing (typically
                // frozen) core doesn't burn host time running all the
                // way to maxCycles when the run will end much sooner;
                // re-entry is O(1), so long streaks just chain bursts.
                Cycles horizon = std::min(config_.maxCycles,
                                          cpuNow_ + kRunAheadChunk);
                if (cores_[t]->mshrInUse() != 0) {
                    // In-flight misses make this core a completion
                    // target: the burst must end before the first
                    // cycle that could *observe* a completion for this
                    // thread. Data delivered at boundary B lands after
                    // the core's own cycle-B tick (same order as the
                    // reference), so the burst may cover B itself; and
                    // every due <= cpuNow_ is drained before this
                    // cycle's memory tick, so a callback at B only
                    // ever moves this core's wake earlier, never into
                    // already-executed cycles.
                    horizon = std::min(
                        horizon,
                        memory_.nextCompletionEffectCpuCycle(
                            t, boundary ? cpuNow_ : next_boundary));
                }
                const Cycles ahead =
                    horizon > cpuNow_
                        ? cores_[t]->runAhead(cpuNow_, horizon,
                                              commitCap(t))
                        : cpuNow_;
                if (ahead != cpuNow_) {
                    // Cycles [cpuNow_, ahead) are executed and
                    // stall-free; the core next needs the clock (and
                    // is next allowed to be visited) at `ahead`.
                    wake_.setDue(t, ahead);
                    stallAnchor_[t] = ahead;
                    continue;
                }
                ticked |= 1u << t;
                stallAnchor_[t] = cpuNow_;
                if (cores_[t]->tick(cpuNow_)) {
                    wake_.setDue(t, cpuNow_ + 1);
                } else {
                    bool stalling = false;
                    bool waits_cap = false;
                    wake_.setDue(t,
                                 cores_[t]->nextEventCycle(
                                     cpuNow_, stalling, waits_cap));
                    coreStalls_[t] = stalling ? 1 : 0;
                    coreWaitsCap_[t] = waits_cap ? 1 : 0;
                }
            }
        } else {
            for (auto &core : cores_)
                core->tick(cpuNow_);
            ticked = ~0u;
        }

        if (boundary) {
            if (config_.fastForward && memory_.nextBoundaryQuiet()) {
                // This boundary's controller ticks are provably no-ops
                // (cores are awake most windows, but the memory system
                // does real work in only a few percent of them): skip
                // straight past the context build and controller entry.
                // STFM still integrates interference off the same stall
                // snapshot a full tick would have seen; the other
                // policies' beginCycle is a no-op, letting the DRAM
                // clock advance bare. No column command can issue on a
                // quiet boundary, so the capacity-wake generation check
                // below is not needed here.
                if (stall_snapshots) {
                    for (unsigned t = 0; t < config_.cores; ++t)
                        stallSnapshot_[t] = stallAt(t, cpuNow_);
                    memory_.quiescentDramTick(cpuNow_);
                } else {
                    memory_.skipDramTicks(1);
                    memory_.syncCpuNow(cpuNow_);
                }
                if (obs_)
                    obs_->onBoundary(memory_.dramNow());
            } else {
                if (stall_snapshots) {
                    for (unsigned t = 0; t < config_.cores; ++t)
                        stallSnapshot_[t] = stallAt(t, cpuNow_);
                }
                // next_boundary tracking makes the clock-ratio check
                // inside tick() redundant on this path.
                memory_.boundaryTick(cpuNow_);
                if (obs_)
                    obs_->onBoundary(memory_.dramNow());
                if (config_.fastForward) {
                    // A column issue during the tick freed
                    // request-buffer capacity: cut short every sleep
                    // that depends on it. (Completions re-armed their
                    // cores directly from the read callback.)
                    const std::uint64_t gen = memory_.coreEventGen();
                    if (gen != coreEventGenSeen_) {
                        coreEventGenSeen_ = gen;
                        for (unsigned t = 0; t < config_.cores; ++t) {
                            if (coreWaitsCap_[t])
                                wake_.setDue(t, cpuNow_ + 1);
                        }
                    }
                }
            }
        } else {
            memory_.syncCpuNow(cpuNow_);
        }

        // Threshold scan, after the memory tick so snapshots observe
        // the same post-tick stats a full per-cycle scan would.
        for (unsigned t = 0; ticked != 0 && t < config_.cores; ++t) {
            if (!(ticked & (1u << t)) || frozen_[t])
                continue;
            const std::uint64_t done =
                cores_[t]->instructionsCommitted();
            if (!warm_[t].taken &&
                done >= config_.warmupInstructions) {
                snapshotThread(t, cpuNow_);
            }
            if (warm_[t].taken &&
                done >= config_.warmupInstructions +
                            config_.instructionBudget) {
                freezeThread(t, cpuNow_, result);
                --active;
            }
        }

        // Advance to the next event: the earliest core due cycle or
        // the next interesting DRAM cycle, whichever comes first.
        // Guarded on active > 0 so the exit value of cpuNow_ (and thus
        // totalCycles) matches the cycle-by-cycle reference exactly.
        if (!config_.fastForward || active == 0) {
            ++cpuNow_;
            continue;
        }
        Cycles target = std::min(wake_.minDue(), config_.maxCycles);
        if (target > cpuNow_ + 1) {
            target = std::min(target,
                              memory_.nextInterestingCpuCycle(cpuNow_));
        }
        if (target <= cpuNow_ + 1) {
            ++cpuNow_;
            continue;
        }
        // Jump. Every core sleeps through (cpuNow_, target) — stall
        // accrual is settled lazily from the anchors — and every DRAM
        // boundary inside the window is proven uninteresting; replay
        // only the per-cycle effects a cycle-by-cycle run would have
        // had (STFM integrates interference every DRAM cycle off the
        // stall snapshot; the other policies' beginCycle is a no-op,
        // letting the DRAM clock jump wholesale).
        if (memory_.policyNeedsPerCycleAccounting()) {
            for (Cycles c = (cpuNow_ / cpu_per_dram + 1) * cpu_per_dram;
                 c < target; c += cpu_per_dram) {
                for (unsigned t = 0; t < config_.cores; ++t)
                    stallSnapshot_[t] = stallAt(t, c);
                memory_.quiescentDramTick(c);
                if (obs_)
                    obs_->onBoundary(memory_.dramNow());
            }
        } else {
            memory_.skipDramTicks((target - 1) / cpu_per_dram -
                                  cpuNow_ / cpu_per_dram);
        }
        memory_.syncCpuNow(target - 1);
        cpuNow_ = target;
        next_boundary = target / cpu_per_dram * cpu_per_dram;
        if (next_boundary < target)
            next_boundary += cpu_per_dram;
    }

    // Settle every core's remaining lazy stall debt: the run's last
    // executed cycle is cpuNow_ - 1, and sleeping cores accrued
    // through it.
    if (config_.fastForward) {
        for (unsigned t = 0; t < config_.cores; ++t) {
            if (coreStalls_[t]) {
                cores_[t]->skipStalledCycles(cpuNow_ - 1 -
                                             stallAnchor_[t]);
                coreStalls_[t] = 0;
            }
        }
    }

    // Anything still unfrozen hit the cycle limit.
    for (unsigned t = 0; t < config_.cores; ++t) {
        if (!frozen_[t]) {
            freezeThread(t, cpuNow_, result);
            result.hitCycleLimit = true;
        }
    }
    result.totalCycles = cpuNow_;

    // Integrity epilogue: with watchdogs enabled, drain the memory
    // system (cores stop injecting; queued work completes) so the
    // lifetime auditors can verify request conservation end to end.
    // This runs after every result field is computed, keeping checked
    // and unchecked runs bit-identical.
    const IntegrityConfig &integrity = config_.memory.controller.integrity;
    if (integrity.watchdog && !result.hitCycleLimit) {
        const Cycles drain_limit = cpuNow_ + 4'000'000;
        while (!memory_.idle() && cpuNow_ < drain_limit) {
            ++cpuNow_;
            memory_.tick(cpuNow_);
        }
        if (!memory_.idle()) {
            throw CheckFailure(
                "drain-stall", cpuNow_ / config_.memory.cpuPerDram(), 0, 0,
                CheckFailure::kNoRequest, kInvalidThread,
                "memory system failed to drain after the run");
        }
        memory_.auditDrained();
    }
    // Observability epilogue: closing samples and open-span closure
    // happen after the drain so trace lanes cover the drained commands
    // too. Never affects SimResult (results were computed above).
    if (obs_)
        obs_->finalize(memory_.dramNow());
    return result;
}

} // namespace stfm
