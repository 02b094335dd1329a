/**
 * @file
 * Performance-path equivalence tests: the optimized hot path
 * (event-driven fast-forwarding, core run-ahead bursts, the
 * controller's quiet-window and bank-ready memos) must be bit-exact
 * against the cycle-by-cycle reference path, and every quiescence
 * predictor must err early, never late.
 *
 * These are the regression gates for the wake-bound soundness rule:
 * an early wake costs a spurious tick, a late one silently diverges
 * the simulation. Each test compares full result records (or complete
 * event sequences), so any divergence — one stall cycle, one command
 * — fails loudly.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/address_mapping.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/runner.hh"
#include "mem/controller.hh"
#include "sched/fr_fcfs.hh"
#include "sim/system.hh"
#include "trace/catalog.hh"
#include "trace/generator.hh"

namespace stfm
{
namespace
{

// ---------------------------------------------------------------------
// Fast-forward vs reference bit-exactness over randomized workloads.
// ---------------------------------------------------------------------

/** Draw a synthetic trace profile from @p rng (same knob space the
 *  property sweeps cover, compressed into one seed). */
TraceProfile
randomProfile(Rng &rng)
{
    TraceProfile p;
    // One profile in three is light: long ALU stretches between rare
    // misses and cache hits, which run ahead at a full window.
    if (rng.nextBool(1.0 / 3.0)) {
        p.mpki = 0.05 + rng.nextDouble() * 0.95;
        p.hitAccessesPer1k = 10.0 + rng.nextDouble() * 50.0;
    } else {
        p.mpki = 1.0 + rng.nextDouble() * 39.0;
    }
    p.rowBufferHitRate = 0.10 + rng.nextDouble() * 0.85;
    p.burstDuty = 0.20 + rng.nextDouble() * 0.80;
    p.streamCount = 1 + static_cast<unsigned>(rng.nextBelow(4));
    p.storeFraction = rng.nextDouble() * 0.40;
    p.dependentFraction = rng.nextDouble() * 0.50;
    return p;
}

SimResult
runOnce(const SimConfig &config,
        const std::vector<TraceProfile> &profiles, std::uint64_t seed)
{
    AddressMapping mapping(config.memory.channels,
                           config.memory.banksPerChannel,
                           config.memory.rowBytes, config.memory.lineBytes,
                           config.memory.rowsPerBank,
                           config.memory.xorBankMapping);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned t = 0; t < config.cores; ++t) {
        traces.push_back(std::make_unique<SyntheticTraceGenerator>(
            profiles[t], mapping, t, config.cores, seed));
    }
    CmpSystem system(config, std::move(traces));
    return system.run();
}

void
expectIdenticalResults(const SimResult &ref, const SimResult &fast)
{
    EXPECT_EQ(ref.totalCycles, fast.totalCycles);
    EXPECT_EQ(ref.hitCycleLimit, fast.hitCycleLimit);
    ASSERT_EQ(ref.threads.size(), fast.threads.size());
    for (std::size_t t = 0; t < ref.threads.size(); ++t) {
        const ThreadResult &a = ref.threads[t];
        const ThreadResult &b = fast.threads[t];
        EXPECT_EQ(a.instructions, b.instructions) << "thread " << t;
        EXPECT_EQ(a.cycles, b.cycles) << "thread " << t;
        EXPECT_EQ(a.memStallCycles, b.memStallCycles) << "thread " << t;
        EXPECT_EQ(a.l2Misses, b.l2Misses) << "thread " << t;
        EXPECT_EQ(a.dramReads, b.dramReads) << "thread " << t;
        EXPECT_EQ(a.dramWrites, b.dramWrites) << "thread " << t;
        EXPECT_EQ(a.rowHits, b.rowHits) << "thread " << t;
        EXPECT_EQ(a.rowClosed, b.rowClosed) << "thread " << t;
        EXPECT_EQ(a.rowConflicts, b.rowConflicts) << "thread " << t;
        // Same histogram contents -> identical arithmetic, so exact
        // double equality is the right bar (not near-equality).
        EXPECT_EQ(a.readLatencyMean, b.readLatencyMean) << "thread " << t;
        EXPECT_EQ(a.readLatencyP50, b.readLatencyP50) << "thread " << t;
        EXPECT_EQ(a.readLatencyP99, b.readLatencyP99) << "thread " << t;
        EXPECT_EQ(a.readLatencyMax, b.readLatencyMax) << "thread " << t;
    }
}

struct EquivalencePoint
{
    PolicyKind kind;
    std::uint64_t seed;
};

void
PrintTo(const EquivalencePoint &p, std::ostream *os)
{
    *os << toString(p.kind) << "_seed" << p.seed;
}

class FastForwardEquivalence
    : public ::testing::TestWithParam<EquivalencePoint>
{};

TEST_P(FastForwardEquivalence, BitExactAgainstReference)
{
    const EquivalencePoint &point = GetParam();
    // The seed steers everything: core count, geometry, and each
    // core's trace profile, so the parameter grid sweeps a different
    // slice of the configuration space per policy.
    Rng rng(0xfeedULL + point.seed);
    const unsigned cores = rng.nextBool(0.5) ? 2 : 4;

    SimConfig config = SimConfig::baseline(cores);
    config.instructionBudget = 4000;
    config.warmupInstructions = 1000;
    config.memory.channels = rng.nextBool(0.5) ? 2 : 1;
    config.memory.xorBankMapping = rng.nextBool(0.5);
    config.scheduler.kind = point.kind;
    if (point.kind == PolicyKind::FrFcfsCap)
        config.scheduler.cap = 4;

    std::vector<TraceProfile> profiles;
    for (unsigned t = 0; t < cores; ++t)
        profiles.push_back(randomProfile(rng));

    SimConfig reference = config;
    reference.fastForward = false;
    SimConfig fast = config;
    fast.fastForward = true;

    const SimResult ref = runOnce(reference, profiles, 97 + point.seed);
    const SimResult opt = runOnce(fast, profiles, 97 + point.seed);
    expectIdenticalResults(ref, opt);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FastForwardEquivalence,
    ::testing::Values(EquivalencePoint{PolicyKind::FrFcfs, 1},
                      EquivalencePoint{PolicyKind::FrFcfs, 2},
                      EquivalencePoint{PolicyKind::Fcfs, 3},
                      EquivalencePoint{PolicyKind::Fcfs, 4},
                      EquivalencePoint{PolicyKind::FrFcfsCap, 5},
                      EquivalencePoint{PolicyKind::FrFcfsCap, 6},
                      EquivalencePoint{PolicyKind::Nfq, 7},
                      EquivalencePoint{PolicyKind::Nfq, 8},
                      EquivalencePoint{PolicyKind::Stfm, 9},
                      EquivalencePoint{PolicyKind::Stfm, 10},
                      EquivalencePoint{PolicyKind::Stfm, 11}));

// ---------------------------------------------------------------------
// nextInterestingCycle() must never overshoot a real event.
// ---------------------------------------------------------------------

/** Completion trace entry: which request finished, and when. */
struct Completion
{
    std::uint64_t id;
    DramCycles at;

    bool operator==(const Completion &o) const
    {
        return id == o.id && at == o.at;
    }
};

/**
 * Twin-controller harness: A is ticked every DRAM cycle, B only on
 * cycles nextInterestingCycle() declares interesting (and whenever an
 * enqueue — an external event the predictor cannot foresee — arrives).
 * If the predictor ever returns a wake past a cycle where tick() would
 * have done observable work, B's command/completion history diverges
 * from A's. Both policies see beginCycle every DRAM cycle (mirroring
 * quiescentDramTick in the real fast path), so stateful policies (NFQ
 * virtual clocks, STFM interval accounting) evolve identically on the
 * two sides and only the tick-skipping itself is under test.
 */
class InterestingCycleHarness
{
  public:
    static constexpr unsigned kBanks = 8;
    static constexpr unsigned kThreads = 4;

    explicit InterestingCycleHarness(const SchedulerConfig &sched)
        : mapping_(1, kBanks, 16 * 1024, 64, 16 * 1024, true),
          occupancyA_(kThreads, kBanks), occupancyB_(kThreads, kBanks),
          policyA_(makeSchedulingPolicy(sched, kThreads, kBanks, 1)),
          policyB_(makeSchedulingPolicy(sched, kThreads, kBanks, 1)),
          stalls_(kThreads, 1000)
    {
        a_ = std::make_unique<MemoryController>(
            0, kBanks, timing_, params_, *policyA_, occupancyA_,
            kThreads);
        b_ = std::make_unique<MemoryController>(
            0, kBanks, timing_, params_, *policyB_, occupancyB_,
            kThreads);
        a_->setReadCallback([this](const Request &req) {
            doneA_.push_back({req.id, req.finishAt});
        });
        b_->setReadCallback([this](const Request &req) {
            doneB_.push_back({req.id, req.finishAt});
        });
    }

    void
    enqueueRead(BankId bank, RowId row, ColumnId col, ThreadId thread,
                DramCycles now)
    {
        AddrDecode coords;
        coords.bank = bank;
        coords.row = row;
        coords.column = col;
        const Addr addr = mapping_.compose(coords);
        a_->enqueueRead(addr, coords, thread, true, now * 10, now);
        b_->enqueueRead(addr, coords, thread, true, now * 10, now);
    }

    void
    enqueueWrite(BankId bank, RowId row, ColumnId col, ThreadId thread,
                 DramCycles now)
    {
        AddrDecode coords;
        coords.bank = bank;
        coords.row = row;
        coords.column = col;
        const Addr addr = mapping_.compose(coords);
        a_->enqueueWrite(addr, coords, thread, now * 10, now);
        b_->enqueueWrite(addr, coords, thread, now * 10, now);
    }

    /** Drive both controllers through cycles [1, horizon]. */
    void
    run(DramCycles horizon, Rng &rng)
    {
        DramCycles wakeB = 1;
        for (DramCycles now = 1; now <= horizon; ++now) {
            // A burst-heavy random arrival pattern with quiet gaps, so
            // both busy scheduling and long idle windows are exercised.
            if (rng.nextBool(0.12)) {
                const BankId bank =
                    static_cast<BankId>(rng.nextBelow(kBanks));
                const RowId row = 100 + rng.nextBelow(4);
                const ColumnId col =
                    static_cast<ColumnId>(rng.nextBelow(64));
                const ThreadId thread =
                    static_cast<ThreadId>(rng.nextBelow(kThreads));
                if (rng.nextBool(0.3))
                    enqueueWrite(bank, row, col, thread, now);
                else
                    enqueueRead(bank, row, col, thread, now);
                // An arrival is an external event: the standing wake
                // prediction no longer applies.
                wakeB = now;
            }
            policyA_->beginCycle(context(*a_, now));
            tick(*a_, now);
            policyB_->beginCycle(context(*b_, now));
            if (now >= wakeB) {
                tick(*b_, now);
                wakeB = b_->nextInterestingCycle(now);
            }
        }
    }

    void
    verifyConverged() const
    {
        EXPECT_EQ(a_->columnIssues(), b_->columnIssues());
        ASSERT_EQ(doneA_.size(), doneB_.size());
        for (std::size_t i = 0; i < doneA_.size(); ++i) {
            EXPECT_EQ(doneA_[i].id, doneB_[i].id) << "completion " << i;
            EXPECT_EQ(doneA_[i].at, doneB_[i].at) << "completion " << i;
        }
        for (ThreadId t = 0; t < kThreads; ++t) {
            EXPECT_EQ(a_->threadStats(t).readsServiced,
                      b_->threadStats(t).readsServiced);
            EXPECT_EQ(a_->threadStats(t).writesServiced,
                      b_->threadStats(t).writesServiced);
            EXPECT_EQ(a_->threadStats(t).rowHits,
                      b_->threadStats(t).rowHits);
        }
        EXPECT_EQ(a_->idle(), b_->idle());
    }

  private:
    SchedContext
    context(MemoryController &c, DramCycles now)
    {
        SchedContext ctx;
        ctx.dramNow = now;
        ctx.cpuNow = now * 10;
        ctx.numThreads = kThreads;
        ctx.banksPerChannel = kBanks;
        ctx.timing = &timing_;
        ctx.occupancy = (&c == a_.get()) ? &occupancyA_ : &occupancyB_;
        ctx.stallCycles = &stalls_;
        return ctx;
    }

    void
    tick(MemoryController &c, DramCycles now)
    {
        SchedContext ctx = context(c, now);
        c.tick(ctx);
    }

    DramTiming timing_;
    ControllerParams params_;
    AddressMapping mapping_;
    ThreadBankOccupancy occupancyA_;
    ThreadBankOccupancy occupancyB_;
    std::unique_ptr<SchedulingPolicy> policyA_;
    std::unique_ptr<SchedulingPolicy> policyB_;
    std::vector<Cycles> stalls_;
    std::unique_ptr<MemoryController> a_;
    std::unique_ptr<MemoryController> b_;
    std::vector<Completion> doneA_;
    std::vector<Completion> doneB_;
};

class NextInterestingCycle : public ::testing::TestWithParam<PolicyKind>
{};

TEST_P(NextInterestingCycle, NeverOvershootsUnderRandomTraffic)
{
    SchedulerConfig sched;
    sched.kind = GetParam();
    if (sched.kind == PolicyKind::FrFcfsCap)
        sched.cap = 4;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        InterestingCycleHarness harness(sched);
        Rng rng(0xabcdULL * seed);
        harness.run(4000, rng);
        harness.verifyConverged();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, NextInterestingCycle,
    ::testing::Values(PolicyKind::FrFcfs, PolicyKind::Fcfs,
                      PolicyKind::FrFcfsCap, PolicyKind::Nfq,
                      PolicyKind::Stfm),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        // Test names must be alphanumeric ("FR-FCFS" is not).
        std::string name;
        for (const char *c = toString(info.param); *c; ++c)
            if (std::isalnum(static_cast<unsigned char>(*c)))
                name += *c;
        return name;
    });

// ---------------------------------------------------------------------
// Figure specs x all five schedulers: the sleep/wake path must be
// bit-exact on the exact configurations the paper figures run
// (sampled 4-core sweeps, case studies, the 8-core two-channel
// geometry), not just on synthetic random configs.
// ---------------------------------------------------------------------

class FigureSpecEquivalence
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(FigureSpecEquivalence, AllSchedulersBitExact)
{
    const Figure *figure = findFigure(GetParam());
    ASSERT_NE(figure, nullptr) << GetParam();
    ExperimentSpec spec = figure->spec(/*full=*/false);
    // The figure's geometry and workload mix are what's under test;
    // its full budget is not. Shrink the sweep to its first two
    // workloads at a small budget so the whole matrix stays fast.
    spec.budget = 3000;
    std::vector<Workload> workloads = resolveWorkloads(spec);
    ASSERT_FALSE(workloads.empty());
    if (workloads.size() > 2)
        workloads.resize(2);

    SimConfig base = resolveConfig(spec, EnvOverrides{});
    SimConfig reference = base;
    reference.fastForward = false;
    SimConfig fast = base;
    fast.fastForward = true;

    ExperimentRunner refRunner(reference);
    ExperimentRunner fastRunner(fast);
    for (const Workload &w : workloads) {
        for (const SchedulerConfig &s :
             ExperimentRunner::paperSchedulers()) {
            const RunOutcome ref = refRunner.run(w, s);
            const RunOutcome opt = fastRunner.run(w, s);
            SCOPED_TRACE(std::string(GetParam()) + " " +
                         workloadLabel(w) + " " + toString(s.kind));
            ASSERT_FALSE(ref.failed) << ref.error;
            ASSERT_FALSE(opt.failed) << opt.error;
            expectIdenticalResults(ref.shared, opt.shared);
        }
    }
}

// fig12's first two rows bring the 16-core, 4-channel geometry and the
// eight light threads of high8_low8.
INSTANTIATE_TEST_SUITE_P(PaperFigures, FigureSpecEquivalence,
                         ::testing::Values("fig06", "fig09", "fig11",
                                           "fig12"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) { return info.param; });

// ---------------------------------------------------------------------
// Randomized-seed soak: a wider net than the pinned parameter grid.
// ---------------------------------------------------------------------

TEST(FastForwardSoak, RandomSeedsStayBitExact)
{
    // Each iteration draws a fresh configuration slice and cycles
    // through the five policies, so a soak covers combinations the
    // pinned grid above never pins down. Seeds are fixed per run of
    // the suite (deterministic CI) but independent of the grid's.
    constexpr PolicyKind kKinds[] = {PolicyKind::FrFcfs,
                                     PolicyKind::Fcfs,
                                     PolicyKind::FrFcfsCap,
                                     PolicyKind::Nfq, PolicyKind::Stfm};
    Rng master(0x50a7e57ULL);
    for (unsigned iter = 0; iter < 15; ++iter) {
        const std::uint64_t seed = master.nextBelow(1u << 30);
        Rng rng(0x9e3779b9ULL ^ seed);
        const unsigned cores = rng.nextBool(0.5) ? 2 : 4;

        SimConfig config = SimConfig::baseline(cores);
        config.instructionBudget = 2500;
        config.warmupInstructions = 500;
        config.memory.channels = rng.nextBool(0.5) ? 2 : 1;
        config.memory.xorBankMapping = rng.nextBool(0.5);
        config.scheduler.kind = kKinds[iter % 5];
        if (config.scheduler.kind == PolicyKind::FrFcfsCap)
            config.scheduler.cap = 2 + rng.nextBelow(6);

        std::vector<TraceProfile> profiles;
        for (unsigned t = 0; t < cores; ++t)
            profiles.push_back(randomProfile(rng));

        // Core shape, off the Table 2 defaults. Equal widths half the
        // time: the closed-form ALU batch only runs at equal widths.
        constexpr unsigned kWidths[] = {1, 2, 3, 4, 12};
        constexpr unsigned kWindows[] = {4, 16, 128};
        constexpr unsigned kMshrs[] = {1, 4, 64};
        CoreParams &cpu = config.cpu;
        cpu.fetchWidth = kWidths[rng.nextBelow(5)];
        cpu.commitWidth = rng.nextBool(0.5) ? cpu.fetchWidth
                                            : kWidths[rng.nextBelow(5)];
        cpu.windowSize = kWindows[rng.nextBelow(3)];
        cpu.mshrs = kMshrs[rng.nextBelow(3)];
        cpu.maxPendingWritebacks =
            1 + static_cast<unsigned>(rng.nextBelow(8));

        SimConfig reference = config;
        reference.fastForward = false;
        SimConfig fast = config;
        fast.fastForward = true;

        SCOPED_TRACE(std::string("iter ") + std::to_string(iter) +
                     " seed " + std::to_string(seed) + " " +
                     toString(config.scheduler.kind) + " widths " +
                     std::to_string(cpu.fetchWidth) + "/" +
                     std::to_string(cpu.commitWidth) + " window " +
                     std::to_string(cpu.windowSize) + " mshrs " +
                     std::to_string(cpu.mshrs) + " writebacks " +
                     std::to_string(cpu.maxPendingWritebacks));
        const SimResult ref = runOnce(reference, profiles, seed);
        const SimResult opt = runOnce(fast, profiles, seed);
        expectIdenticalResults(ref, opt);
    }
}

TEST(FastForwardSoak, SixtyFourChannelStfmMatchesReference)
{
    // STFM keeps per-channel data-bus tables; every channel must have
    // its own entry, however many channels the geometry has.
    SimConfig config = SimConfig::baseline(2);
    config.instructionBudget = 2000;
    config.warmupInstructions = 500;
    config.memory.channels = 64;
    config.scheduler.kind = PolicyKind::Stfm;
    Rng rng(64);
    const std::vector<TraceProfile> profiles = {randomProfile(rng),
                                                randomProfile(rng)};

    SimConfig reference = config;
    reference.fastForward = false;
    SimConfig fast = config;
    fast.fastForward = true;
    expectIdenticalResults(runOnce(reference, profiles, 7),
                           runOnce(fast, profiles, 7));
}

// ---------------------------------------------------------------------
// Run-ahead work counters.
// ---------------------------------------------------------------------

RunAheadStats
povrayRunAheadStats(bool fast_forward)
{
    SimConfig config = SimConfig::baseline(1);
    config.instructionBudget = 20000;
    config.warmupInstructions = 10000;
    config.fastForward = fast_forward;
    AddressMapping mapping(config.memory.channels,
                           config.memory.banksPerChannel,
                           config.memory.rowBytes, config.memory.lineBytes,
                           config.memory.rowsPerBank,
                           config.memory.xorBankMapping);
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(
        makeBenchmarkTrace(findBenchmark("povray"), mapping, 0, 1));
    CmpSystem system(config, std::move(traces));
    system.run();
    return system.runAheadStats();
}

TEST(FastForwardRunAhead, LightCoreBatchesItsAluStretches)
{
    // povray's ALU stretches run at a full window (any L2 hit fills
    // it): the closed-form batch must cover them, not cycle stepping.
    const RunAheadStats a = povrayRunAheadStats(true);
    const std::uint64_t burst_cycles = a.batchedCycles + a.steppedCycles;
    EXPECT_GT(a.bursts, 0u);
    EXPECT_GE(a.batchedCycles * 10, burst_cycles * 9)
        << a.batchedCycles << " of " << burst_cycles
        << " burst cycles batched";

    const RunAheadStats b = povrayRunAheadStats(true);
    EXPECT_EQ(a.bursts, b.bursts);
    EXPECT_EQ(a.batchedCycles, b.batchedCycles);
    EXPECT_EQ(a.steppedCycles, b.steppedCycles);
    EXPECT_EQ(a.rollbacks, b.rollbacks);

    // The reference path never bursts.
    const RunAheadStats ref = povrayRunAheadStats(false);
    EXPECT_EQ(ref.bursts, 0u);
    EXPECT_EQ(ref.batchedCycles, 0u);
    EXPECT_EQ(ref.steppedCycles, 0u);
    EXPECT_EQ(ref.rollbacks, 0u);
}

// ---------------------------------------------------------------------
// Parallel harness: runMany == sequential run, in job order.
// ---------------------------------------------------------------------

TEST(ParallelRunner, RunManyMatchesSequentialInJobOrder)
{
    SimConfig base = SimConfig::baseline(2);
    base.instructionBudget = 4000;
    base.warmupInstructions = 1000;

    std::vector<RunJob> jobs;
    SchedulerConfig fr;
    SchedulerConfig stfm;
    stfm.kind = PolicyKind::Stfm;
    jobs.push_back({{"mcf", "h264ref"}, fr, 0, ""});
    jobs.push_back({{"mcf", "h264ref"}, stfm, 0, ""});
    jobs.push_back({{"lbm", "omnetpp"}, fr, 0, ""});
    jobs.push_back({{"lbm", "omnetpp"}, stfm, 0, ""});

    // Sequential oracle on a fresh runner (no shared alone cache).
    ExperimentRunner sequential(base);
    std::vector<RunOutcome> expected;
    for (const auto &job : jobs)
        expected.push_back(sequential.run(job.workload, job.scheduler));

    // Oversubscribed pool: more workers than cores forces real
    // interleaving on the alone-baseline cache.
    ExperimentRunner parallel(base);
    const std::vector<RunOutcome> got = parallel.runMany(jobs, 4);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << got[i].error;
        EXPECT_EQ(got[i].policyName, expected[i].policyName) << i;
        EXPECT_EQ(got[i].shared.totalCycles,
                  expected[i].shared.totalCycles)
            << i;
        EXPECT_EQ(got[i].metrics.unfairness,
                  expected[i].metrics.unfairness)
            << i;
        EXPECT_EQ(got[i].metrics.weightedSpeedup,
                  expected[i].metrics.weightedSpeedup)
            << i;
    }
}

TEST(ParallelRunner, AloneCacheSurvivesConcurrentFirstTouch)
{
    SimConfig base = SimConfig::baseline(2);
    base.instructionBudget = 4000;
    base.warmupInstructions = 1000;

    // Every job needs the same two alone baselines; with 4 workers the
    // first touches race, and the mutex must still produce exactly one
    // cached entry per benchmark that all outcomes agree on.
    std::vector<RunJob> jobs;
    for (int i = 0; i < 4; ++i) {
        SchedulerConfig sched;
        sched.kind = (i % 2 == 0) ? PolicyKind::FrFcfs : PolicyKind::Nfq;
        jobs.push_back({{"mcf", "h264ref"}, sched, 0, ""});
    }

    ExperimentRunner runner(base);
    const std::vector<RunOutcome> got = runner.runMany(jobs, 4);
    ASSERT_EQ(got.size(), jobs.size());
    for (const auto &outcome : got)
        EXPECT_FALSE(outcome.failed) << outcome.error;
    // Identical (workload, policy) jobs must produce identical metrics.
    EXPECT_EQ(got[0].metrics.unfairness, got[2].metrics.unfairness);
    EXPECT_EQ(got[1].metrics.unfairness, got[3].metrics.unfairness);
}

} // namespace
} // namespace stfm
