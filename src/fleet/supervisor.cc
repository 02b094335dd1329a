#include "fleet/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fleet/manifest.hh"
#include "fleet/protocol.hh"
#include "fleet/wire.hh"
#include "obs/telemetry.hh"

namespace stfm
{
namespace fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

volatile std::sig_atomic_t g_stopRequested = 0;

void
stopHandler(int)
{
    g_stopRequested = 1;
}

/**
 * SIGTERM/SIGINT request an orderly stop (children killed, manifest
 * intact, exit nonzero); SIGPIPE must not kill the supervisor when a
 * worker dies mid-write. No SA_RESTART: poll() has to wake up.
 */
class SignalGuard
{
  public:
    SignalGuard()
    {
        g_stopRequested = 0;
        struct sigaction action = {};
        action.sa_handler = stopHandler;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0;
        sigaction(SIGTERM, &action, &oldTerm_);
        sigaction(SIGINT, &action, &oldInt_);
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        sigemptyset(&ignore.sa_mask);
        sigaction(SIGPIPE, &ignore, &oldPipe_);
    }

    ~SignalGuard()
    {
        sigaction(SIGTERM, &oldTerm_, nullptr);
        sigaction(SIGINT, &oldInt_, nullptr);
        sigaction(SIGPIPE, &oldPipe_, nullptr);
    }

  private:
    struct sigaction oldTerm_ = {};
    struct sigaction oldInt_ = {};
    struct sigaction oldPipe_ = {};
};

enum class ShardStatus
{
    Pending,
    Running,
    Done,
    Failed,
};

struct ShardState
{
    std::size_t begin = 0;
    std::size_t end = 0;
    ShardStatus status = ShardStatus::Pending;
    /** Process-level attempts consumed so far. */
    unsigned attempts = 0;
    /** Backoff eligibility: not reassigned before this instant. */
    Clock::time_point notBefore{};
    /** Final diagnosis once Failed. */
    std::string error;
    /** First dispatch instant; anchor for the wall-clock record. */
    Clock::time_point firstDispatch{};
    bool dispatched = false;
    /**
     * Wall-clock seconds from first dispatch to terminal status
     * (retries and backoff included — this is what the sweep actually
     * paid for the shard). 0 for resumed/never-dispatched shards.
     * Recorded per shard in fleet_counters.json so sharded sweeps can
     * feed the same throughput tooling as the perf trajectory.
     */
    double wallSeconds = 0;

    std::size_t jobs() const { return end - begin; }

    void
    settleWallClock()
    {
        if (dispatched) {
            wallSeconds = std::chrono::duration<double>(
                              Clock::now() - firstDispatch)
                              .count();
        }
    }
};

struct WorkerProc
{
    pid_t pid = -1;
    int in = -1;  ///< Write end of the worker's stdin.
    int out = -1; ///< Read end of the worker's stdout.
    FrameDecoder decoder;
    bool alive = false;
    bool busy = false;
    std::size_t shard = 0;
    bool hasDeadline = false;
    Clock::time_point deadline{};
    Clock::time_point lastHeard{};
};

/**
 * Fork/exec @p argv with its stdin and stdout on fresh pipes. A launch
 * that starts but dies instantly (bad binary) surfaces as immediate
 * EOF on the returned worker's stdout, classified like any other
 * worker death. @throws SimError when pipe(2) or fork(2) fails.
 */
WorkerProc
launchPipedProcess(const std::vector<std::string> &argv)
{
    STFM_ASSERT(!argv.empty(), "worker launch argv is empty");
    int inPipe[2];
    int outPipe[2];
    if (::pipe(inPipe) != 0 || ::pipe(outPipe) != 0) {
        throw SimError(formatMessage("cannot create worker pipes: %s",
                                     std::strerror(errno)));
    }
    // Parent-held ends must not leak into later workers' execs.
    ::fcntl(inPipe[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(outPipe[0], F_SETFD, FD_CLOEXEC);
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        throw SimError(formatMessage("cannot fork worker: %s",
                                     std::strerror(saved)));
    }
    if (pid == 0) {
        ::dup2(inPipe[0], STDIN_FILENO);
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::close(inPipe[0]);
        ::close(outPipe[1]);
        std::vector<char *> args;
        args.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            args.push_back(const_cast<char *>(arg.c_str()));
        args.push_back(nullptr);
        ::execvp(args[0], args.data());
        ::_exit(127); // The exit path classifies this as a crash.
    }
    ::close(inPipe[0]);
    ::close(outPipe[1]);
    ::fcntl(outPipe[0], F_SETFL, O_NONBLOCK);

    WorkerProc worker;
    worker.pid = pid;
    worker.in = inPipe[1];
    worker.out = outPipe[0];
    worker.alive = true;
    return worker;
}

class Supervisor
{
  public:
    Supervisor(const ExperimentSpec &spec, const FleetOptions &options)
        : options_(options), plan_(planExperiment(spec)),
          specEcho_(toJson(plan_.spec))
    {
        outcome_.result = resultFromPlan(plan_);
        // Shards land by job index as they complete, in any order.
        outcome_.result.outcomes.resize(plan_.jobs.size());
        const auto ranges = partitionShards(
            plan_.jobs.size(), plan_.jobsPerRow(), options_.shards);
        shards_.reserve(ranges.size());
        for (const auto &range : ranges) {
            ShardState state;
            state.begin = range.first;
            state.end = range.second;
            shards_.push_back(state);
        }

        maxWorkers_ = options_.workers > 0
                          ? options_.workers
                          : ExperimentRunner::defaultJobs();
        maxWorkers_ = static_cast<unsigned>(std::min<std::size_t>(
            std::max<std::size_t>(1, maxWorkers_),
            std::max<std::size_t>(1, shards_.size())));
        heartbeatMs_ =
            options_.heartbeatMs > 0 ? options_.heartbeatMs : 250;
        livenessSec_ = options_.livenessSec > 0
                           ? options_.livenessSec
                           : std::max(2.0, 8.0 * heartbeatMs_ / 1000.0);
        if (options_.workerArgv.empty())
            options_.workerArgv = {"/proc/self/exe", "worker"};

        openCheckpoint(spec);
    }

    FleetOutcome
    run()
    {
        SignalGuard guard;
        startTime_ = Clock::now();
        while (!allSettled()) {
            if (g_stopRequested ||
                (options_.stopAfter > 0 &&
                 stats().shardsCompleted >= options_.stopAfter)) {
                outcome_.interrupted = true;
                break;
            }
            assignShards();
            pollWorkers();
            enforceDeadlines();
        }
        teardown();
        finish();
        return std::move(outcome_);
    }

  private:
    FleetStats &stats() { return outcome_.stats; }

    // Checkpoint ------------------------------------------------------

    void
    openCheckpoint(const ExperimentSpec &spec)
    {
        if (options_.checkpoint.empty()) {
            if (options_.resume) {
                throw SimError(
                    "--resume requires a checkpoint directory");
            }
            return;
        }
        if (::mkdir(options_.checkpoint.c_str(), 0755) != 0 &&
            errno != EEXIST) {
            throw SimError(formatMessage(
                "cannot create checkpoint directory '%s': %s",
                options_.checkpoint.c_str(), std::strerror(errno)));
        }
        const std::string path =
            options_.checkpoint + "/manifest.jsonl";
        const std::string hash = fleetSpecHash(spec, plan_.base);
        if (options_.resume)
            restoreFromManifest(path, hash);
        else
            ::remove(path.c_str()); // Stale state must not poison us.
        writer_.open(path, hash, plan_.jobs.size(), shards_.size());
    }

    void
    restoreFromManifest(const std::string &path,
                        const std::string &hash)
    {
        const ManifestData data = loadManifest(path);
        if (data.header.isNull())
            return; // Nothing checkpointed yet; run from scratch.
        validateManifestHeader(data.header, hash, plan_.jobs.size(),
                               shards_.size());
        for (const auto &[key, wire] : data.alone) {
            alone_[key] = threadResultFromWire(
                wire, "manifest alone '" + key + "'");
        }
        for (const auto &[index, entry] : data.shards) {
            if (index >= shards_.size()) {
                throw SimError(formatMessage(
                    "manifest names shard %u but this run has only "
                    "%zu shards",
                    index, shards_.size()));
            }
            ShardState &shard = shards_[index];
            const std::string context =
                formatMessage("manifest shard %u", index);
            shard.attempts = static_cast<unsigned>(
                entry.at("attempts", context)
                    .asUint(context + ".attempts"));
            const auto &outcomes =
                entry.at("outcomes", context)
                    .asArray(context + ".outcomes");
            if (outcomes.size() != shard.jobs()) {
                throw SimError(formatMessage(
                    "%s carries %zu outcomes but the shard spans %zu "
                    "jobs",
                    context.c_str(), outcomes.size(), shard.jobs()));
            }
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                outcome_.result.outcomes[shard.begin + i] =
                    runOutcomeFromWire(
                        outcomes[i],
                        formatMessage("%s outcome %zu",
                                      context.c_str(), i));
            }
            shard.status = ShardStatus::Done;
            ++stats().shardsResumed;
        }
        if (!options_.quiet && stats().shardsResumed > 0) {
            std::fprintf(stderr,
                         "[fleet] resumed %llu/%zu shards from %s\n",
                         static_cast<unsigned long long>(
                             stats().shardsResumed),
                         shards_.size(), path.c_str());
        }
    }

    // Scheduling ------------------------------------------------------

    bool
    allSettled() const
    {
        for (const ShardState &shard : shards_) {
            if (shard.status == ShardStatus::Pending ||
                shard.status == ShardStatus::Running)
                return false;
        }
        return true;
    }

    /**
     * Find (or launch) a worker for the next Pending shard: an idle
     * live worker first, else a fresh launch while the pool is below
     * its width.
     */
    WorkerProc *
    workerForShard()
    {
        std::size_t aliveTotal = 0;
        WorkerProc *freeSlot = nullptr;
        for (WorkerProc &worker : pool_) {
            if (worker.alive) {
                if (!worker.busy)
                    return &worker;
                ++aliveTotal;
            } else if (!freeSlot) {
                freeSlot = &worker;
            }
        }
        if (aliveTotal >= maxWorkers_)
            return nullptr;
        if (!freeSlot) {
            pool_.emplace_back();
            freeSlot = &pool_.back();
        }
        *freeSlot = launchPipedProcess(options_.workerArgv);
        return freeSlot;
    }

    void
    assignShards()
    {
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            ShardState &shard = shards_[i];
            if (shard.status != ShardStatus::Pending ||
                now < shard.notBefore)
                continue;
            WorkerProc *worker = workerForShard();
            if (!worker)
                return; // Pool saturated; poll until a slot frees up.

            ++shard.attempts;
            if (!shard.dispatched) {
                shard.dispatched = true;
                shard.firstDispatch = now;
            }
            WorkUnit unit;
            unit.shard = static_cast<unsigned>(i);
            unit.attempt = shard.attempts;
            unit.beginJob = shard.begin;
            unit.endJob = shard.end;
            unit.heartbeatMs = heartbeatMs_;
            unit.spec = specEcho_;
            unit.alone = alone_;

            shard.status = ShardStatus::Running;
            worker->busy = true;
            worker->shard = i;
            worker->lastHeard = now;
            worker->hasDeadline = options_.timeoutSec > 0;
            if (worker->hasDeadline) {
                worker->deadline =
                    now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  options_.timeoutSec));
            }
            // A dead-on-arrival worker (bad binary, instant crash)
            // fails this write; its stdout EOF classifies the attempt.
            (void)writeFrame(worker->in, toWire(unit));
        }
    }

    // Event loop ------------------------------------------------------

    void
    pollWorkers()
    {
        std::vector<struct pollfd> fds;
        std::vector<std::size_t> slots;
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            if (!pool_[i].alive)
                continue;
            fds.push_back({pool_[i].out, POLLIN, 0});
            slots.push_back(i);
        }

        const int timeout = pollTimeoutMs();
        const int ready =
            ::poll(fds.empty() ? nullptr : fds.data(),
                   static_cast<nfds_t>(fds.size()), timeout);
        if (ready < 0) {
            if (errno == EINTR)
                return; // Signal: the loop head re-checks the flag.
            throw SimError(formatMessage("poll failed: %s",
                                         std::strerror(errno)));
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                handleReadable(pool_[slots[i]]);
        }
    }

    int
    pollTimeoutMs() const
    {
        const Clock::time_point now = Clock::now();
        double wait = 0.25; // Idle tick: re-check assignments.
        bool haveEvent = false;
        const auto consider = [&](double seconds) {
            if (!haveEvent || seconds < wait)
                wait = seconds;
            haveEvent = true;
        };
        for (const WorkerProc &worker : pool_) {
            if (!worker.alive || !worker.busy)
                continue;
            if (worker.hasDeadline)
                consider(secondsBetween(now, worker.deadline));
            consider(livenessSec_ -
                     secondsBetween(worker.lastHeard, now));
        }
        for (const ShardState &shard : shards_) {
            if (shard.status == ShardStatus::Pending &&
                shard.notBefore > now)
                consider(secondsBetween(now, shard.notBefore));
        }
        const double clamped = std::min(1.0, std::max(0.001, wait));
        return static_cast<int>(std::ceil(clamped * 1000.0));
    }

    void
    handleReadable(WorkerProc &worker)
    {
        bool eof = false;
        char buffer[4096];
        for (;;) {
            const ssize_t n =
                ::read(worker.out, buffer, sizeof(buffer));
            if (n > 0) {
                worker.decoder.feed(buffer,
                                    static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            eof = true; // Read error: treat like a vanished worker.
            break;
        }
        drainFrames(worker);
        if (eof && worker.alive)
            handleWorkerExit(worker);
    }

    void
    drainFrames(WorkerProc &worker)
    {
        for (;;) {
            Json message;
            std::string error;
            const FrameDecoder::Status status =
                worker.decoder.next(message, &error);
            if (status == FrameDecoder::Status::NeedMore)
                return;
            if (status == FrameDecoder::Status::Garbage) {
                handleGarbage(worker, error);
                return;
            }
            const Json *type = message.find("type");
            const std::string kind =
                type && type->isString() ? type->asString() : "";
            if (kind == "heartbeat") {
                ++stats().heartbeats;
                worker.lastHeard = Clock::now();
                continue;
            }
            if (kind == "result") {
                try {
                    completeShard(worker,
                                  shardResultFromWire(message));
                } catch (const SimError &e) {
                    handleGarbage(worker, e.what());
                    return;
                }
                continue;
            }
            handleGarbage(worker,
                          "unexpected frame type '" + kind + "'");
            return;
        }
    }

    void
    handleGarbage(WorkerProc &worker, const std::string &detail)
    {
        ++stats().protocolErrors;
        const bool wasBusy = worker.busy;
        const std::size_t shard = worker.shard;
        killWorker(worker);
        if (wasBusy) {
            failAttempt(shard,
                        "protocol garbage on the worker stream (" +
                            detail + ")");
        }
    }

    void
    handleWorkerExit(WorkerProc &worker)
    {
        const bool wasBusy = worker.busy;
        const std::size_t shard = worker.shard;
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
        closeWorker(worker);
        if (!wasBusy)
            return; // A drained worker retiring between shards.

        ++stats().crashes;
        std::string detail;
        if (WIFEXITED(status)) {
            detail = formatMessage(
                "worker exited with code %d before returning the "
                "shard",
                WEXITSTATUS(status));
        } else if (WIFSIGNALED(status) &&
                   WTERMSIG(status) == SIGKILL) {
            // Distinct from other signal deaths: nothing in the fleet
            // sends SIGKILL to a busy worker, so on a loaded host this
            // is almost always the kernel OOM killer.
            ++stats().sigkills;
            detail = "worker killed by SIGKILL (likely the OOM killer)";
        } else if (WIFSIGNALED(status)) {
            detail = formatMessage("worker killed by signal %d (%s)",
                                   WTERMSIG(status),
                                   strsignal(WTERMSIG(status)));
        } else {
            detail = "worker vanished without an exit status";
        }
        failAttempt(shard, detail);
    }

    void
    enforceDeadlines()
    {
        const Clock::time_point now = Clock::now();
        for (WorkerProc &worker : pool_) {
            if (!worker.alive || !worker.busy)
                continue;
            const std::size_t shard = worker.shard;
            if (worker.hasDeadline && now >= worker.deadline) {
                ++stats().timeouts;
                killWorker(worker);
                failAttempt(
                    shard,
                    formatMessage(
                        "shard timed out after %.1fs of wall clock",
                        options_.timeoutSec));
                continue;
            }
            const double silent =
                secondsBetween(worker.lastHeard, now);
            if (silent > livenessSec_) {
                ++stats().hangs;
                killWorker(worker);
                failAttempt(
                    shard,
                    formatMessage(
                        "worker hung: no heartbeat for %.1fs "
                        "(liveness window %.1fs)",
                        silent, livenessSec_));
            }
        }
    }

    // Outcomes --------------------------------------------------------

    void
    completeShard(WorkerProc &worker, ShardResult &&result)
    {
        if (!worker.busy ||
            result.shard != static_cast<unsigned>(worker.shard)) {
            throw SimError(formatMessage(
                "result for shard %u from a worker assigned %zu",
                result.shard, worker.shard));
        }
        ShardState &shard = shards_[worker.shard];
        if (result.outcomes.size() != shard.jobs()) {
            throw SimError(formatMessage(
                "shard %u returned %zu outcomes for %zu jobs",
                result.shard, result.outcomes.size(), shard.jobs()));
        }

        Json outcomesWire = Json::array();
        for (const RunOutcome &outcome : result.outcomes)
            outcomesWire.push(toWire(outcome));
        for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
            outcome_.result.outcomes[shard.begin + i] =
                std::move(result.outcomes[i]);
        }
        for (auto &[key, baseline] : result.alone) {
            if (alone_.find(key) != alone_.end())
                continue; // Another shard got there first.
            if (writer_.isOpen())
                writer_.appendAlone(key, toWire(baseline));
            alone_.emplace(key, std::move(baseline));
        }
        if (writer_.isOpen()) {
            writer_.appendShard(static_cast<unsigned>(worker.shard),
                                shard.attempts, outcomesWire);
        }

        shard.status = ShardStatus::Done;
        shard.settleWallClock();
        ++stats().shardsCompleted;
        worker.busy = false;
        noteProgress(static_cast<unsigned>(worker.shard), "done",
                     shard.attempts);
        writeCounters(false);
    }

    void
    failAttempt(std::size_t index, const std::string &detail)
    {
        ShardState &shard = shards_[index];
        shard.status = ShardStatus::Pending;
        if (shard.attempts >= 1 + options_.retries) {
            shard.status = ShardStatus::Failed;
            shard.settleWallClock();
            shard.error = formatMessage(
                "shard %zu failed after %u attempt%s: %s", index,
                shard.attempts, shard.attempts == 1 ? "" : "s",
                detail.c_str());
            ++stats().shardsFailed;
            outcome_.failedShards.push_back(
                static_cast<unsigned>(index));
            noteProgress(static_cast<unsigned>(index), "FAILED",
                         shard.attempts);
            writeCounters(false);
            return;
        }
        ++stats().retries;
        const double backoff =
            options_.backoffSec *
            static_cast<double>(
                1u << std::min(shard.attempts - 1, 16u));
        shard.notBefore =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(backoff));
        if (!options_.quiet) {
            std::fprintf(stderr,
                         "[fleet] shard %zu attempt %u failed (%s); "
                         "retrying in %.2gs\n",
                         index, shard.attempts, detail.c_str(),
                         backoff);
        }
    }

    void
    noteProgress(unsigned shard, const char *verdict, unsigned attempts)
    {
        if (options_.quiet)
            return;
        const std::uint64_t done = stats().shardsCompleted +
                                   stats().shardsResumed +
                                   stats().shardsFailed;
        const double elapsed =
            secondsBetween(startTime_, Clock::now());
        const std::uint64_t remaining =
            static_cast<std::uint64_t>(shards_.size()) - done;
        const double eta =
            stats().shardsCompleted > 0
                ? elapsed /
                      static_cast<double>(stats().shardsCompleted) *
                      static_cast<double>(remaining)
                : 0.0;
        std::fprintf(stderr,
                     "[fleet] shard %u %s (attempt %u) — %llu/%zu "
                     "done, elapsed %.1fs, eta %.1fs\n",
                     shard, verdict, attempts,
                     static_cast<unsigned long long>(done),
                     shards_.size(), elapsed, eta);
    }

    // Teardown --------------------------------------------------------

    void
    killWorker(WorkerProc &worker)
    {
        if (!worker.alive)
            return;
        ::kill(worker.pid, SIGKILL);
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
        closeWorker(worker);
    }

    void
    closeWorker(WorkerProc &worker)
    {
        if (worker.in >= 0)
            ::close(worker.in);
        if (worker.out >= 0)
            ::close(worker.out);
        worker.in = worker.out = -1;
        worker.alive = false;
        worker.busy = false;
        worker.decoder = FrameDecoder{};
    }

    void
    teardown()
    {
        // Busy workers are mid-simulation and will not notice stdin
        // EOF until their shard ends; idle ones exit on it promptly.
        for (WorkerProc &worker : pool_) {
            if (!worker.alive)
                continue;
            if (worker.busy) {
                killWorker(worker);
            } else {
                ::close(worker.in);
                worker.in = -1;
            }
        }
        const Clock::time_point grace =
            Clock::now() + std::chrono::seconds(2);
        for (WorkerProc &worker : pool_) {
            if (!worker.alive)
                continue;
            for (;;) {
                int status = 0;
                const pid_t reaped =
                    ::waitpid(worker.pid, &status, WNOHANG);
                if (reaped == worker.pid || reaped < 0)
                    break;
                if (Clock::now() >= grace) {
                    ::kill(worker.pid, SIGKILL);
                    ::waitpid(worker.pid, &status, 0);
                    break;
                }
                ::usleep(10 * 1000);
            }
            closeWorker(worker);
        }
        writer_.close();
    }

    void
    finish()
    {
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const ShardState &shard = shards_[i];
            if (shard.status != ShardStatus::Failed)
                continue;
            for (std::size_t j = shard.begin; j < shard.end; ++j) {
                RunOutcome failed;
                failed.policyName =
                    toString(plan_.jobs[j].scheduler.kind);
                failed.failed = true;
                failed.attempts = shard.attempts;
                failed.error = shard.error;
                outcome_.result.outcomes[j] = std::move(failed);
            }
        }
        // An interrupted run's unfinished rows are default-constructed
        // placeholders; aggregating them would be nonsense, and the
        // result exists only so the caller can see what *did* land.
        if (!outcome_.interrupted)
            aggregateOutcomes(outcome_.result);
        writeCounters(true);
    }

    /**
     * Refresh DIR/fleet_counters.json. Called after every terminal
     * shard with @p final false, so a sweep watched mid-flight (or cut
     * short by a dead supervisor) leaves current counters behind; the
     * last refresh in finish() sets `"final": true`.
     */
    void
    writeCounters(bool final)
    {
        if (options_.checkpoint.empty())
            return;
        TelemetryRegistry registry;
        registerFleetTelemetry(registry, stats());
        Json counters = Json::object();
        for (const TelemetrySeries &series : registry.series()) {
            counters.set(series.name, static_cast<std::uint64_t>(
                                          series.sample()));
        }
        // Per-shard wall-clock records: what the sweep actually paid
        // per shard (first dispatch to terminal status, retries and
        // backoff included). Resumed shards ran in an earlier process
        // and record 0; interrupted runs leave in-flight shards as
        // "pending". These feed the same throughput tooling as the
        // perf trajectory (EXPERIMENTS.md, "Performance methodology").
        Json shard_records = Json::array();
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const ShardState &shard = shards_[i];
            Json record = Json::object();
            record.set("shard", static_cast<std::uint64_t>(i));
            record.set("status",
                       shard.status == ShardStatus::Failed ? "failed"
                       : shard.status != ShardStatus::Done ? "pending"
                       : !shard.dispatched                  ? "resumed"
                                                            : "done");
            record.set("jobs", static_cast<std::uint64_t>(shard.jobs()));
            record.set("attempts", shard.attempts);
            record.set("wall_seconds",
                       std::round(shard.wallSeconds * 1000.0) / 1000.0);
            shard_records.push(std::move(record));
        }

        Json document = Json::object();
        document.set("schema", "stfm-fleet-counters-v1");
        document.set("final", final);
        document.set("interrupted", outcome_.interrupted);
        document.set("counters", std::move(counters));
        document.set("shards", std::move(shard_records));
        try {
            writeJsonFile(document, options_.checkpoint +
                                        "/fleet_counters.json");
        } catch (const SimError &e) {
            std::fprintf(stderr, "[fleet] counters not written: %s\n",
                         e.what());
        }
    }

    FleetOptions options_;
    ExperimentPlan plan_;
    Json specEcho_;
    FleetOutcome outcome_;
    std::vector<ShardState> shards_;
    std::vector<WorkerProc> pool_;
    std::map<std::string, ThreadResult> alone_;
    ManifestWriter writer_;
    unsigned maxWorkers_ = 1;
    unsigned heartbeatMs_ = 250;
    double livenessSec_ = 2.0;
    Clock::time_point startTime_{};
};

} // namespace

std::vector<std::pair<std::size_t, std::size_t>>
partitionShards(std::size_t jobs, std::size_t jobs_per_row,
                unsigned requested)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    if (jobs == 0)
        return out;
    if (requested == 0) {
        const std::size_t per = jobs_per_row > 0 ? jobs_per_row : 1;
        out.reserve((jobs + per - 1) / per);
        for (std::size_t begin = 0; begin < jobs; begin += per)
            out.emplace_back(begin, std::min(jobs, begin + per));
        return out;
    }
    const std::size_t count =
        std::min<std::size_t>(requested, jobs);
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.emplace_back(jobs * i / count, jobs * (i + 1) / count);
    return out;
}

FleetOutcome
runShardedExperiment(const ExperimentSpec &spec,
                     const FleetOptions &options)
{
    Supervisor supervisor(spec, options);
    return supervisor.run();
}

void
registerFleetTelemetry(TelemetryRegistry &registry,
                       const FleetStats &stats)
{
    const auto probe = [](const std::uint64_t &field) {
        return [&field] { return static_cast<double>(field); };
    };
    registry.counter("fleet.shards.completed", "shards", "fleet",
                     probe(stats.shardsCompleted));
    registry.counter("fleet.shards.resumed", "shards", "fleet",
                     probe(stats.shardsResumed));
    registry.counter("fleet.shards.failed", "shards", "fleet",
                     probe(stats.shardsFailed));
    registry.counter("fleet.retries", "attempts", "fleet",
                     probe(stats.retries));
    registry.counter("fleet.timeouts", "events", "fleet",
                     probe(stats.timeouts));
    registry.counter("fleet.hangs", "events", "fleet",
                     probe(stats.hangs));
    registry.counter("fleet.crashes", "events", "fleet",
                     probe(stats.crashes));
    registry.counter("fleet.garbage", "events", "fleet",
                     probe(stats.protocolErrors));
    registry.counter("fleet.heartbeats", "frames", "fleet",
                     probe(stats.heartbeats));
    registry.counter("fleet.sigkills", "events", "fleet",
                     probe(stats.sigkills));
}

} // namespace fleet
} // namespace stfm
