#include "sim/config_io.hh"

#include <bit>
#include <cctype>
#include <exception>
#include <utility>

#include "common/logging.hh"
#include "sim/device_io.hh"

namespace stfm
{

namespace
{

/**
 * Field-walker over one JSON object section: every member must match a
 * registered field name exactly once; leftovers are unknown keys.
 */
class Fields
{
  public:
    Fields(const Json &overrides, const std::string &context)
        : object_(overrides.asObject(context)), context_(context),
          consumed_(object_.size(), false)
    {}

    ~Fields() noexcept(false)
    {
        // Surface unknown keys even when the caller consumed only a
        // subset — but never while already unwinding another error.
        if (std::uncaught_exceptions() == 0)
            finish();
    }

    /** The member JSON for @p key, or nullptr when absent. */
    const Json *
    get(const std::string &key)
    {
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (object_[i].first == key) {
                consumed_[i] = true;
                return &object_[i].second;
            }
        }
        return nullptr;
    }

    std::string
    path(const std::string &key) const
    {
        return context_ + "." + key;
    }

    // Typed setters: overwrite @p out when the key is present.
    void
    number(const std::string &key, double &out)
    {
        if (const Json *v = get(key))
            out = v->asDouble(path(key));
    }

    void
    boolean(const std::string &key, bool &out)
    {
        if (const Json *v = get(key))
            out = v->asBool(path(key));
    }

    void
    u64(const std::string &key, std::uint64_t &out)
    {
        if (const Json *v = get(key))
            out = v->asUint(path(key));
    }

    void
    u32(const std::string &key, unsigned &out)
    {
        if (const Json *v = get(key)) {
            const std::uint64_t wide = v->asUint(path(key));
            if (wide > 0xffffffffULL) {
                throw SimError(formatMessage(
                    "%s: value %llu does not fit a 32-bit field",
                    path(key).c_str(),
                    static_cast<unsigned long long>(wide)));
            }
            out = static_cast<unsigned>(wide);
        }
    }

    void
    string(const std::string &key, std::string &out)
    {
        if (const Json *v = get(key))
            out = v->asString(path(key));
    }

    void
    numberList(const std::string &key, std::vector<double> &out)
    {
        if (const Json *v = get(key)) {
            out.clear();
            const Json::Array &items = v->asArray(path(key));
            for (std::size_t i = 0; i < items.size(); ++i) {
                out.push_back(items[i].asDouble(
                    formatMessage("%s[%zu]", path(key).c_str(), i)));
            }
        }
    }

    void
    finish()
    {
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (!consumed_[i]) {
                throw SimError(formatMessage(
                    "%s: unknown key '%s'", context_.c_str(),
                    object_[i].first.c_str()));
            }
        }
        consumed_.assign(object_.size(), true);
    }

  private:
    const Json::Object &object_;
    std::string context_;
    std::vector<bool> consumed_;
};

Json
doubleList(const std::vector<double> &values)
{
    Json out = Json::array();
    for (const double v : values)
        out.push(Json(v));
    return out;
}

} // namespace

// --------------------------------------------------------------------
// DramTiming

Json
toJson(const DramTiming &timing)
{
    Json out = Json::object();
    out.set("tCL", timing.tCL);
    out.set("tRCD", timing.tRCD);
    out.set("tRP", timing.tRP);
    out.set("tRAS", timing.tRAS);
    out.set("tRC", timing.tRC);
    out.set("tWR", timing.tWR);
    out.set("tWTR", timing.tWTR);
    out.set("tRTP", timing.tRTP);
    out.set("tCCD", timing.tCCD);
    out.set("tRRD", timing.tRRD);
    out.set("tFAW", timing.tFAW);
    out.set("tCCD_S", timing.tCCD_S);
    out.set("tRRD_S", timing.tRRD_S);
    out.set("tWTR_S", timing.tWTR_S);
    out.set("tWL", timing.tWL);
    out.set("burst", timing.burst);
    out.set("tREFI", timing.tREFI);
    out.set("tRFC", timing.tRFC);
    return out;
}

void
applyJson(const Json &overrides, DramTiming &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.u64("tCL", out.tCL);
    fields.u64("tRCD", out.tRCD);
    fields.u64("tRP", out.tRP);
    fields.u64("tRAS", out.tRAS);
    fields.u64("tRC", out.tRC);
    fields.u64("tWR", out.tWR);
    fields.u64("tWTR", out.tWTR);
    fields.u64("tRTP", out.tRTP);
    fields.u64("tCCD", out.tCCD);
    fields.u64("tRRD", out.tRRD);
    fields.u64("tFAW", out.tFAW);
    fields.u64("tCCD_S", out.tCCD_S);
    fields.u64("tRRD_S", out.tRRD_S);
    fields.u64("tWTR_S", out.tWTR_S);
    fields.u64("tWL", out.tWL);
    fields.u64("burst", out.burst);
    fields.u64("tREFI", out.tREFI);
    fields.u64("tRFC", out.tRFC);
}

// --------------------------------------------------------------------
// CacheParams

Json
toJson(const CacheParams &cache)
{
    Json out = Json::object();
    out.set("sizeBytes", cache.sizeBytes);
    out.set("ways", cache.ways);
    out.set("lineBytes", cache.lineBytes);
    out.set("latency", cache.latency);
    return out;
}

void
applyJson(const Json &overrides, CacheParams &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.u64("sizeBytes", out.sizeBytes);
    fields.u32("ways", out.ways);
    fields.u64("lineBytes", out.lineBytes);
    fields.u64("latency", out.latency);
}

// --------------------------------------------------------------------
// CoreParams

Json
toJson(const CoreParams &cpu)
{
    Json out = Json::object();
    out.set("windowSize", cpu.windowSize);
    out.set("fetchWidth", cpu.fetchWidth);
    out.set("commitWidth", cpu.commitWidth);
    out.set("mshrs", cpu.mshrs);
    out.set("l1", toJson(cpu.l1));
    out.set("l2", toJson(cpu.l2));
    out.set("dramOverhead", cpu.dramOverhead);
    out.set("maxPendingWritebacks", cpu.maxPendingWritebacks);
    return out;
}

void
applyJson(const Json &overrides, CoreParams &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.u32("windowSize", out.windowSize);
    fields.u32("fetchWidth", out.fetchWidth);
    fields.u32("commitWidth", out.commitWidth);
    fields.u32("mshrs", out.mshrs);
    if (const Json *v = fields.get("l1"))
        applyJson(*v, out.l1, fields.path("l1"));
    if (const Json *v = fields.get("l2"))
        applyJson(*v, out.l2, fields.path("l2"));
    fields.u64("dramOverhead", out.dramOverhead);
    fields.u32("maxPendingWritebacks", out.maxPendingWritebacks);
}

// --------------------------------------------------------------------
// IntegrityConfig

Json
toJson(const IntegrityConfig &integrity)
{
    Json out = Json::object();
    out.set("protocolCheck", integrity.protocolCheck);
    out.set("watchdog", integrity.watchdog);
    out.set("starvationBound", integrity.starvationBound);
    out.set("progressCheckStride", integrity.progressCheckStride);
    out.set("throwOnViolation", integrity.throwOnViolation);
    return out;
}

void
applyJson(const Json &overrides, IntegrityConfig &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.boolean("protocolCheck", out.protocolCheck);
    fields.boolean("watchdog", out.watchdog);
    fields.u64("starvationBound", out.starvationBound);
    fields.u64("progressCheckStride", out.progressCheckStride);
    fields.boolean("throwOnViolation", out.throwOnViolation);
}

// --------------------------------------------------------------------
// ControllerParams

Json
toJson(const ControllerParams &controller)
{
    Json out = Json::object();
    out.set("requestBufferEntries", controller.requestBufferEntries);
    out.set("writeBufferEntries", controller.writeBufferEntries);
    out.set("writeDrainHigh", controller.writeDrainHigh);
    out.set("writeDrainLow", controller.writeDrainLow);
    out.set("refreshEnabled", controller.refreshEnabled);
    out.set("rowProtection", controller.rowProtection);
    out.set("integrity", toJson(controller.integrity));
    return out;
}

void
applyJson(const Json &overrides, ControllerParams &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.u32("requestBufferEntries", out.requestBufferEntries);
    fields.u32("writeBufferEntries", out.writeBufferEntries);
    fields.u32("writeDrainHigh", out.writeDrainHigh);
    fields.u32("writeDrainLow", out.writeDrainLow);
    fields.boolean("refreshEnabled", out.refreshEnabled);
    fields.boolean("rowProtection", out.rowProtection);
    if (const Json *v = fields.get("integrity"))
        applyJson(*v, out.integrity, fields.path("integrity"));
}

// --------------------------------------------------------------------
// MemoryConfig

Json
toJson(const MemoryConfig &memory)
{
    Json out = Json::object();
    if (!memory.device.empty())
        out.set("device", memory.device);
    out.set("channels", memory.channels);
    out.set("banksPerChannel", memory.banksPerChannel);
    out.set("bankGroups", memory.bankGroups);
    out.set("rowBytes", memory.rowBytes);
    out.set("lineBytes", memory.lineBytes);
    out.set("rowsPerBank", memory.rowsPerBank);
    out.set("xorBankMapping", memory.xorBankMapping);
    out.set("coreFrequencyMHz", memory.coreFrequencyMHz);
    out.set("dramBusMHz", memory.dramBusMHz);
    out.set("timing", toJson(memory.timing));
    out.set("controller", toJson(memory.controller));
    return out;
}

void
applyJson(const Json &overrides, MemoryConfig &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    // The device reference applies first: it rewrites geometry, clock
    // and timing wholesale, and any explicit keys alongside it in the
    // same object then override individual fields.
    if (const Json *v = fields.get("device"))
        applyDevice(out, v->asString(fields.path("device")));
    fields.u32("channels", out.channels);
    fields.u32("banksPerChannel", out.banksPerChannel);
    fields.u32("bankGroups", out.bankGroups);
    fields.u64("rowBytes", out.rowBytes);
    fields.u64("lineBytes", out.lineBytes);
    fields.u64("rowsPerBank", out.rowsPerBank);
    fields.boolean("xorBankMapping", out.xorBankMapping);
    fields.u32("coreFrequencyMHz", out.coreFrequencyMHz);
    fields.u32("dramBusMHz", out.dramBusMHz);
    if (const Json *v = fields.get("timing"))
        applyJson(*v, out.timing, fields.path("timing"));
    if (const Json *v = fields.get("controller"))
        applyJson(*v, out.controller, fields.path("controller"));
}

// --------------------------------------------------------------------
// SchedulerConfig

PolicyKind
policyKindFromName(const std::string &name)
{
    // Normalize: lowercase, drop separators ("FR-FCFS+Cap" and
    // "fr_fcfs_cap" both resolve).
    std::string key;
    for (const char c : name) {
        if (c == '-' || c == '+' || c == '_' || c == ' ')
            continue;
        key += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    if (key == "frfcfs")
        return PolicyKind::FrFcfs;
    if (key == "fcfs")
        return PolicyKind::Fcfs;
    if (key == "frfcfscap" || key == "cap")
        return PolicyKind::FrFcfsCap;
    if (key == "nfq")
        return PolicyKind::Nfq;
    if (key == "stfm")
        return PolicyKind::Stfm;
    throw SimError(formatMessage(
        "unknown scheduling policy '%s' (known: FR-FCFS, FCFS, "
        "FRFCFS+Cap, NFQ, STFM)",
        name.c_str()));
}

Json
toJson(const SchedulerConfig &scheduler)
{
    Json out = Json::object();
    out.set("policy", toString(scheduler.kind));
    switch (scheduler.kind) {
    case PolicyKind::FrFcfs:
    case PolicyKind::Fcfs:
        break;
    case PolicyKind::FrFcfsCap:
        out.set("cap", scheduler.cap);
        break;
    case PolicyKind::Nfq:
        if (!scheduler.shares.empty())
            out.set("shares", doubleList(scheduler.shares));
        out.set("inversionThreshold", scheduler.inversionThreshold);
        break;
    case PolicyKind::Stfm:
        out.set("alpha", scheduler.alpha);
        out.set("intervalLength", scheduler.intervalLength);
        out.set("gamma", scheduler.gamma);
        out.set("quantizeSlowdowns", scheduler.quantizeSlowdowns);
        out.set("busInterference", scheduler.busInterference);
        out.set("requestLevelEstimator",
                scheduler.requestLevelEstimator);
        if (!scheduler.weights.empty())
            out.set("weights", doubleList(scheduler.weights));
        break;
    }
    return out;
}

void
applyJson(const Json &overrides, SchedulerConfig &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    if (const Json *v = fields.get("policy"))
        out.kind = policyKindFromName(v->asString(fields.path("policy")));
    fields.number("alpha", out.alpha);
    fields.u64("intervalLength", out.intervalLength);
    fields.number("gamma", out.gamma);
    fields.boolean("quantizeSlowdowns", out.quantizeSlowdowns);
    fields.boolean("busInterference", out.busInterference);
    fields.boolean("requestLevelEstimator", out.requestLevelEstimator);
    fields.numberList("weights", out.weights);
    fields.u32("cap", out.cap);
    fields.numberList("shares", out.shares);
    fields.u64("inversionThreshold", out.inversionThreshold);
}

// --------------------------------------------------------------------
// TelemetryConfig

Json
toJson(const TelemetryConfig &telemetry)
{
    Json out = Json::object();
    out.set("enabled", telemetry.enabled);
    out.set("epochCycles", telemetry.epochCycles);
    out.set("output", telemetry.output);
    out.set("trace", telemetry.trace);
    return out;
}

void
applyJson(const Json &overrides, TelemetryConfig &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.boolean("enabled", out.enabled);
    fields.u64("epochCycles", out.epochCycles);
    fields.string("output", out.output);
    fields.string("trace", out.trace);
}

// --------------------------------------------------------------------
// SimConfig

Json
toJson(const SimConfig &config)
{
    Json out = Json::object();
    out.set("cores", config.cores);
    out.set("instructionBudget", config.instructionBudget);
    out.set("warmupInstructions", config.warmupInstructions);
    out.set("maxCycles", config.maxCycles);
    out.set("fastForward", config.fastForward);
    out.set("cpu", toJson(config.cpu));
    out.set("memory", toJson(config.memory));
    out.set("scheduler", toJson(config.scheduler));
    out.set("telemetry", toJson(config.telemetry));
    return out;
}

void
applyJson(const Json &overrides, SimConfig &out,
          const std::string &context)
{
    Fields fields(overrides, context);
    fields.u32("cores", out.cores);
    fields.u64("instructionBudget", out.instructionBudget);
    fields.u64("warmupInstructions", out.warmupInstructions);
    fields.u64("maxCycles", out.maxCycles);
    fields.boolean("fastForward", out.fastForward);
    if (const Json *v = fields.get("cpu"))
        applyJson(*v, out.cpu, fields.path("cpu"));
    if (const Json *v = fields.get("memory"))
        applyJson(*v, out.memory, fields.path("memory"));
    if (const Json *v = fields.get("scheduler"))
        applyJson(*v, out.scheduler, fields.path("scheduler"));
    if (const Json *v = fields.get("telemetry"))
        applyJson(*v, out.telemetry, fields.path("telemetry"));
}

SimConfig
simConfigFromJson(const Json &overrides, unsigned default_cores)
{
    unsigned cores = default_cores;
    if (const Json *v = overrides.find("cores")) {
        const std::uint64_t wide = v->asUint("config.cores");
        cores = static_cast<unsigned>(wide);
    }
    // baseline(cores) first so channel scaling tracks the core count;
    // explicit "memory.channels" overrides still win below.
    SimConfig config = SimConfig::baseline(cores);
    applyJson(overrides, config, "config");
    return config;
}

// --------------------------------------------------------------------
// Validation

namespace
{

void
check(std::vector<std::string> &problems, bool ok, std::string message)
{
    if (!ok)
        problems.push_back(std::move(message));
}

bool
powerOfTwo(std::uint64_t v)
{
    return v != 0 && std::has_single_bit(v);
}

} // namespace

std::vector<std::string>
validateConfig(const SimConfig &config)
{
    std::vector<std::string> problems;
    const MemoryConfig &mem = config.memory;
    const DramTiming &t = mem.timing;
    const ControllerParams &ctl = mem.controller;
    const CoreParams &cpu = config.cpu;
    const SchedulerConfig &sched = config.scheduler;

    // Run shape ------------------------------------------------------
    check(problems, config.cores >= 1,
          "cores: zero-thread workloads cannot run (cores must be >= 1)");
    check(problems, config.cores <= 32,
          formatMessage("cores: %u exceeds the 32-thread limit of the "
                        "scheduler's per-thread bitmasks",
                        config.cores));
    check(problems, config.instructionBudget > 0,
          "instructionBudget: must be positive");
    check(problems, config.maxCycles > 0, "maxCycles: must be positive");

    // Clock domains --------------------------------------------------
    if (mem.coreFrequencyMHz == 0 || mem.dramBusMHz == 0) {
        problems.push_back("memory: coreFrequencyMHz and dramBusMHz "
                           "must be positive");
    } else {
        check(problems, mem.coreFrequencyMHz % mem.dramBusMHz == 0,
              formatMessage(
                  "memory: non-integer CPU:DRAM clock ratio (%u MHz "
                  "core / %u MHz bus); the simulator ticks the DRAM "
                  "domain on whole CPU cycles",
                  mem.coreFrequencyMHz, mem.dramBusMHz));
        check(problems, mem.coreFrequencyMHz >= mem.dramBusMHz,
              formatMessage("memory: core clock (%u MHz) below the DRAM "
                            "bus clock (%u MHz)",
                            mem.coreFrequencyMHz, mem.dramBusMHz));
    }

    // Geometry (AddressMapping would otherwise assert) ---------------
    check(problems, powerOfTwo(mem.channels),
          formatMessage("memory.channels: %u is not a power of two",
                        mem.channels));
    check(problems, powerOfTwo(mem.banksPerChannel),
          formatMessage(
              "memory.banksPerChannel: %u is not a power of two",
              mem.banksPerChannel));
    check(problems,
          powerOfTwo(mem.bankGroups) &&
              mem.bankGroups <= mem.banksPerChannel &&
              mem.banksPerChannel % mem.bankGroups == 0,
          formatMessage("memory.bankGroups: %u must be a power of two "
                        "dividing the bank count (%u)",
                        mem.bankGroups, mem.banksPerChannel));
    check(problems, powerOfTwo(mem.lineBytes),
          formatMessage("memory.lineBytes: %llu is not a power of two",
                        static_cast<unsigned long long>(mem.lineBytes)));
    check(problems, powerOfTwo(mem.rowsPerBank),
          formatMessage("memory.rowsPerBank: %llu is not a power of two",
                        static_cast<unsigned long long>(
                            mem.rowsPerBank)));
    if (!powerOfTwo(mem.rowBytes) || mem.rowBytes < mem.lineBytes) {
        problems.push_back(formatMessage(
            "memory.rowBytes: %llu must be a power of two and at least "
            "one line (%llu bytes)",
            static_cast<unsigned long long>(mem.rowBytes),
            static_cast<unsigned long long>(mem.lineBytes)));
    }
    check(problems,
          cpu.l1.lineBytes == mem.lineBytes &&
              cpu.l2.lineBytes == mem.lineBytes,
          formatMessage("line size mismatch: L1 %llu / L2 %llu / DRAM "
                        "%llu bytes must agree",
                        static_cast<unsigned long long>(cpu.l1.lineBytes),
                        static_cast<unsigned long long>(cpu.l2.lineBytes),
                        static_cast<unsigned long long>(mem.lineBytes)));

    // DRAM timing ----------------------------------------------------
    check(problems,
          t.tCL > 0 && t.tRCD > 0 && t.tRP > 0 && t.burst > 0,
          "timing: tCL, tRCD, tRP and burst must be positive");
    check(problems, t.tRC >= t.tRAS + t.tRP,
          formatMessage("timing: tRC (%llu) below tRAS + tRP (%llu); "
                        "the row cycle must cover the row active time "
                        "plus the precharge that follows it",
                        static_cast<unsigned long long>(t.tRC),
                        static_cast<unsigned long long>(t.tRAS + t.tRP)));
    check(problems, t.tRTP > 0 && t.tWR > 0,
          "timing: tRTP and tWR must be positive");
    check(problems, t.tCCD_S > 0 && t.tCCD_S <= t.tCCD,
          formatMessage("timing: tCCD_S (%llu) must be in [1, tCCD=%llu]"
                        " (the cross-group gap never exceeds the "
                        "same-group one)",
                        static_cast<unsigned long long>(t.tCCD_S),
                        static_cast<unsigned long long>(t.tCCD)));
    check(problems, t.tRRD_S > 0 && t.tRRD_S <= t.tRRD,
          formatMessage("timing: tRRD_S (%llu) must be in [1, tRRD=%llu]",
                        static_cast<unsigned long long>(t.tRRD_S),
                        static_cast<unsigned long long>(t.tRRD)));
    check(problems, t.tWTR_S > 0 && t.tWTR_S <= t.tWTR,
          formatMessage("timing: tWTR_S (%llu) must be in [1, tWTR=%llu]",
                        static_cast<unsigned long long>(t.tWTR_S),
                        static_cast<unsigned long long>(t.tWTR)));
    check(problems, t.tWL <= t.tCL,
          formatMessage("timing: tWL (%llu) above tCL (%llu)",
                        static_cast<unsigned long long>(t.tWL),
                        static_cast<unsigned long long>(t.tCL)));
    check(problems, t.tFAW >= 3 * t.tRRD,
          formatMessage(
              "timing: tFAW (%llu) inconsistent with tRRD (%llu): four "
              "activates already take 3*tRRD = %llu cycles, so the "
              "four-activate window cannot be shorter",
              static_cast<unsigned long long>(t.tFAW),
              static_cast<unsigned long long>(t.tRRD),
              static_cast<unsigned long long>(3 * t.tRRD)));
    if (ctl.refreshEnabled) {
        check(problems, t.tREFI > t.tRFC,
              formatMessage("timing: refresh interval tREFI (%llu) must "
                            "exceed the refresh cycle tRFC (%llu)",
                            static_cast<unsigned long long>(t.tREFI),
                            static_cast<unsigned long long>(t.tRFC)));
    }

    // Controller buffers ---------------------------------------------
    check(problems, ctl.requestBufferEntries >= 1,
          "controller.requestBufferEntries: must be positive");
    check(problems, ctl.writeBufferEntries >= 1,
          "controller.writeBufferEntries: must be positive");
    check(problems, ctl.writeDrainHigh <= ctl.writeBufferEntries,
          formatMessage("controller: writeDrainHigh (%u) above the "
                        "write buffer capacity (%u)",
                        ctl.writeDrainHigh, ctl.writeBufferEntries));
    check(problems, ctl.writeDrainLow < ctl.writeDrainHigh,
          formatMessage("controller: writeDrainLow (%u) must be below "
                        "writeDrainHigh (%u)",
                        ctl.writeDrainLow, ctl.writeDrainHigh));
    check(problems, ctl.requestBufferEntries >= cpu.mshrs,
          formatMessage(
              "controller.requestBufferEntries (%u) below the per-core "
              "MSHR count (%u): a single core's outstanding misses "
              "could not fit the request buffer, serializing the very "
              "parallelism the MSHRs exist to expose",
              ctl.requestBufferEntries, cpu.mshrs));

    // Core -----------------------------------------------------------
    check(problems,
          cpu.windowSize >= 1 && cpu.fetchWidth >= 1 &&
              cpu.commitWidth >= 1 && cpu.mshrs >= 1 &&
              cpu.maxPendingWritebacks >= 1,
          "cpu: windowSize, fetchWidth, commitWidth, mshrs and "
          "maxPendingWritebacks must be positive");
    const std::pair<const char *, const CacheParams *> caches[] = {
        {"l1", &cpu.l1}, {"l2", &cpu.l2}};
    for (const auto &[label, cache] : caches) {
        check(problems,
              cache->sizeBytes > 0 && cache->ways > 0 &&
                  powerOfTwo(cache->lineBytes) &&
                  cache->sizeBytes % (cache->ways * cache->lineBytes) == 0,
              formatMessage("cpu.%s: size/ways/line geometry is "
                            "inconsistent",
                            label));
    }

    // Scheduler ------------------------------------------------------
    check(problems, sched.alpha >= 1.0,
          formatMessage("scheduler.alpha: %.3f below 1.0 (unfairness is "
                        "a max/min slowdown ratio, never below 1)",
                        sched.alpha));
    check(problems, sched.gamma >= 0.0,
          "scheduler.gamma: must be non-negative");
    check(problems, sched.intervalLength > 0,
          "scheduler.intervalLength: must be positive");
    check(problems, sched.cap >= 1,
          "scheduler.cap: must be at least 1");
    const std::pair<const char *, const std::vector<double> *> lists[] = {
        {"weights", &sched.weights}, {"shares", &sched.shares}};
    for (const auto &[label, values] : lists) {
        if (values->empty())
            continue;
        check(problems, values->size() == config.cores,
              formatMessage("scheduler.%s: %zu entries for %u cores",
                            label, values->size(), config.cores));
        for (const double v : *values) {
            if (v <= 0.0) {
                problems.push_back(formatMessage(
                    "scheduler.%s: entries must be positive", label));
                break;
            }
        }
    }

    // Telemetry ------------------------------------------------------
    check(problems, config.telemetry.epochCycles > 0,
          "telemetry.epochCycles: must be positive (DRAM cycles "
          "between samples)");

    return problems;
}

void
validateOrThrow(const SimConfig &config)
{
    const std::vector<std::string> problems = validateConfig(config);
    if (problems.empty())
        return;
    std::string joined = "invalid configuration:";
    for (const std::string &p : problems) {
        joined += "\n  - ";
        joined += p;
    }
    throw SimError(joined);
}

} // namespace stfm
