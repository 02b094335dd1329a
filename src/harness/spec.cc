#include "harness/spec.hh"

#include "common/logging.hh"
#include "sim/config_io.hh"

namespace stfm
{

namespace
{

/** Key check: throw on any member of @p json not in @p known. */
void
rejectUnknownKeys(const Json &json, const std::string &context,
                  std::initializer_list<const char *> known)
{
    for (const auto &[key, value] : json.asObject(context)) {
        (void)value;
        bool found = false;
        for (const char *k : known)
            found = found || key == k;
        if (!found) {
            throw SimError(formatMessage("%s: unknown key '%s'",
                                         context.c_str(), key.c_str()));
        }
    }
}

TraceProfile
traceProfileFromJson(const Json &json, const std::string &context)
{
    rejectUnknownKeys(json, context,
                      {"mpki", "rowBufferHitRate", "burstDuty",
                       "burstLength", "streamCount", "bankSpread",
                       "storeFraction", "streamingStores",
                       "dependentFraction", "hitAccessesPer1k"});
    TraceProfile profile;
    const auto num = [&](const char *key, double &out) {
        if (const Json *v = json.find(key))
            out = v->asDouble(context + "." + key);
    };
    const auto fraction = [&](const char *key, double &out) {
        num(key, out);
        if (!(out >= 0.0 && out <= 1.0)) {
            throw SimError(formatMessage("%s.%s: must be within [0, 1]",
                                         context.c_str(), key));
        }
    };
    const auto u32 = [&](const char *key, unsigned &out) {
        if (const Json *v = json.find(key))
            out = v->asUint32(context + "." + key);
    };
    num("mpki", profile.mpki);
    if (!(profile.mpki > 0.0))
        throw SimError(context + ".mpki: must be positive");
    fraction("rowBufferHitRate", profile.rowBufferHitRate);
    fraction("burstDuty", profile.burstDuty);
    u32("burstLength", profile.burstLength);
    if (profile.burstLength == 0)
        throw SimError(context + ".burstLength: must be at least 1");
    u32("streamCount", profile.streamCount);
    u32("bankSpread", profile.bankSpread);
    fraction("storeFraction", profile.storeFraction);
    if (const Json *v = json.find("streamingStores"))
        profile.streamingStores = v->asBool(context + ".streamingStores");
    fraction("dependentFraction", profile.dependentFraction);
    num("hitAccessesPer1k", profile.hitAccessesPer1k);
    return profile;
}

Json
toJson(const TraceProfile &profile)
{
    Json out = Json::object();
    out.set("mpki", profile.mpki);
    out.set("rowBufferHitRate", profile.rowBufferHitRate);
    out.set("burstDuty", profile.burstDuty);
    out.set("burstLength", profile.burstLength);
    out.set("streamCount", profile.streamCount);
    out.set("bankSpread", profile.bankSpread);
    out.set("storeFraction", profile.storeFraction);
    out.set("streamingStores", profile.streamingStores);
    out.set("dependentFraction", profile.dependentFraction);
    out.set("hitAccessesPer1k", profile.hitAccessesPer1k);
    return out;
}

/**
 * A scheduler entry's "config": SimConfig overrides, checked eagerly so
 * `stfm validate` reports a bad key with its field path. The entry
 * fixes neither the core count (the workload does) nor the policy (the
 * entry itself does).
 */
Json
entryOverridesFromJson(const Json &json, const std::string &context)
{
    for (const auto &[key, value] : json.asObject(context)) {
        (void)value;
        if (key == "cores" || key == "scheduler") {
            throw SimError(formatMessage(
                "%s.%s: not settable per entry (the workload fixes the "
                "core count, the entry its policy)",
                context.c_str(), key.c_str()));
        }
    }
    SimConfig probe;
    applyJson(json, probe, context);
    return json;
}

SchedulerEntry
schedulerEntryFromJson(const Json &json, const std::string &context)
{
    SchedulerEntry entry;
    if (json.type() == Json::Type::String) {
        entry.config.kind =
            policyKindFromName(json.asString(context));
        entry.label = toString(entry.config.kind);
        return entry;
    }
    // Object form: "label"/"device"/"config" are ours; everything else
    // is SchedulerConfig.
    Json params = Json::object();
    for (const auto &[key, value] : json.asObject(context)) {
        if (key == "label")
            entry.label = value.asString(context + ".label");
        else if (key == "device")
            entry.device = value.asString(context + ".device");
        else if (key == "config")
            entry.overrides = entryOverridesFromJson(value,
                                                     context + ".config");
        else
            params.set(key, value);
    }
    applyJson(params, entry.config, context);
    if (entry.label.empty())
        entry.label = toString(entry.config.kind);
    return entry;
}

WorkloadSample
sampleFromJson(const Json &json, const std::string &context)
{
    rejectUnknownKeys(json, context, {"cores", "count", "seed"});
    WorkloadSample sample;
    if (const Json *v = json.find("cores"))
        sample.cores = v->asUint32(context + ".cores");
    if (const Json *v = json.find("count"))
        sample.count = v->asUint32(context + ".count");
    if (const Json *v = json.find("seed"))
        sample.seed = v->asUint(context + ".seed");
    return sample;
}

} // namespace

std::vector<std::string>
namedWorkloadCatalog()
{
    return {"fig1_four_core",  "fig1_eight_core",    "case_intensive",
            "case_mixed",      "case_non_intensive", "eight_core_case",
            "desktop",         "weighted",           "sixteen_core",
            "eight_core_samples"};
}

std::vector<Workload>
namedWorkloads(const std::string &name)
{
    if (name == "fig1_four_core")
        return {workloads::fig1FourCore()};
    if (name == "fig1_eight_core")
        return {workloads::fig1EightCore()};
    if (name == "case_intensive")
        return {workloads::caseIntensive()};
    if (name == "case_mixed")
        return {workloads::caseMixed()};
    if (name == "case_non_intensive")
        return {workloads::caseNonIntensive()};
    if (name == "eight_core_case")
        return {workloads::eightCoreCase()};
    if (name == "desktop")
        return {workloads::desktop()};
    if (name == "weighted")
        return {workloads::weighted()};
    if (name == "sixteen_core")
        return workloads::sixteenCore();
    if (name == "eight_core_samples")
        return workloads::eightCoreSamples();

    std::string known;
    for (const std::string &n : namedWorkloadCatalog()) {
        if (!known.empty())
            known += ", ";
        known += n;
    }
    throw SimError(formatMessage("unknown workload name '%s' (known: %s)",
                                 name.c_str(), known.c_str()));
}

BenchmarkProfile
inlineBenchmark(const std::string &name, const TraceProfile &trace)
{
    BenchmarkProfile bench;
    bench.name = name;
    bench.trace = trace;
    bench.paperMpki = trace.mpki;
    bench.paperRowHit = trace.rowBufferHitRate;
    return bench;
}

ExperimentSpec
specFromJson(const Json &json)
{
    rejectUnknownKeys(json, "spec",
                      {"name", "title", "workloads", "sample",
                       "schedulers", "devices", "config", "telemetry",
                       "budget", "labelRows", "repeat", "seed", "jobs",
                       "attempts", "benchmarks"});

    ExperimentSpec spec;
    spec.name = json.at("name", "spec").asString("spec.name");
    if (const Json *v = json.find("title"))
        spec.title = v->asString("spec.title");

    if (const Json *v = json.find("workloads")) {
        const Json::Array &items = v->asArray("spec.workloads");
        for (std::size_t i = 0; i < items.size(); ++i) {
            const std::string context =
                formatMessage("spec.workloads[%zu]", i);
            const Json &item = items[i];
            if (item.type() == Json::Type::String) {
                for (Workload &w :
                     namedWorkloads(item.asString(context)))
                    spec.workloads.push_back(std::move(w));
                continue;
            }
            Workload mix;
            for (const Json &bench : item.asArray(context))
                mix.push_back(bench.asString(context + "[]"));
            if (mix.empty()) {
                throw SimError(context +
                               ": inline workload mix is empty");
            }
            spec.workloads.push_back(std::move(mix));
        }
    }

    if (const Json *v = json.find("sample"))
        spec.sample = sampleFromJson(*v, "spec.sample");

    if (const Json *v = json.find("schedulers")) {
        if (v->type() == Json::Type::String) {
            const std::string shorthand =
                v->asString("spec.schedulers");
            if (shorthand != "paper") {
                throw SimError(formatMessage(
                    "spec.schedulers: unknown shorthand '%s' (only "
                    "\"paper\", or a list of entries)",
                    shorthand.c_str()));
            }
            // Empty = paper schedulers (resolved by the engine).
        } else {
            const Json::Array &items = v->asArray("spec.schedulers");
            for (std::size_t i = 0; i < items.size(); ++i) {
                spec.schedulers.push_back(schedulerEntryFromJson(
                    items[i],
                    formatMessage("spec.schedulers[%zu]", i)));
            }
            if (spec.schedulers.empty())
                throw SimError("spec.schedulers: empty scheduler list");
        }
    }

    if (const Json *v = json.find("devices")) {
        const Json::Array &items = v->asArray("spec.devices");
        for (std::size_t i = 0; i < items.size(); ++i) {
            spec.devices.push_back(items[i].asString(
                formatMessage("spec.devices[%zu]", i)));
        }
        if (spec.devices.empty())
            throw SimError("spec.devices: empty device list");
    }

    if (const Json *v = json.find("config"))
        spec.config = *v;

    if (const Json *v = json.find("telemetry")) {
        // Validate eagerly so `stfm validate` reports telemetry.* key
        // errors without having to resolve the whole experiment.
        TelemetryConfig probe;
        applyJson(*v, probe, "telemetry");
        spec.telemetry = *v;
    }

    if (const Json *v = json.find("budget"))
        spec.budget = v->asUint("spec.budget");
    if (const Json *v = json.find("labelRows")) {
        spec.labelRows =
            static_cast<std::size_t>(v->asUint("spec.labelRows"));
    }
    if (const Json *v = json.find("repeat")) {
        spec.repeat = v->asUint32("spec.repeat");
        if (spec.repeat == 0)
            throw SimError("spec.repeat: must be at least 1");
    }
    if (const Json *v = json.find("seed"))
        spec.seed = v->asUint("spec.seed");
    if (const Json *v = json.find("jobs"))
        spec.jobs = v->asUint32("spec.jobs");
    if (const Json *v = json.find("attempts")) {
        spec.attempts = v->asUint32("spec.attempts");
        if (spec.attempts == 0)
            throw SimError("spec.attempts: must be at least 1");
    }

    if (const Json *v = json.find("benchmarks")) {
        for (const auto &[name, profile] :
             v->asObject("spec.benchmarks")) {
            spec.benchmarks.emplace_back(
                name, inlineBenchmark(name, traceProfileFromJson(
                                                profile,
                                                "spec.benchmarks." + name)));
        }
    }

    if (spec.workloads.empty() && !spec.sample) {
        throw SimError("spec: zero-thread experiment — give 'workloads' "
                       "and/or 'sample'");
    }
    return spec;
}

ExperimentSpec
specFromText(const std::string &text)
{
    return specFromJson(Json::parse(text));
}

Json
toJson(const SchedulerEntry &entry)
{
    Json out = Json::object();
    out.set("label", entry.label);
    if (!entry.device.empty())
        out.set("device", entry.device);
    if (!entry.overrides.asObject("config").empty())
        out.set("config", entry.overrides);
    // Keep the serialized config alive past the loop: a range-for over
    // the temporary's Object would dangle (no lifetime extension
    // through asObject's reference return).
    const Json config = toJson(entry.config);
    for (const auto &[key, value] : config.asObject("scheduler"))
        out.set(key, value);
    return out;
}

Json
toJson(const ExperimentSpec &spec)
{
    Json out = Json::object();
    out.set("name", spec.name);
    if (!spec.title.empty())
        out.set("title", spec.title);

    if (!spec.workloads.empty()) {
        Json list = Json::array();
        for (const Workload &w : spec.workloads) {
            Json mix = Json::array();
            for (const std::string &bench : w)
                mix.push(Json(bench));
            list.push(std::move(mix));
        }
        out.set("workloads", std::move(list));
    }
    if (spec.sample) {
        Json sample = Json::object();
        sample.set("cores", spec.sample->cores);
        sample.set("count", spec.sample->count);
        sample.set("seed", spec.sample->seed);
        out.set("sample", std::move(sample));
    }

    if (spec.schedulers.empty()) {
        out.set("schedulers", "paper");
    } else {
        Json list = Json::array();
        for (const SchedulerEntry &entry : spec.schedulers)
            list.push(toJson(entry));
        out.set("schedulers", std::move(list));
    }
    if (!spec.devices.empty()) {
        Json list = Json::array();
        for (const std::string &device : spec.devices)
            list.push(Json(device));
        out.set("devices", std::move(list));
    }

    if (!spec.config.asObject("config").empty())
        out.set("config", spec.config);
    if (!spec.telemetry.asObject("telemetry").empty())
        out.set("telemetry", spec.telemetry);
    if (spec.budget)
        out.set("budget", spec.budget);
    if (spec.labelRows != static_cast<std::size_t>(-1))
        out.set("labelRows", static_cast<std::uint64_t>(spec.labelRows));
    if (spec.repeat != 1)
        out.set("repeat", spec.repeat);
    if (spec.seed)
        out.set("seed", spec.seed);
    if (spec.jobs)
        out.set("jobs", spec.jobs);
    if (spec.attempts != 1)
        out.set("attempts", spec.attempts);

    if (!spec.benchmarks.empty()) {
        Json benches = Json::object();
        for (const auto &[name, bench] : spec.benchmarks)
            benches.set(name, toJson(bench.trace));
        out.set("benchmarks", std::move(benches));
    }
    return out;
}

} // namespace stfm
