#include "harness/env_overrides.hh"

#include <cstdlib>

#include "sim/device_io.hh"

namespace stfm
{

namespace
{

/** Boolean env convention: set and not exactly "0". */
bool
flagSet(const char *name)
{
    const char *env = std::getenv(name);
    return env && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

/** Positive-integer env value, or nullopt when unset/unparsable. */
std::optional<long long>
positiveValue(const char *name)
{
    if (const char *env = std::getenv(name)) {
        const long long parsed = std::atoll(env);
        if (parsed > 0)
            return parsed;
    }
    return std::nullopt;
}

} // namespace

EnvOverrides
EnvOverrides::capture()
{
    EnvOverrides env;
    if (const auto v = positiveValue("STFM_INSTRUCTIONS"))
        env.instructionBudget = static_cast<std::uint64_t>(*v);
    env.reference = flagSet("STFM_REFERENCE");
    env.check = flagSet("STFM_CHECK");
    if (const auto v = positiveValue("STFM_JOBS"))
        env.jobs = static_cast<unsigned>(*v);
    env.telemetry = flagSet("STFM_TELEMETRY");
    if (env.telemetry) {
        const char *value = std::getenv("STFM_TELEMETRY");
        if (value && !(value[0] == '1' && value[1] == '\0'))
            env.telemetryOutput = value;
    }
    if (const char *trace = std::getenv("STFM_TRACE")) {
        if (trace[0] != '\0')
            env.tracePath = trace;
    }
    if (const char *device = std::getenv("STFM_DEVICE")) {
        if (device[0] != '\0')
            env.device = device;
    }
    return env;
}

void
EnvOverrides::apply(SimConfig &config) const
{
    if (instructionBudget)
        config.instructionBudget = *instructionBudget;
    if (reference)
        config.fastForward = false;
    if (check) {
        config.memory.controller.integrity.protocolCheck = true;
        config.memory.controller.integrity.watchdog = true;
    }
    if (telemetry) {
        config.telemetry.enabled = true;
        if (!telemetryOutput.empty())
            config.telemetry.output = telemetryOutput;
    }
    if (!tracePath.empty())
        config.telemetry.trace = tracePath;
    if (!device.empty())
        applyDevice(config.memory, device);
}

Json
EnvOverrides::toJson() const
{
    Json out = Json::object();
    if (instructionBudget)
        out.set("STFM_INSTRUCTIONS", *instructionBudget);
    if (reference)
        out.set("STFM_REFERENCE", true);
    if (check)
        out.set("STFM_CHECK", true);
    if (telemetry) {
        out.set("STFM_TELEMETRY",
                telemetryOutput.empty() ? std::string("1")
                                        : telemetryOutput);
    }
    if (!tracePath.empty())
        out.set("STFM_TRACE", tracePath);
    if (!device.empty())
        out.set("STFM_DEVICE", device);
    return out;
}

} // namespace stfm
