/**
 * stfm_perf: one benchmark run of the STFM simulator.
 *
 *   stfm_perf --workload <sweep4|intensive16|light16> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans-out <path>]
 *   stfm_perf worker          (fleet shard executor, see fleet/worker.hh)
 *
 * Prints progress on stderr and, as the last line of stdout, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. perf/run.py
 * builds this binary from source and forwards its arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.hh"
#include "fleet/worker.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: stfm_perf --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
                 why);
    return 2;
}

/**
 * Drop every STFM_* variable, so the simulator sees only the generated
 * spec (budget, reference path, checking, devices and faults are all
 * environment-overridable) — in this process and in fleet workers.
 */
void
clearSimulatorEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env; ++env) {
        if (std::strncmp(*env, "STFM_", 5) == 0) {
            const char *eq = std::strchr(*env, '=');
            names.emplace_back(*env, eq ? eq - *env : std::strlen(*env));
        }
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "worker")
        return stfm::fleet::workerMain();

    perfbench::Options options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc)
                return usage(("missing value for " + arg).c_str());
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value, nullptr, 0);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (arg == "--spans-out") {
                options.spansOut = value;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }
    if (options.workload.empty())
        return usage("--workload is required");

    clearSimulatorEnvironment();
    try {
        const std::string line = perfbench::runBenchmark(options);
        std::fflush(stderr);
        std::printf("%s\n", line.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
