/**
 * @file
 * Benchmark catalog: the 26 SPEC CPU2006 profiles of the paper's
 * Table 3 plus the 4 Windows desktop applications of Table 4.
 *
 * Each profile records the published characteristics (L2 MPKI,
 * row-buffer hit rate, intensity category) and the behavioral traits
 * the paper describes in prose (burstiness, bank-access balance,
 * memory-level parallelism). The synthetic trace generator turns a
 * profile into an address stream with those properties; `stfm table3`
 * verifies the calibration by measuring MCPI / MPKI / row-buffer hit
 * rate of each benchmark running alone.
 */

#ifndef STFM_TRACE_CATALOG_HH
#define STFM_TRACE_CATALOG_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/generator.hh"

namespace stfm
{

/** A cataloged benchmark: identity + published stats + trace profile. */
struct BenchmarkProfile
{
    std::string name;
    const char *type = "INT"; ///< INT or FP (reporting only).
    /** Published memory cycles per instruction (reference, Table 3/4). */
    double paperMcpi = 0.0;
    /** Published L2 misses per kilo-instruction. */
    double paperMpki = 0.0;
    /** Published row-buffer hit rate. */
    double paperRowHit = 0.0;
    /** Paper category: 0/1 not intensive, 2/3 intensive; odd = high RB. */
    int category = 0;
    /** Generator knobs derived from the published characteristics. */
    TraceProfile trace;
};

/** The full catalog (SPEC first, in the paper's intensity order). */
const std::vector<BenchmarkProfile> &benchmarkCatalog();

/** The Table 4 desktop applications. */
const std::vector<BenchmarkProfile> &desktopCatalog();

/**
 * Look up a benchmark by name in both catalogs.
 * @throws SimError if the name is unknown (recoverable, so sweeps can
 *         skip a misconfigured workload instead of dying).
 */
const BenchmarkProfile &findBenchmark(const std::string &name);

/** True if the benchmark is memory-intensive (category 2 or 3). */
bool isIntensive(const BenchmarkProfile &profile);

/** Deterministic per-benchmark seed (hash of the name). */
std::uint64_t benchmarkSeed(const std::string &name);

/**
 * Build the synthetic trace of @p profile for core @p thread in a
 * system with @p num_threads cores and the given mapping.
 *
 * @param seed_salt 0 reproduces the canonical per-benchmark stream;
 *                  nonzero values reseed it (harness retry path).
 */
std::unique_ptr<TraceSource>
makeBenchmarkTrace(const BenchmarkProfile &profile,
                   const AddressMapping &mapping, ThreadId thread,
                   unsigned num_threads, std::uint64_t seed_salt = 0);

} // namespace stfm

#endif // STFM_TRACE_CATALOG_HH
