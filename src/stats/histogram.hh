/**
 * @file
 * Log-bucketed latency histogram.
 *
 * Buckets are powers of two: bucket k counts samples in [2^k, 2^(k+1)).
 * Constant memory, O(1) insert, and approximate quantiles good enough
 * for latency-distribution reporting (tail behavior is what matters for
 * starvation analysis, and factor-of-two resolution captures it).
 */

#ifndef STFM_STATS_HISTOGRAM_HH
#define STFM_STATS_HISTOGRAM_HH

#include <array>
#include <cstdint>

namespace stfm
{

class LatencyHistogram
{
  public:
    static constexpr unsigned kBuckets = 32;

    /** Record one sample. */
    void add(std::uint64_t value);

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /**
     * Approximate p-quantile (0 < p <= 1): upper edge of the bucket
     * containing the requested rank. quantile(0.5) ~ median,
     * quantile(0.99) ~ tail latency.
     */
    std::uint64_t quantile(double p) const;

    /** Samples in bucket k, i.e. values in [2^k, 2^(k+1)). */
    std::uint64_t bucket(unsigned k) const { return buckets_[k]; }

    /** Merge another histogram into this one. */
    void merge(const LatencyHistogram &other);

  private:
    static unsigned bucketOf(std::uint64_t value);

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

} // namespace stfm

#endif // STFM_STATS_HISTOGRAM_HH
