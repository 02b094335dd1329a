#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace stfm
{

unsigned
LatencyHistogram::bucketOf(std::uint64_t value)
{
    if (value == 0)
        return 0;
    const unsigned k = 63 - static_cast<unsigned>(std::countl_zero(value));
    return std::min(k, kBuckets - 1);
}

void
LatencyHistogram::add(std::uint64_t value)
{
    ++buckets_[bucketOf(value)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
LatencyHistogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / count_ : 0.0;
}

std::uint64_t
LatencyHistogram::quantile(double p) const
{
    STFM_ASSERT(p > 0.0 && p <= 1.0, "quantile out of range");
    if (count_ == 0)
        return 0;
    // Ceiling rank: with 10 samples, p99 must land on the 10th (the
    // tail outlier), not the 9th.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (unsigned k = 0; k < kBuckets; ++k) {
        seen += buckets_[k];
        if (seen >= rank && buckets_[k] > 0)
            return std::min<std::uint64_t>((2ULL << k) - 1, max_);
    }
    return max_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (unsigned k = 0; k < kBuckets; ++k)
        buckets_[k] += other.buckets_[k];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

} // namespace stfm
