#include "report/quantile.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace stfm
{
namespace report
{

void
MetricSketch::add(double value)
{
    samples_.insert(
        std::upper_bound(samples_.begin(), samples_.end(), value),
        value);
}

double
MetricSketch::mean() const
{
    if (empty())
        return 0.0;
    double sum = 0.0;
    for (const double value : samples_)
        sum += value;
    return sum / static_cast<double>(samples_.size());
}

double
MetricSketch::quantile(double p) const
{
    STFM_ASSERT(p > 0.0 && p <= 1.0, "quantile out of range");
    if (empty())
        return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(samples_.size()))));
    return samples_[static_cast<std::size_t>(rank - 1)];
}

Json
MetricSketch::toJson() const
{
    Json out = Json::object();
    out.set("count", count());
    out.set("min", min());
    out.set("max", max());
    out.set("mean", mean());
    out.set("p50", quantile(0.5));
    out.set("p95", quantile(0.95));
    out.set("p99", quantile(0.99));
    Json values = Json::array();
    for (const double value : samples_)
        values.push(Json(value));
    out.set("samples", std::move(values));
    return out;
}

} // namespace report
} // namespace stfm
