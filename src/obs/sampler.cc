#include "obs/sampler.hh"

#include "obs/telemetry.hh"
#include "stats/histogram.hh"

namespace stfm
{

EpochSampler::EpochSampler(const TelemetryRegistry &registry,
                           std::uint64_t epoch_cycles)
    : registry_(registry), epochCycles_(epoch_cycles ? epoch_cycles : 1)
{
    values_.resize(registry_.size());
}

void
EpochSampler::sample(DramCycles dram_now)
{
    // Registrations happen before the first boundary; tolerate a
    // registry that grew since construction (tests build them apart).
    if (values_.size() < registry_.size())
        values_.resize(registry_.size());

    cycles_.push_back(dram_now);
    const auto &series = registry_.series();
    for (std::size_t s = 0; s < series.size(); ++s)
        values_[s].push_back(series[s].sample ? series[s].sample() : 0.0);
    nextEpoch_ = (dram_now / epochCycles_ + 1) * epochCycles_;
}

void
EpochSampler::finalize(DramCycles dram_now)
{
    if (finalized_)
        return;
    finalized_ = true;
    if (cycles_.empty() || cycles_.back() != dram_now)
        sample(dram_now);
}

Json
EpochSampler::toJson() const
{
    Json doc = Json::object();
    doc.set("schema", "stfm-telemetry-v1");
    doc.set("clock", "dram-cycles");
    doc.set("epochCycles", epochCycles_);

    Json defs = Json::array();
    for (const TelemetrySeries &s : registry_.series()) {
        Json def = Json::object();
        def.set("name", s.name);
        def.set("kind",
                s.kind == SeriesKind::Counter ? "counter" : "gauge");
        def.set("unit", s.unit);
        def.set("subsystem", s.subsystem);
        defs.push(std::move(def));
    }
    doc.set("series", std::move(defs));

    Json samples = Json::object();
    Json cycles = Json::array();
    for (const DramCycles c : cycles_)
        cycles.push(Json(static_cast<std::uint64_t>(c)));
    samples.set("cycles", std::move(cycles));

    Json values = Json::object();
    const auto &series = registry_.series();
    for (std::size_t s = 0; s < series.size(); ++s) {
        Json column = Json::array();
        // A series registered after earlier samples were taken reads
        // as absent for those epochs; pad from the front with zeros so
        // every column has one value per recorded cycle.
        const std::size_t have =
            s < values_.size() ? values_[s].size() : 0;
        for (std::size_t i = 0; i < cycles_.size(); ++i) {
            const std::size_t missing = cycles_.size() - have;
            column.push(Json(i < missing ? 0.0
                                         : values_[s][i - missing]));
        }
        values.set(series[s].name, std::move(column));
    }
    samples.set("values", std::move(values));
    doc.set("samples", std::move(samples));

    Json final_values = Json::object();
    for (std::size_t s = 0; s < series.size(); ++s) {
        final_values.set(series[s].name,
                         series[s].sample ? series[s].sample() : 0.0);
    }
    doc.set("final", std::move(final_values));

    Json histograms = Json::array();
    for (const TelemetryHistogram &h : registry_.histograms()) {
        Json hist = Json::object();
        hist.set("name", h.name);
        hist.set("unit", h.unit);
        hist.set("subsystem", h.subsystem);
        const Json stats = latencyHistogramToJson(*h.histogram);
        for (const auto &[key, value] : stats.asObject("histogram"))
            hist.set(key, value);
        histograms.push(std::move(hist));
    }
    doc.set("histograms", std::move(histograms));
    return doc;
}

} // namespace stfm
