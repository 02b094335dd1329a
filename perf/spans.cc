#include "spans.hh"

#include <algorithm>
#include <utility>

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int
SpanRecorder::open(const std::string &name, int job)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.job = job;
    span.start = now();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    spans_[id].end = now();
    // ScopedSpan closes innermost-first, so this pops exactly @p id.
    while (!stack_.empty() && stack_.back() >= id)
        stack_.pop_back();
}

double
SpanRecorder::selfSeconds(int id) const
{
    std::vector<std::pair<double, double>> children;
    for (const Span &span : spans_) {
        if (span.parent == id)
            children.emplace_back(span.start, span.end);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = spans_[id].start;
    for (const auto &[start, end] : children) {
        const double from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
            reach = end;
        }
    }
    return spans_[id].seconds() - covered;
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const double s : durations(name))
        total += s;
    return total;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name)
            out.push_back(span.seconds());
    }
    return out;
}

stfm::Json
SpanRecorder::toJson() const
{
    stfm::Json events = stfm::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        stfm::Json args = stfm::Json::object();
        args.set("id", static_cast<int>(i));
        args.set("parent", span.parent);
        args.set("job", span.job);
        args.set("self_s", selfSeconds(static_cast<int>(i)));
        stfm::Json event = stfm::Json::object();
        event.set("name", span.name);
        event.set("ph", "X");
        event.set("ts", span.start * 1e6);
        event.set("dur", span.seconds() * 1e6);
        event.set("pid", 1);
        event.set("tid", 1);
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    stfm::Json doc = stfm::Json::object();
    doc.set("displayTimeUnit", "ms");
    doc.set("traceEvents", std::move(events));
    return doc;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Distribution
distribution(std::vector<double> values)
{
    Distribution d;
    d.count = values.size();
    d.p50 = median(values);
    d.tail = d.p50;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    for (const unsigned p : {99u, 95u, 90u, 75u}) {
        const std::size_t rank = (p * n + 99) / 100; // ceil(p/100 * n)
        if (rank >= 1 && n - rank >= 10) {
            d.tailPercentile = p;
            d.tail = values[rank - 1];
            break;
        }
    }
    return d;
}

} // namespace perfbench
