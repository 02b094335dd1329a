/**
 * Self-tests of the benchmark (not of the simulator):
 *
 *  - the metric catalog and the printed result line match
 *    BENCHMARK.json by name, unit and order;
 *  - a perturbed SimResult or MetricsReport field trips the output
 *    check, as do failed, truncated and limit-hitting runs;
 *  - the composed per-layer path reproduces runMany bit for bit, on the
 *    fast-forward and on the reference path;
 *  - child spans lie inside their parents and self times are >= 0.
 *
 * Usage: perf_selftest <path to BENCHMARK.json>   (ctest passes it)
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "fleet/worker.hh"

namespace
{

int g_failures = 0;

#define EXPECT(cond)                                                      \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ++g_failures;                                                 \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__,        \
                         __LINE__, #cond);                                \
        }                                                                 \
    } while (0)

// Tiny budgets keep the self-tests to seconds; the checks under test
// do not depend on the budget.
constexpr std::uint64_t kTinyBudget = 2000;

stfm::Json
readJson(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return stfm::Json::parse(text.str());
}

/** (name, unit) pairs of one BENCHMARK.json metric list. */
std::vector<std::pair<std::string, std::string>>
declared(const stfm::Json &benchmark, const char *list)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const stfm::Json &m : benchmark.at(list).asArray())
        out.emplace_back(m.at("name").asString(), m.at("unit").asString());
    return out;
}

std::vector<std::pair<std::string, std::string>>
catalogPairs(const std::vector<perfbench::MetricDef> &catalog)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const perfbench::MetricDef &def : catalog)
        out.emplace_back(def.name, def.unit);
    return out;
}

/** (name, unit) pairs of a printed result line, in print order. */
std::vector<std::pair<std::string, std::string>>
printed(const stfm::Json &line)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &[name, entry] : line.at("metrics").asObject())
        out.emplace_back(name, entry.at("unit").asString());
    return out;
}

void
testCatalogMatchesBenchmarkJson(const stfm::Json &benchmark)
{
    std::vector<std::string> workloads;
    for (const stfm::Json &w : benchmark.at("workloads").asArray())
        workloads.push_back(w.at("name").asString());
    EXPECT(workloads == perfbench::workloadNames());
    EXPECT(declared(benchmark, "end_to_end") ==
           catalogPairs(perfbench::endToEndMetrics()));
    EXPECT(declared(benchmark, "per_layer") ==
           catalogPairs(perfbench::perLayerMetrics()));
}

void
testPrintedMetricsMatchBenchmarkJson(const stfm::Json &benchmark)
{
    perfbench::Options options;
    options.workload = "sweep4";
    options.seed = 5;
    options.seconds = 0.0;
    options.budget = kTinyBudget;
    for (const bool trace : {false, true}) {
        options.trace = trace;
        const stfm::Json line =
            stfm::Json::parse(perfbench::runBenchmark(options));
        EXPECT(printed(line) ==
               declared(benchmark, trace ? "per_layer" : "end_to_end"));
        EXPECT(line.at("correct").asBool());
        EXPECT(line.at("failed").asUint() == 0);
        EXPECT(line.at("attempted").asUint() >= 1);
        if (!trace) {
            for (const auto &[name, entry] : line.at("metrics").asObject())
                EXPECT(entry.at("value").asDouble() > 0.0);
        }
    }
}

stfm::SimResult
sampleResult()
{
    stfm::SimResult r;
    r.totalCycles = 1000;
    for (int t = 0; t < 2; ++t) {
        stfm::ThreadResult x;
        x.instructions = 500;
        x.cycles = 900;
        x.memStallCycles = 300;
        x.l2Misses = 7;
        x.dramReads = 6;
        x.dramWrites = 2;
        x.rowHits = 3;
        x.rowClosed = 2;
        x.rowConflicts = 1;
        x.readLatencyMean = 41.5;
        x.readLatencyP50 = 40;
        x.readLatencyP99 = 90;
        x.readLatencyMax = 120;
        r.threads.push_back(x);
    }
    return r;
}

void
testPerturbedFieldsTripTheCheck()
{
    const stfm::SimResult base = sampleResult();
    EXPECT(perfbench::simResultDiff(base, base).empty());

    using Mutation = void (*)(stfm::SimResult &);
    const std::vector<std::pair<std::string, Mutation>> mutations = {
        {"totalCycles", [](stfm::SimResult &r) { ++r.totalCycles; }},
        {"hitCycleLimit", [](stfm::SimResult &r) { r.hitCycleLimit = true; }},
        {"threads.size", [](stfm::SimResult &r) { r.threads.pop_back(); }},
        {"instructions",
         [](stfm::SimResult &r) { ++r.threads[1].instructions; }},
        {"cycles", [](stfm::SimResult &r) { ++r.threads[1].cycles; }},
        {"memStallCycles",
         [](stfm::SimResult &r) { ++r.threads[1].memStallCycles; }},
        {"l2Misses", [](stfm::SimResult &r) { ++r.threads[1].l2Misses; }},
        {"dramReads", [](stfm::SimResult &r) { ++r.threads[1].dramReads; }},
        {"dramWrites",
         [](stfm::SimResult &r) { ++r.threads[1].dramWrites; }},
        {"rowHits", [](stfm::SimResult &r) { ++r.threads[1].rowHits; }},
        {"rowClosed", [](stfm::SimResult &r) { ++r.threads[1].rowClosed; }},
        {"rowConflicts",
         [](stfm::SimResult &r) { ++r.threads[1].rowConflicts; }},
        {"readLatencyMean",
         [](stfm::SimResult &r) {
             r.threads[1].readLatencyMean =
                 std::nextafter(r.threads[1].readLatencyMean, 1e9);
         }},
        {"readLatencyP50",
         [](stfm::SimResult &r) { ++r.threads[1].readLatencyP50; }},
        {"readLatencyP99",
         [](stfm::SimResult &r) { ++r.threads[1].readLatencyP99; }},
        {"readLatencyMax",
         [](stfm::SimResult &r) { ++r.threads[1].readLatencyMax; }},
    };
    for (const auto &[field, mutate] : mutations) {
        stfm::SimResult changed = base;
        mutate(changed);
        const std::string diff = perfbench::simResultDiff(base, changed);
        EXPECT(diff.find(field) != std::string::npos);
    }

    stfm::MetricsReport m;
    m.slowdowns = {1.5, 2.0};
    m.relIpc = {0.7, 0.5};
    m.unfairness = 1.33;
    m.weightedSpeedup = 1.2;
    m.hmeanSpeedup = 0.58;
    m.sumOfIpcs = 1.9;
    EXPECT(perfbench::metricsDiff(m, m).empty());
    using MetricsMutation = void (*)(stfm::MetricsReport &);
    const std::vector<MetricsMutation> metricMutations = {
        [](stfm::MetricsReport &r) { r.slowdowns[0] += 1e-12; },
        [](stfm::MetricsReport &r) { r.relIpc[1] += 1e-12; },
        [](stfm::MetricsReport &r) { r.unfairness += 1e-12; },
        [](stfm::MetricsReport &r) { r.weightedSpeedup += 1e-12; },
        [](stfm::MetricsReport &r) { r.hmeanSpeedup += 1e-12; },
        [](stfm::MetricsReport &r) { r.sumOfIpcs += 1e-12; },
    };
    for (const MetricsMutation mutate : metricMutations) {
        stfm::MetricsReport changed = m;
        mutate(changed);
        EXPECT(!perfbench::metricsDiff(m, changed).empty());
    }

    stfm::RunOutcome ok;
    ok.shared = base;
    ok.metrics = m;
    EXPECT(perfbench::outcomeProblem(ok, 2).empty());
    stfm::RunOutcome failed = ok;
    failed.failed = true;
    EXPECT(!perfbench::outcomeProblem(failed, 2).empty());
    stfm::RunOutcome limited = ok;
    limited.shared.hitCycleLimit = true;
    EXPECT(!perfbench::outcomeProblem(limited, 2).empty());
    stfm::RunOutcome empty = ok;
    empty.shared.threads[0].instructions = 0;
    EXPECT(!perfbench::outcomeProblem(empty, 2).empty());
    stfm::RunOutcome unfair = ok;
    unfair.metrics.unfairness = 0.5;
    EXPECT(!perfbench::outcomeProblem(unfair, 2).empty());
    EXPECT(!perfbench::outcomeProblem(ok, 4).empty());

    // A failed operation, an unset metric and an unknown metric each
    // make the result line incorrect.
    const std::vector<perfbench::MetricDef> catalog = {{"a_s", "s"}};
    perfbench::Report good(catalog);
    good.operation("");
    good.set("a_s", 1.0);
    EXPECT(stfm::Json::parse(good.line()).at("correct").asBool());
    perfbench::Report bad(catalog);
    bad.operation("mismatch");
    bad.set("a_s", 1.0);
    const stfm::Json badLine = stfm::Json::parse(bad.line());
    EXPECT(!badLine.at("correct").asBool());
    EXPECT(badLine.at("failed").asUint() == 1);
    perfbench::Report unset(catalog);
    EXPECT(!stfm::Json::parse(unset.line()).at("correct").asBool());
    perfbench::Report unknown(catalog);
    unknown.set("a_s", 1.0);
    unknown.set("b_s", 1.0);
    EXPECT(!stfm::Json::parse(unknown.line()).at("correct").asBool());
}

void
testComposedPathEqualsRunMany()
{
    const std::string text =
        perfbench::workloadSpecText("sweep4", 3, kTinyBudget);
    perfbench::FigurePass pass = perfbench::runFigurePass(text);
    EXPECT(pass.result.outcomes.size() == pass.plan.jobs.size());
    for (std::size_t j = 0; j < pass.plan.jobs.size(); ++j) {
        const stfm::RunOutcome &expected = pass.result.outcomes[j];
        const perfbench::ComposedRun run =
            perfbench::runComposed(pass.plan.jobs[j], *pass.runner, true);
        EXPECT(perfbench::simResultDiff(run.shared, expected.shared)
                   .empty());
        EXPECT(perfbench::metricsDiff(run.metrics, expected.metrics)
                   .empty());
        EXPECT(run.counts.dramCycles > 0 && run.counts.commands > 0);
    }
    const perfbench::ComposedRun reference =
        perfbench::runComposed(pass.plan.jobs[0], *pass.runner, false);
    EXPECT(perfbench::simResultDiff(reference.shared,
                                    pass.result.outcomes[0].shared)
               .empty());

    // The seed permutes cores only: same benchmarks, other order.
    EXPECT(text != perfbench::workloadSpecText("sweep4", 4, kTinyBudget));
    EXPECT(text == perfbench::workloadSpecText("sweep4", 3, kTinyBudget));
}

void
testSpansNest()
{
    perfbench::SpanRecorder spans;
    perfbench::FigurePass pass = perfbench::runFigurePass(
        perfbench::workloadSpecText("sweep4", 0, kTinyBudget), &spans);
    for (int j = 0; j < 3; ++j)
        perfbench::runComposed(pass.plan.jobs[j], *pass.runner, true,
                               &spans, j);
    const std::vector<perfbench::Span> &all = spans.spans();
    EXPECT(all.size() > 10);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const perfbench::Span &span = all[i];
        EXPECT(span.end >= span.start);
        EXPECT(spans.selfSeconds(static_cast<int>(i)) >= 0.0);
        if (span.parent < 0)
            continue;
        const perfbench::Span &parent = all[span.parent];
        EXPECT(parent.start <= span.start && span.end <= parent.end);
        if (parent.job >= 0)
            EXPECT(span.job == parent.job);
    }
    EXPECT(spans.durations("sim.run").size() == 3);
    EXPECT(spans.durations("harness.alone_run").size() == pass.aloneRuns);

    std::vector<double> forty;
    for (int i = 1; i <= 40; ++i)
        forty.push_back(i);
    const perfbench::Distribution d40 = perfbench::distribution(forty);
    EXPECT(d40.count == 40 && d40.tailPercentile == 75);
    EXPECT(d40.tail == 30.0 && d40.p50 == 20.5);
    const perfbench::Distribution d5 =
        perfbench::distribution({1, 2, 3, 4, 5});
    EXPECT(d5.tailPercentile == 50 && d5.tail == 3.0);
    const perfbench::Distribution d200 =
        perfbench::distribution(std::vector<double>(200, 1.0));
    EXPECT(d200.tailPercentile == 95);
}

} // namespace

int
main(int argc, char **argv)
{
    // The traced run shards through fleet workers, which the supervisor
    // launches as `/proc/self/exe worker`: this binary.
    if (argc >= 2 && std::string(argv[1]) == "worker")
        return stfm::fleet::workerMain();
    if (argc != 2) {
        std::fprintf(stderr, "usage: perf_selftest <BENCHMARK.json>\n");
        return 2;
    }
    const stfm::Json benchmark = readJson(argv[1]);
    testCatalogMatchesBenchmarkJson(benchmark);
    testPerturbedFieldsTripTheCheck();
    testComposedPathEqualsRunMany();
    testSpansNest();
    testPrintedMetricsMatchBenchmarkJson(benchmark);
    std::printf("perf_selftest: %s (%d failure%s)\n",
                g_failures ? "FAILED" : "ok", g_failures,
                g_failures == 1 ? "" : "s");
    return g_failures ? 1 : 0;
}
