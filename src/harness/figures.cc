#include "harness/figures.hh"

#include "harness/table.hh"

namespace stfm
{

namespace
{

// Spec builders -------------------------------------------------------
//
// Budgets and sample seeds are the historical bench values. The seed,
// budget, workload order and scheduler order feed the deterministic
// trace generator and the GMEAN accumulation order, so changing any of
// them changes a figure's numbers.

ExperimentSpec
caseStudySpec(const char *name, const char *title,
              const char *workload, std::uint64_t budget)
{
    ExperimentSpec spec;
    spec.name = name;
    spec.title = title;
    spec.workloads = namedWorkloads(workload);
    spec.budget = budget;
    return spec;
}

/** A scheduler entry: @p kind with default knobs under @p label. */
SchedulerEntry
entry(PolicyKind kind, const std::string &label = "")
{
    SchedulerEntry e;
    e.config.kind = kind;
    e.label = label.empty() ? toString(kind) : label;
    return e;
}

/** An FR-FCFS entry whose runs take the SimConfig @p overrides. */
SchedulerEntry
configEntry(const std::string &label, const std::string &overrides)
{
    SchedulerEntry e = entry(PolicyKind::FrFcfs, label);
    e.overrides = Json::parse(overrides);
    return e;
}

ExperimentSpec
fig01Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "fig01";
    spec.title = "Figure 1: memory slowdown of programs under the "
                 "thread-unaware FR-FCFS baseline";
    spec.workloads = {workloads::fig1FourCore(), workloads::fig1EightCore()};
    spec.schedulers = {entry(PolicyKind::FrFcfs)};
    spec.budget = 60000;
    return spec;
}

ExperimentSpec
fig03Spec(bool)
{
    // One never-idle thread beside three bursty ones. The bursty
    // threads share one profile under three names: a benchmark's name
    // seeds its bank order, so one shared name would run them in
    // lockstep.
    TraceProfile continuous;
    continuous.mpki = 40;
    continuous.rowBufferHitRate = 0.9;
    continuous.burstDuty = 1.0;
    continuous.streamCount = 8;
    continuous.storeFraction = 0.3;
    TraceProfile bursty = continuous;
    bursty.burstDuty = 0.4;

    ExperimentSpec spec;
    spec.name = "fig03";
    spec.title = "Figure 3: the idleness problem — one continuous "
                 "thread vs three bursty threads";
    spec.benchmarks = {
        {"continuous", inlineBenchmark("continuous", continuous)},
        {"bursty1", inlineBenchmark("bursty1", bursty)},
        {"bursty2", inlineBenchmark("bursty2", bursty)},
        {"bursty3", inlineBenchmark("bursty3", bursty)},
    };
    spec.workloads = {{"continuous", "bursty1", "bursty2", "bursty3"}};
    spec.schedulers = {entry(PolicyKind::FrFcfs), entry(PolicyKind::Nfq),
                       entry(PolicyKind::Stfm)};
    spec.budget = 40000;
    return spec;
}

ExperimentSpec
fig05Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "fig05";
    spec.title = "Figure 5: mcf paired with every other benchmark on "
                 "2 cores";
    for (const BenchmarkProfile &other : benchmarkCatalog()) {
        if (other.name != "mcf")
            spec.workloads.push_back({"mcf", other.name});
    }
    spec.schedulers = {entry(PolicyKind::FrFcfs), entry(PolicyKind::Stfm)};
    spec.budget = 50000;
    return spec;
}

ExperimentSpec
fig06Spec(bool)
{
    return caseStudySpec("fig06",
                         "Figure 6: memory-intensive 4-core workload",
                         "case_intensive", 60000);
}

ExperimentSpec
fig07Spec(bool)
{
    return caseStudySpec("fig07",
                         "Figure 7: mixed-behavior 4-core workload",
                         "case_mixed", 60000);
}

ExperimentSpec
fig08Spec(bool)
{
    return caseStudySpec(
        "fig08", "Figure 8: non-memory-intensive 4-core workload",
        "case_non_intensive", 60000);
}

ExperimentSpec
fig09Spec(bool full)
{
    ExperimentSpec spec;
    spec.name = "fig09";
    spec.title = "Figure 9: 4-core category-balanced workload sweep";
    spec.sample = WorkloadSample{4, full ? 256u : 32u, 0x5174f09};
    spec.labelRows = 10;
    spec.budget = 50000;
    return spec;
}

ExperimentSpec
fig10Spec(bool)
{
    return caseStudySpec("fig10",
                         "Figure 10: non-intensive 8-core workload",
                         "eight_core_case", 50000);
}

ExperimentSpec
fig11Spec(bool full)
{
    ExperimentSpec spec;
    spec.name = "fig11";
    spec.title = "Figure 11: 8-core workload sweep";
    spec.workloads = namedWorkloads("eight_core_samples");
    spec.sample = WorkloadSample{8, full ? 22u : 6u, 0x8c03e5};
    spec.labelRows = 10;
    spec.budget = 40000;
    return spec;
}

ExperimentSpec
fig12Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "fig12";
    spec.title =
        "Figure 12: 16-core workloads (high16, high8+low8, low16)";
    spec.workloads = namedWorkloads("sixteen_core");
    spec.labelRows = 3;
    spec.budget = 30000;
    return spec;
}

ExperimentSpec
fig13Spec(bool)
{
    return caseStudySpec(
        "fig13", "Figure 13: desktop-application 4-core workload",
        "desktop", 60000);
}

ExperimentSpec
fig14Spec(bool)
{
    ExperimentSpec spec = caseStudySpec("fig14", "Figure 14: thread weights",
                                        "weighted", 60000);
    spec.schedulers = {entry(PolicyKind::FrFcfs)};
    for (const std::vector<double> &weights :
         {std::vector<double>{1, 16, 1, 1}, std::vector<double>{1, 4, 8, 1}}) {
        std::string tag;
        for (const double w : weights)
            tag += (tag.empty() ? "" : "-") + std::to_string(int(w));
        // NFQ: bandwidth share proportional to weight.
        SchedulerEntry nfq = entry(PolicyKind::Nfq, "NFQ " + tag);
        nfq.config.shares = weights;
        SchedulerEntry stfm = entry(PolicyKind::Stfm, "STFM " + tag);
        stfm.config.weights = weights;
        spec.schedulers.push_back(nfq);
        spec.schedulers.push_back(stfm);
    }
    return spec;
}

ExperimentSpec
fig15Spec(bool)
{
    ExperimentSpec spec = caseStudySpec("fig15", "Figure 15: effect of alpha",
                                        "case_intensive", 60000);
    for (const double alpha : {1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0}) {
        SchedulerEntry stfm =
            entry(PolicyKind::Stfm, "Alpha=" + fmt(alpha, 2));
        stfm.config.alpha = alpha;
        spec.schedulers.push_back(stfm);
    }
    spec.schedulers.push_back(entry(PolicyKind::FrFcfs));
    return spec;
}

ExperimentSpec
table3Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "table3";
    spec.title = "Tables 3 and 4: SPEC CPU2006 and Windows desktop "
                 "benchmark characteristics, measured alone under FR-FCFS";
    for (const auto *catalog : {&benchmarkCatalog(), &desktopCatalog()}) {
        for (const BenchmarkProfile &profile : *catalog)
            spec.workloads.push_back({profile.name});
    }
    spec.schedulers = {entry(PolicyKind::FrFcfs)};
    spec.budget = 60000;
    return spec;
}

ExperimentSpec
table5Spec(bool full)
{
    ExperimentSpec spec;
    spec.name = "table5";
    spec.title = "Table 5: sensitivity to DRAM banks and row-buffer size, "
                 "8-core sweep";
    spec.sample = WorkloadSample{8, full ? 32u : 8u, 0x7ab1e5};
    spec.labelRows = 0; // The paper's table is the GMEANs alone.
    // Banks at 16 KB effective rows, then row sizes at 8 banks.
    const std::pair<const char *, const char *> memories[] = {
        {"4 banks", R"({"memory": {"banksPerChannel": 4, "rowBytes": 16384}})"},
        {"8 banks", R"({"memory": {"banksPerChannel": 8, "rowBytes": 16384}})"},
        {"16 banks",
         R"({"memory": {"banksPerChannel": 16, "rowBytes": 16384}})"},
        {"8KB rows", R"({"memory": {"banksPerChannel": 8, "rowBytes": 8192}})"},
        {"32KB rows",
         R"({"memory": {"banksPerChannel": 8, "rowBytes": 32768}})"},
    };
    for (const auto &[tag, overrides] : memories) {
        for (const PolicyKind kind : {PolicyKind::FrFcfs, PolicyKind::Stfm}) {
            SchedulerEntry e =
                entry(kind, std::string(toString(kind)) + " " + tag);
            e.overrides = Json::parse(overrides);
            spec.schedulers.push_back(e);
        }
    }
    spec.budget = 40000;
    return spec;
}

ExperimentSpec
ablationStfmSpec(bool)
{
    ExperimentSpec spec = caseStudySpec("ablation_stfm", "STFM ablations",
                                        "case_intensive", 60000);
    const SchedulerEntry stfm =
        entry(PolicyKind::Stfm, "baseline (gamma=0.5, 2^24, quantized)");
    spec.schedulers = {stfm};
    // Each variant is the baseline entry with one knob changed.
    const auto variant = [&spec, &stfm](const std::string &label)
        -> SchedulerConfig & {
        spec.schedulers.push_back(stfm);
        spec.schedulers.back().label = label;
        return spec.schedulers.back().config;
    };
    for (const double gamma : {0.25, 1.0, 2.0})
        variant("gamma=" + fmt(gamma, 2)).gamma = gamma;
    for (const unsigned shift : {14u, 18u, 28u})
        variant("interval=2^" + std::to_string(shift)).intervalLength =
            1ULL << shift;
    variant("exact slowdown registers").quantizeSlowdowns = false;
    variant("with per-event bus term").busInterference = true;
    variant("request-level estimator").requestLevelEstimator = true;
    return spec;
}

ExperimentSpec
ablationControllerSpec(bool)
{
    ExperimentSpec spec = caseStudySpec(
        "ablation_controller", "Controller design ablations under FR-FCFS",
        "case_non_intensive", 50000);
    spec.schedulers = {
        configEntry("baseline", "{}"),
        configEntry("no row protection",
                    R"({"memory": {"controller": {"rowProtection": false}}})"),
        configEntry("linear bank mapping",
                    R"({"memory": {"xorBankMapping": false}})"),
        configEntry("with auto-refresh",
                    R"({"memory": {"controller": {"refreshEnabled": true}}})"),
        configEntry("4 banks", R"({"memory": {"banksPerChannel": 4}})"),
        configEntry("16 banks", R"({"memory": {"banksPerChannel": 16}})"),
    };
    return spec;
}

} // namespace

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> registry = {
        {"fig01", "motivation: slowdown variance under FR-FCFS", fig01Spec},
        {"fig03", "the NFQ idleness problem, quantified", fig03Spec},
        {"fig05", "2-core: mcf paired with every other benchmark",
         fig05Spec},
        {"fig06", "case study I: memory-intensive 4-core workload",
         fig06Spec},
        {"fig07", "case study II: mixed-behavior 4-core workload",
         fig07Spec},
        {"fig08", "case study III: non-intensive 4-core workload",
         fig08Spec},
        {"fig09", "4-core category-balanced sweep (GMEAN aggregates)",
         fig09Spec},
        {"fig10", "8-core case study: mcf vs seven non-intensive",
         fig10Spec},
        {"fig11", "8-core workload sweep", fig11Spec},
        {"fig12", "16-core workloads (high16, high8+low8, low16)",
         fig12Spec},
        {"fig13", "desktop-application 4-core workload", fig13Spec},
        {"fig14", "system-software support: thread weights", fig14Spec},
        {"fig15", "sensitivity to the alpha threshold", fig15Spec},
        {"table3", "benchmark characteristics measured alone", table3Spec},
        {"table5", "sensitivity to banks and row-buffer size", table5Spec},
        {"ablation_stfm", "STFM design-choice ablations",
         ablationStfmSpec},
        {"ablation_controller", "controller substrate ablations",
         ablationControllerSpec},
    };
    return registry;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &figure : figureRegistry()) {
        if (figure.name == name)
            return &figure;
    }
    return nullptr;
}

} // namespace stfm
