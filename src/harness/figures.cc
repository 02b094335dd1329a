#include "harness/figures.hh"

namespace stfm
{

namespace
{

// Spec builders -------------------------------------------------------
//
// Budgets and sample seeds are the historical bench values; the specs
// must reproduce the legacy binaries' reports bit-for-bit (the seed,
// budget and workload order feed the deterministic trace generator and
// the GMEAN accumulation order).

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

} // namespace

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> registry = {
        {"fig01", "motivation: slowdown variance under FR-FCFS",
         nullptr, figures::motivation},
        {"fig03", "the NFQ idleness problem, quantified", nullptr,
         figures::idleness},
        {"fig05", "2-core: mcf paired with every other benchmark",
         nullptr, figures::twoCore},
        {"fig06", "case study I: memory-intensive 4-core workload",
         fig06Spec, nullptr},
        {"fig07", "case study II: mixed-behavior 4-core workload",
         fig07Spec, nullptr},
        {"fig08", "case study III: non-intensive 4-core workload",
         fig08Spec, nullptr},
        {"fig09", "4-core category-balanced sweep (GMEAN aggregates)",
         fig09Spec, nullptr},
        {"fig10", "8-core case study: mcf vs seven non-intensive",
         fig10Spec, nullptr},
        {"fig11", "8-core workload sweep", fig11Spec, nullptr},
        {"fig12", "16-core workloads (high16, high8+low8, low16)",
         fig12Spec, nullptr},
        {"fig13", "desktop-application 4-core workload", fig13Spec,
         nullptr},
        {"fig14", "system-software support: thread weights", nullptr,
         figures::threadWeights},
        {"fig15", "sensitivity to the alpha threshold", nullptr,
         figures::alphaSweep},
        {"table3", "benchmark characteristics measured alone", nullptr,
         figures::table3Characteristics},
        {"table5", "sensitivity to banks and row-buffer size", nullptr,
         figures::table5Sensitivity},
        {"ablation_stfm", "STFM design-choice ablations", nullptr,
         figures::ablationStfm},
        {"ablation_controller", "controller substrate ablations",
         nullptr, figures::ablationController},
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
