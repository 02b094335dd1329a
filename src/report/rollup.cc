#include "report/rollup.hh"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "fleet/manifest.hh"
#include "fleet/supervisor.hh"
#include "fleet/wire.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"

namespace stfm
{
namespace report
{

namespace
{

/**
 * Device-axis scheduler labels carry an "@<device>" suffix
 * ("STFM@DDR4-2400"); the report keys groups by (scheduler, device),
 * so the suffix would double-encode the device. Strip it when it names
 * exactly this group's device.
 */
std::string
stripDeviceSuffix(const std::string &scheduler, const std::string &device)
{
    if (device.empty())
        return scheduler;
    const std::string suffix = "@" + device;
    if (scheduler.size() > suffix.size() &&
        scheduler.compare(scheduler.size() - suffix.size(),
                          suffix.size(), suffix) == 0) {
        return scheduler.substr(0, scheduler.size() - suffix.size());
    }
    return scheduler;
}

} // namespace

ReportBuilder::ReportBuilder(std::string name) : name_(std::move(name)) {}

ReportBuilder::Group &
ReportBuilder::groupFor(const std::string &scheduler,
                        const std::string &device, int order_hint)
{
    Group &group = groups_[{scheduler, device}];
    if (group.order < 0)
        group.order = order_hint >= 0 ? order_hint : nextOrder_;
    nextOrder_ = std::max(nextOrder_, group.order + 1);
    return group;
}

void
ReportBuilder::addOutcome(const std::string &scheduler,
                          const std::string &device,
                          const std::string &workload,
                          const RunOutcome &outcome, int order_hint)
{
    Group &group =
        groupFor(stripDeviceSuffix(scheduler, device), device, order_hint);
    ++runs_;
    ++group.runs;
    WorkloadStats &ws = group.workloads[workload];
    ++ws.runs;
    if (outcome.failed) {
        ++failedRuns_;
        ++group.failed;
        ++ws.failed;
        return;
    }
    const MetricsReport &metrics = outcome.metrics;
    group.unfairness.add(metrics.unfairness);
    ws.unfairness.add(metrics.unfairness);
    group.weightedSpeedup.add(metrics.weightedSpeedup);
    for (const double slowdown : metrics.slowdowns)
        group.slowdown.add(slowdown);
}

std::uint64_t
ReportBuilder::addResultsDoc(const Json &doc,
                             const std::string &source_path)
{
    const std::string context = "results " + source_path;
    const std::string schema =
        doc.at("schema", context).asString(context + ".schema");
    if (schema != "stfm-results-v1") {
        throw SimError("report: " + source_path +
                       ": unexpected schema '" + schema + "'");
    }
    const auto &runs =
        doc.at("runs", context).asArray(context + ".runs");
    std::uint64_t folded = 0;
    for (const Json &run : runs) {
        const std::string rc = context + ".runs[]";
        std::string workload;
        for (const Json &bench :
             run.at("workload", rc).asArray(rc + ".workload")) {
            if (!workload.empty())
                workload += '+';
            workload += bench.asString(rc + ".workload[]");
        }
        const std::string scheduler =
            run.at("scheduler", rc).asString(rc + ".scheduler");
        std::string device;
        if (const Json *d = run.find("device"))
            device = d->asString(rc + ".device");
        RunOutcome outcome;
        outcome.failed = run.at("failed", rc).asBool(rc + ".failed");
        if (!outcome.failed) {
            const Json &metrics = run.at("metrics", rc);
            outcome.metrics.unfairness = metrics.at("unfairness", rc)
                                             .asDouble(rc + ".unfairness");
            outcome.metrics.weightedSpeedup =
                metrics.at("weightedSpeedup", rc)
                    .asDouble(rc + ".weightedSpeedup");
            for (const Json &v : metrics.at("slowdowns", rc)
                                     .asArray(rc + ".slowdowns"))
                outcome.metrics.slowdowns.push_back(
                    v.asDouble(rc + ".slowdowns[]"));
        }
        addOutcome(scheduler, device, workload, outcome, -1);
        ++folded;
    }
    sources_.push_back({source_path, "results", folded});
    return folded;
}

std::uint64_t
ReportBuilder::addManifest(const std::string &path,
                           const ExperimentPlan &plan)
{
    fleet::ManifestData data = fleet::loadManifest(path);
    if (data.header.type() == Json::Type::Null)
        throw SimError("report: manifest not found: " + path);
    const std::string context = "manifest " + path;
    const std::uint64_t jobs =
        data.header.at("jobs", context).asUint(context + ".jobs");
    if (jobs != plan.jobs.size()) {
        throw SimError(formatMessage(
            "report: %s records %llu jobs but the spec derives %zu — "
            "pass the spec the sweep actually ran",
            path.c_str(), static_cast<unsigned long long>(jobs),
            plan.jobs.size()));
    }
    const std::uint64_t shards =
        data.header.at("shards", context).asUint(context + ".shards");
    const auto ranges = fleet::partitionShards(
        plan.jobs.size(), plan.jobsPerRow(),
        static_cast<unsigned>(shards));
    if (ranges.size() != shards) {
        throw SimError(formatMessage(
            "report: %s: cannot re-derive %llu shard ranges",
            path.c_str(), static_cast<unsigned long long>(shards)));
    }

    const std::size_t per = plan.jobsPerRow();
    std::uint64_t folded = 0;
    for (const auto &[index, entry] : data.shards) {
        if (index >= ranges.size()) {
            throw SimError(formatMessage(
                "report: %s: shard %u out of range", path.c_str(),
                index));
        }
        const auto [begin, end] = ranges[index];
        const std::string sc =
            context + " shard " + std::to_string(index);
        const auto &outcomes =
            entry.at("outcomes", sc).asArray(sc + ".outcomes");
        if (outcomes.size() != end - begin) {
            throw SimError(formatMessage(
                "report: %s: shard %u carries %zu outcomes for a "
                "%zu-job range",
                path.c_str(), index, outcomes.size(), end - begin));
        }
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const std::size_t job = begin + i;
            const std::size_t s = job % per;
            const std::size_t row = job / per;
            const SchedulerEntry &sched = plan.schedulers[s];
            addOutcome(sched.label, sched.device,
                       workloadLabel(plan.workloads[row / plan.spec.repeat]),
                       fleet::runOutcomeFromWire(outcomes[i], sc),
                       static_cast<int>(s));
            ++folded;
        }
    }
    sources_.push_back({path, "manifest", folded});
    return folded;
}

Json
ReportBuilder::toJson() const
{
    Json out = Json::object();
    out.set("schema", "stfm-report-v1");
    out.set("name", name_);

    // Canonical group order: plan order first (the scheduler axis as
    // the spec listed it), then key — independent of fold order.
    std::vector<const std::pair<const std::pair<std::string, std::string>,
                                Group> *> ordered;
    for (const auto &entry : groups_)
        ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto *a, const auto *b) {
                  if (a->second.order != b->second.order)
                      return a->second.order < b->second.order;
                  return a->first < b->first;
              });

    std::set<std::string> schedulers;
    std::set<std::string> devices;
    std::set<std::string> workloads;
    for (const auto &[key, group] : groups_) {
        schedulers.insert(key.first);
        devices.insert(key.second);
        for (const auto &[label, ws] : group.workloads)
            workloads.insert(label);
    }

    Json totals = Json::object();
    totals.set("runs", runs_);
    totals.set("failed", failedRuns_);
    totals.set("groups", groups_.size());
    totals.set("schedulers", schedulers.size());
    totals.set("devices", devices.size());
    totals.set("workloads", workloads.size());
    out.set("totals", std::move(totals));

    Json sources = Json::array();
    for (const Source &source : sources_) {
        Json entry = Json::object();
        entry.set("path", source.path);
        entry.set("kind", source.kind);
        entry.set("runs", source.runs);
        sources.push(std::move(entry));
    }
    out.set("sources", std::move(sources));

    Json groups = Json::array();
    for (const auto *entry : ordered) {
        const auto &[key, group] = *entry;
        Json g = Json::object();
        g.set("scheduler", key.first);
        g.set("device", key.second);
        g.set("runs", group.runs);
        g.set("failed", group.failed);
        g.set("unfairness", group.unfairness.toJson());
        g.set("slowdown", group.slowdown.toJson());
        g.set("weightedSpeedup", group.weightedSpeedup.toJson());
        Json wl = Json::array();
        // std::map iteration: workloads already sorted by label.
        for (const auto &[label, ws] : group.workloads) {
            Json w = Json::object();
            w.set("label", label);
            w.set("runs", ws.runs);
            w.set("failed", ws.failed);
            Json u = Json::object();
            u.set("count", ws.unfairness.count());
            u.set("mean", ws.unfairness.mean());
            u.set("max", ws.unfairness.max());
            w.set("unfairness", std::move(u));
            wl.push(std::move(w));
        }
        g.set("workloads", std::move(wl));
        groups.push(std::move(g));
    }
    out.set("groups", std::move(groups));
    return out;
}

bool
pathExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

bool
isDirectory(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string>
listDirectoryFiles(const std::string &path)
{
    DIR *dir = ::opendir(path.c_str());
    if (dir == nullptr)
        throw SimError("report: cannot open directory: " + path);
    std::vector<std::string> files;
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        const std::string full = path + "/" + name;
        struct stat st{};
        if (::stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode))
            files.push_back(full);
    }
    ::closedir(dir);
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace report
} // namespace stfm
