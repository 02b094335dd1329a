#include "fleet/manifest.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/spec.hh"
#include "sim/config_io.hh"

namespace stfm
{
namespace fleet
{

std::string
fleetSpecHash(const ExperimentSpec &spec, const SimConfig &resolved)
{
    const std::string text =
        toJson(spec).dump() + "\n" + toJson(resolved).dump();
    // FNV-1a 64: tiny, dependency-free, and stable across builds.
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return formatMessage("%016llx",
                         static_cast<unsigned long long>(hash));
}

ManifestData
loadManifest(const std::string &path)
{
    ManifestData data;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return data; // No manifest yet: a fresh (non-resumed) sweep.

    std::string line;
    std::size_t line_no = 0;
    bool have_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        const bool truncated = in.eof() && !line.empty();
        if (line.empty())
            continue;
        Json entry;
        try {
            entry = Json::parse(line);
        } catch (const SimError &e) {
            // A torn final line is the expected SIGKILL residue; any
            // earlier parse failure is real corruption.
            if (truncated)
                break;
            throw SimError(formatMessage(
                "manifest %s line %zu: %s", path.c_str(), line_no,
                e.what()));
        }
        const std::string context =
            formatMessage("manifest line %zu", line_no);
        if (!have_header) {
            const std::string schema =
                entry.at("schema", context)
                    .asString(context + ".schema");
            if (schema != kManifestSchema) {
                throw SimError(formatMessage(
                    "manifest %s: unknown schema '%s' (expected %s)",
                    path.c_str(), schema.c_str(), kManifestSchema));
            }
            const std::int64_t version =
                entry.at("version", context)
                    .asInt(context + ".version");
            if (version > kManifestVersion) {
                throw SimError(formatMessage(
                    "manifest %s: version %lld is newer than this "
                    "build understands (max %lld) — refusing to "
                    "resume from it",
                    path.c_str(), static_cast<long long>(version),
                    static_cast<long long>(kManifestVersion)));
            }
            data.header = entry;
            have_header = true;
            continue;
        }
        const std::string type =
            entry.at("type", context).asString(context + ".type");
        if (type == "shard") {
            const unsigned shard = static_cast<unsigned>(
                entry.at("shard", context)
                    .asUint(context + ".shard"));
            data.shards[shard] = entry;
        } else if (type == "alone") {
            const std::string key =
                entry.at("key", context).asString(context + ".key");
            data.alone[key] = entry.at("result", context);
        } else {
            throw SimError(formatMessage(
                "manifest %s line %zu: unknown entry type '%s'",
                path.c_str(), line_no, type.c_str()));
        }
    }
    if (!have_header) {
        throw SimError(formatMessage(
            "manifest %s: missing or torn header line", path.c_str()));
    }
    return data;
}

void
validateManifestHeader(const Json &header, const std::string &spec_hash,
                       std::size_t jobs, std::size_t shards)
{
    const std::string context = "manifest header";
    const std::string hash =
        header.at("specHash", context)
            .asString(context + ".specHash");
    if (hash != spec_hash) {
        throw SimError(formatMessage(
            "manifest was checkpointed for a different experiment "
            "(spec hash %s, this run resolves to %s) — pass a fresh "
            "checkpoint directory",
            hash.c_str(), spec_hash.c_str()));
    }
    const std::uint64_t manifest_jobs =
        header.at("jobs", context).asUint(context + ".jobs");
    const std::uint64_t manifest_shards =
        header.at("shards", context).asUint(context + ".shards");
    if (manifest_jobs != jobs || manifest_shards != shards) {
        throw SimError(formatMessage(
            "manifest partitioning mismatch: checkpointed %llu jobs / "
            "%llu shards, this run has %zu jobs / %zu shards (did "
            "--shards change?)",
            static_cast<unsigned long long>(manifest_jobs),
            static_cast<unsigned long long>(manifest_shards), jobs,
            shards));
    }
}

ManifestWriter::~ManifestWriter()
{
    close();
}

void
ManifestWriter::open(const std::string &path,
                     const std::string &spec_hash, std::size_t jobs,
                     std::size_t shards)
{
    close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        throw SimError(formatMessage(
            "cannot open manifest '%s' for append: %s", path.c_str(),
            std::strerror(errno)));
    }
    path_ = path;
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size == 0) {
        Json header = Json::object();
        header.set("schema", kManifestSchema);
        header.set("version", kManifestVersion);
        header.set("specHash", spec_hash);
        header.set("jobs", static_cast<std::uint64_t>(jobs));
        header.set("shards", static_cast<std::uint64_t>(shards));
        appendLine(header);
    }
}

void
ManifestWriter::appendShard(unsigned shard, unsigned attempts,
                            const Json &outcomes)
{
    Json entry = Json::object();
    entry.set("type", "shard");
    entry.set("shard", shard);
    entry.set("attempts", attempts);
    entry.set("outcomes", outcomes);
    appendLine(entry);
}

void
ManifestWriter::appendAlone(const std::string &key, const Json &result)
{
    Json entry = Json::object();
    entry.set("type", "alone");
    entry.set("key", key);
    entry.set("result", result);
    appendLine(entry);
}

void
ManifestWriter::appendLine(const Json &entry)
{
    STFM_ASSERT(fd_ >= 0, "manifest writer is not open");
    const std::string line = entry.dump() + "\n";
    // One write(2) per entry: an interrupted append leaves at most a
    // torn final line, which loadManifest() discards.
    std::size_t done = 0;
    while (done < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + done, line.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw SimError(formatMessage(
                "manifest %s: append failed: %s", path_.c_str(),
                std::strerror(errno)));
        }
        done += static_cast<std::size_t>(n);
    }
    ::fsync(fd_);
}

void
ManifestWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace fleet
} // namespace stfm
