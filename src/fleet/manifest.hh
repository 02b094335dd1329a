/**
 * @file
 * The resumable-sweep checkpoint: an append-only JSONL manifest.
 *
 * `manifest.jsonl` lives in the sweep's checkpoint directory. Line 1
 * is a header binding the manifest to one exact experiment; every
 * later line is a completed shard (with its full outcome fragments)
 * or a shared alone-baseline cache entry:
 *
 *   {"schema":"stfm-manifest-v1","version":1,"specHash":"...",
 *    "jobs":M,"shards":S}
 *   {"type":"alone","key":"mcf#1x8x2048@50000","result":{...}}
 *   {"type":"shard","shard":3,"attempts":1,"outcomes":[...]}
 *
 * The loader reads entries by known keys only, so an extra key — such
 * as the legacy `"node"` provenance older builds wrote into shard
 * lines — is ignored and those manifests resume unchanged.
 *
 * Durability model: each entry is one line written with a single
 * write(2) and fsync'd, so a SIGKILL'd supervisor loses at most the
 * line being appended. The loader tolerates exactly that — a
 * truncated *final* line is discarded; corruption anywhere else is a
 * structured SimError. A manifest whose header carries a newer
 * `version` than this build understands, or whose spec hash does not
 * match the experiment being resumed, is rejected with a structured
 * error rather than misread.
 *
 * Only *successful* shards are recorded: a shard that exhausted its
 * process-level retries is reported FAILED in the merged output but
 * stays absent from the manifest, so `--resume` gives it a fresh set
 * of attempts.
 */

#ifndef STFM_FLEET_MANIFEST_HH
#define STFM_FLEET_MANIFEST_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/json.hh"

namespace stfm
{

struct ExperimentSpec;
struct SimConfig;

namespace fleet
{

inline constexpr const char *kManifestSchema = "stfm-manifest-v1";
inline constexpr std::int64_t kManifestVersion = 1;

/**
 * Identity of one exact experiment: FNV-1a 64 over the canonical spec
 * echo and the fully resolved configuration (which folds in the
 * environment overrides — resuming under different STFM_* settings
 * must be rejected, as the merged results would not be reproducible).
 */
std::string fleetSpecHash(const ExperimentSpec &spec,
                          const SimConfig &resolved);

/** A loaded manifest. */
struct ManifestData
{
    Json header;
    /** Completed shards: index -> the full manifest entry. */
    std::map<unsigned, Json> shards;
    /** Shared alone-baseline entries: cache key -> ThreadResult wire. */
    std::map<std::string, Json> alone;
};

/**
 * Parse @p path. Returns an empty ManifestData (Null header) when the
 * file does not exist. @throws SimError on unreadable contents, an
 * unknown schema, or a newer manifest version.
 */
ManifestData loadManifest(const std::string &path);

/**
 * Check @p header (from loadManifest) against the experiment about to
 * resume. @throws SimError naming the mismatch (spec hash, job count,
 * shard count).
 */
void validateManifestHeader(const Json &header,
                            const std::string &spec_hash,
                            std::size_t jobs, std::size_t shards);

/** Append-only manifest writer (one fsync'd write per entry). */
class ManifestWriter
{
  public:
    ManifestWriter() = default;
    ~ManifestWriter();
    ManifestWriter(const ManifestWriter &) = delete;
    ManifestWriter &operator=(const ManifestWriter &) = delete;

    /**
     * Open @p path for appending, writing the header line first when
     * the file is new/empty. @throws SimError on I/O failure.
     */
    void open(const std::string &path, const std::string &spec_hash,
              std::size_t jobs, std::size_t shards);

    bool isOpen() const { return fd_ >= 0; }

    /** Append one completed-shard entry. */
    void appendShard(unsigned shard, unsigned attempts,
                     const Json &outcomes);

    /** Append one alone-baseline cache entry. */
    void appendAlone(const std::string &key, const Json &result);

    void close();

  private:
    void appendLine(const Json &entry);

    int fd_ = -1;
    std::string path_;
};

} // namespace fleet
} // namespace stfm

#endif // STFM_FLEET_MANIFEST_HH
