#include "src/api/store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/api/json_reader.hh"
#include "src/common/fault_injection.hh"
#include "src/common/fs_atomic.hh"
#include "src/common/json.hh"
#include "src/common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define GEMINI_HAVE_FLOCK 1
#endif

namespace gemini::api {

namespace fs = std::filesystem;
using common::json::hex64;
using common::json::Value;

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

/** Rename a corrupt record aside so it is never parsed again. */
void
quarantine(const std::string &path, const std::string &why)
{
    const std::string aside = path + ".quarantined";
    std::error_code ec;
    fs::rename(path, aside, ec);
    if (ec) {
        // Renaming failed (e.g. read-only store): removing would also
        // fail, so just warn — get() already reported a miss.
        GEMINI_WARN("store: cannot quarantine ", path, ": ", ec.message());
        return;
    }
    GEMINI_WARN("store: quarantined ", path, " (", why,
                "); it will be recomputed, never served");
}

/**
 * Poisoned candidates inside a stored result, by raw JSON navigation
 * (payload.result.dse.records[*].poisoned) — cheap relative to a full
 * ExperimentResult::fromJson, and 0 for unreadable or map-mode records.
 */
int
countPoisoned(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        return 0;
    const std::optional<Value> v = common::json::parse(text, nullptr);
    if (!v || !v->isObject())
        return 0;
    const Value *node = v->find("payload");
    for (const char *key : {"result", "dse", "records"}) {
        if (!node || !node->isObject())
            return 0;
        node = node->find(key);
    }
    if (!node || !node->isArray())
        return 0;
    int poisoned = 0;
    for (const Value &rec : node->asArray()) {
        if (!rec.isObject())
            continue;
        const Value *p = rec.find("poisoned");
        if (p && p->isBool() && p->asBool())
            ++poisoned;
    }
    return poisoned;
}

} // namespace

/**
 * Cross-process advisory lock on the store directory, held for the
 * duration of one operation. flock, not fcntl: flock locks follow the
 * open file description, so two ResultStore instances in one process
 * exclude each other too (each operation opens its own fd).
 */
class ResultStore::DirLock
{
  public:
    explicit DirLock(const std::string &lockPath)
    {
#ifdef GEMINI_HAVE_FLOCK
        fd_ = ::open(lockPath.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                     0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
        if (fd_ < 0)
            GEMINI_WARN("store: cannot lock ", lockPath, ": ",
                        std::strerror(errno),
                        " (continuing without cross-process exclusion)");
#else
        (void)lockPath;
#endif
    }

    ~DirLock()
    {
#ifdef GEMINI_HAVE_FLOCK
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
#endif
    }

    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;

  private:
#ifdef GEMINI_HAVE_FLOCK
    int fd_ = -1;
#endif
};

ResultStore::ResultStore(std::string dir, StoreOwnership ownership)
    : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    GEMINI_ASSERT(!ec, "cannot create store directory ", dir_, ": ",
                  ec.message());
    lockPath_ = (fs::path(dir_) / ".lock").string();
    ownerPath_ = (fs::path(dir_) / ".owner").string();
    if (ownership != StoreOwnership::Exclusive)
        return;

#ifdef GEMINI_HAVE_FLOCK
    // Lifetime ownership claim: flock follows the open file description,
    // so a second exclusive opener — another process, or another
    // instance in this one — fails immediately instead of blocking, and
    // the lock evaporates with the fd on any exit, including SIGKILL
    // (no stale-lockfile recovery dance).
    ownerFd_ = ::open(ownerPath_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                      0644);
    if (ownerFd_ < 0)
        throw std::runtime_error("result store " + dir_ +
                                 ": cannot open " + ownerPath_ + ": " +
                                 std::strerror(errno));
    if (::flock(ownerFd_, LOCK_EX | LOCK_NB) != 0) {
        // Surface WHO holds it: the owner stamped its pid into the file.
        char buf[32] = {0};
        const ssize_t n = ::pread(ownerFd_, buf, sizeof buf - 1, 0);
        ::close(ownerFd_);
        ownerFd_ = -1;
        std::string holder = "another process";
        if (n > 0) {
            const long pid = std::strtol(buf, nullptr, 10);
            if (pid > 0)
                holder = "pid " + std::to_string(pid);
        }
        throw std::runtime_error(
            "result store " + dir_ + " is locked by " + holder + " (" +
            ownerPath_ + "); stop that daemon or point this one at a "
            "different --store directory");
    }
    // Claimed: stamp our pid for the next contender's error message.
    const std::string pid = std::to_string(::getpid()) + "\n";
    if (::ftruncate(ownerFd_, 0) != 0 ||
        ::pwrite(ownerFd_, pid.data(), pid.size(), 0) < 0)
        GEMINI_WARN("store: cannot stamp pid into ", ownerPath_, ": ",
                    std::strerror(errno));
#else
    GEMINI_WARN("store: exclusive ownership unsupported on this "
                "platform; continuing shared");
#endif
}

ResultStore::~ResultStore()
{
#ifdef GEMINI_HAVE_FLOCK
    if (ownerFd_ >= 0) {
        ::flock(ownerFd_, LOCK_UN);
        ::close(ownerFd_);
    }
#endif
}

std::string
ResultStore::resultPath(std::uint64_t hash) const
{
    return (fs::path(dir_) / (hex64(hash) + ".result.json")).string();
}

std::string
ResultStore::specPath(std::uint64_t hash) const
{
    return (fs::path(dir_) / (hex64(hash) + ".spec.json")).string();
}

std::string
ResultStore::journalPath(std::uint64_t hash) const
{
    return (fs::path(dir_) / (hex64(hash) + ".journal")).string();
}

std::string
ResultStore::metaPath(std::uint64_t hash) const
{
    return (fs::path(dir_) / (hex64(hash) + ".meta.json")).string();
}

std::shared_ptr<const ExperimentResult>
ResultStore::get(std::uint64_t hash, const std::string &canonicalSpec)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);

    const std::string path = resultPath(hash);
    std::string text;
    if (!readFile(path, text))
        return nullptr; // plain miss

    std::string error;
    const std::optional<Value> v = common::json::parse(text, &error);
    if (!v) {
        quarantine(path, "unparseable: " + error);
        return nullptr;
    }
    ObjectReader r(*v, "store", &error);
    std::string checksum;
    r.field("checksum", checksum);
    const Value *payload = r.require("payload");
    if (!payload || !r.finish()) {
        quarantine(path, error);
        return nullptr;
    }
    if (hex64(common::json::fnv1a64(payload->canonical())) != checksum) {
        quarantine(path, "checksum mismatch (bit rot or torn write)");
        return nullptr;
    }

    ObjectReader pr(*payload, "store.payload", &error);
    std::string storedSpec;
    pr.field("spec_canonical", storedSpec);
    const Value *resultv = pr.require("result");
    if (!resultv || !pr.finish()) {
        quarantine(path, error);
        return nullptr;
    }
    if (storedSpec != canonicalSpec) {
        // A genuine 64-bit hash collision: the record is intact and
        // belongs to a *different* experiment. Leave it alone; the
        // colliding spec runs for real.
        GEMINI_WARN("store: hash ", hex64(hash), " collides with a "
                    "different spec; recomputing instead of serving it");
        return nullptr;
    }

    std::optional<ExperimentResult> parsed =
        ExperimentResult::fromJson(*resultv, &error);
    if (!parsed) {
        quarantine(path, error);
        return nullptr;
    }
    return std::make_shared<const ExperimentResult>(std::move(*parsed));
}

bool
ResultStore::put(const ExperimentResult &result, std::string *error)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);

    if (common::fault::shouldFail("store.write")) {
        if (error)
            *error = "cannot write store record " +
                     resultPath(result.specHash) +
                     ": " + std::strerror(ENOSPC);
        return false;
    }

    Value payload = Value::object();
    payload.set("spec_canonical", result.spec.canonicalText());
    payload.set("result", result.toJson());
    const std::string canonical = payload.canonical();

    // Envelope spliced around the exact canonical bytes that were
    // checksummed (same convention as the rung journal).
    std::string text = "{\"checksum\":\"";
    text += hex64(common::json::fnv1a64(canonical));
    text += "\",\"payload\":";
    text += canonical;
    text += "}\n";

    return common::writeFileAtomic(resultPath(result.specHash), text,
                                   error);
}

void
ResultStore::putSpec(const ExperimentSpec &spec, std::uint64_t hash)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    std::string error;
    if (!common::writeFileAtomic(specPath(hash),
                                 spec.toJson().dump(2) + "\n", &error))
        GEMINI_WARN("store: ", error);
}

std::optional<ExperimentSpec>
ResultStore::loadSpec(std::uint64_t hash, std::string *error)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    std::string text;
    const std::string path = specPath(hash);
    if (!readFile(path, text)) {
        if (error)
            *error = "no spec sidecar " + path +
                     " (was this experiment ever submitted here?)";
        return std::nullopt;
    }
    return ExperimentSpec::fromJsonText(text, error);
}

std::vector<StoreEntry>
ResultStore::list()
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);

    std::vector<StoreEntry> entries;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        const std::string suffix = ".result.json";
        if (name.size() != 16 + suffix.size() ||
            name.compare(16, suffix.size(), suffix) != 0)
            continue;
        const std::optional<std::uint64_t> hash =
            common::json::parseHex64(std::string_view(name).substr(0, 16));
        if (!hash)
            continue;
        StoreEntry e;
        e.hash = *hash;
        e.path = de.path().string();
        std::error_code sec;
        e.bytes = static_cast<std::uint64_t>(de.file_size(sec));
        e.hasJournal = fs::exists(journalPath(*hash));
        e.poisoned = countPoisoned(e.path);
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const StoreEntry &a, const StoreEntry &b) {
                  return a.hash < b.hash;
              });
    return entries;
}

int
ResultStore::quarantinedFiles()
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    int count = 0;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() > 12 &&
            name.compare(name.size() - 12, 12, ".quarantined") == 0)
            ++count;
    }
    return count;
}

StoreGcStats
ResultStore::gc(bool dryRun)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);

    StoreGcStats stats;
    std::error_code ec;
    std::vector<fs::path> doomed_quarantined, doomed_tmp, doomed_journals,
        doomed_metas;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() > 12 &&
            name.compare(name.size() - 12, 12, ".quarantined") == 0) {
            doomed_quarantined.push_back(de.path());
        } else if (name.find(".tmp.") != std::string::npos) {
            doomed_tmp.push_back(de.path());
        } else if (name.size() == 16 + 8 &&
                   name.compare(16, 8, ".journal") == 0) {
            // A journal whose result is already stored is spent; one
            // without a result belongs to a resumable run — keep it.
            const std::string result_file = name.substr(0, 16) +
                                            ".result.json";
            if (fs::exists(fs::path(dir_) / result_file))
                doomed_journals.push_back(de.path());
        } else if (name.size() == 16 + 10 &&
                   name.compare(16, 10, ".meta.json") == 0) {
            // Same spent-vs-resumable rule as journals: a meta whose
            // result is stored has served its recovery purpose.
            const std::string result_file = name.substr(0, 16) +
                                            ".result.json";
            if (fs::exists(fs::path(dir_) / result_file))
                doomed_metas.push_back(de.path());
        }
    }
    const auto removeAll = [&](const std::vector<fs::path> &paths) {
        int removed = 0;
        for (const fs::path &p : paths) {
            stats.paths.push_back(p.string());
            if (dryRun) {
                ++removed;
                continue;
            }
            std::error_code rec;
            if (fs::remove(p, rec))
                ++removed;
        }
        return removed;
    };
    stats.quarantined = removeAll(doomed_quarantined);
    stats.tmpFiles = removeAll(doomed_tmp);
    stats.journals = removeAll(doomed_journals);
    stats.metaFiles = removeAll(doomed_metas);
    return stats;
}

void
ResultStore::removeJournal(std::uint64_t hash)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    std::error_code ec;
    fs::remove(journalPath(hash), ec);
}

std::vector<std::uint64_t>
ResultStore::orphanJournals()
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    std::vector<std::uint64_t> orphans;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() != 16 + 8 || name.compare(16, 8, ".journal") != 0)
            continue;
        const std::optional<std::uint64_t> hash =
            common::json::parseHex64(std::string_view(name).substr(0, 16));
        if (hash && !fs::exists(resultPath(*hash)))
            orphans.push_back(*hash);
    }
    std::sort(orphans.begin(), orphans.end());
    return orphans;
}

void
ResultStore::putJobMeta(std::uint64_t hash, const Value &meta)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    std::string error;
    if (!common::writeFileAtomic(metaPath(hash), meta.dump(2) + "\n",
                                 &error))
        GEMINI_WARN("store: ", error);
}

std::optional<Value>
ResultStore::loadJobMeta(std::uint64_t hash)
{
    std::lock_guard lock(mu_);
    DirLock dirLock(lockPath_);
    std::string text;
    if (!readFile(metaPath(hash), text))
        return std::nullopt;
    return common::json::parse(text, nullptr);
}

} // namespace gemini::api
