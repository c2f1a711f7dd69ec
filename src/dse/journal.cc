#include "src/dse/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

// The record payload reuses the API layer's JSON round trips (everything
// lives in one static library; the dependency is .cc-level only, so there
// is no header cycle — dse.hh knows nothing about serialization).
#include "src/api/json_reader.hh"
#include "src/api/results.hh"
#include "src/common/fault_injection.hh"
#include "src/common/json.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define GEMINI_HAVE_POSIX_FS 1
#endif

namespace gemini::dse {

using common::json::Value;

/** The record's field list (it lives in this namespace for ADL). */
template <class Io>
void
describe(Io &io, JournalRecord &x)
{
    io.field("version", x.version);
    io.check(x.version <= 1, "version",
             "from a newer writer (" + std::to_string(x.version) + ")");
    io.hex("tag", x.tag, ""); // hex: 64-bit tags exceed JSON's 2^53
    io.field("rung", x.rung);
    io.field("rung_name", x.rungName);
    io.field("final", x.final);
    io.extended("best_so_far", x.bestSoFar);
    io.required("snapshot", x.snapshot);
    io.field("survivors", x.survivors);
    // appendPayload streams the warm starts itself, one mapping at a time.
    if (Io::kReading)
        io.required("warm_starts", x.warmStarts);
    io.check(x.survivors.size() == x.warmStarts.size(), "",
             "survivors and warm_starts must be parallel");
}

namespace {

/**
 * Append the canonical payload of one record to `out`, with survivor k's
 * warm starts read from `warm_of(k)`. Everything but the warm starts goes
 * through one Value written from the record's field list (which leaves
 * them out); the warm starts are spliced into its canonical text
 * one mapping at a time, so no tree of every survivor's mappings is ever
 * built. The splice reproduces the canonical form exactly: canonical() is
 * compact and sorts keys bytewise, and "warm_starts" sorts after every
 * other key of the record, so it is the last member, right before the
 * closing brace.
 */
template <class WarmOf>
void
appendPayload(std::string &out, const JournalRecord &rec,
              const WarmOf &warm_of)
{
    const Value v = api::writeJson(rec);
    out += v.canonical();
    out.pop_back(); // the record's closing brace
    out += ",\"warm_starts\":[";
    for (std::size_t k = 0; k < rec.survivors.size(); ++k) {
        out += k ? ",[" : "[";
        const std::vector<mapping::LpMapping> &per_model = warm_of(k);
        for (std::size_t m = 0; m < per_model.size(); ++m) {
            if (m)
                out += ',';
            out += api::writeJson(per_model[m]).canonical();
        }
        out += ']';
    }
    out += "]}";
}

/**
 * Serialize one journal line: {"checksum":"<16 hex>","record":<payload>}
 * plus a newline. The payload is built in place behind a placeholder
 * checksum, which is filled in once the payload is complete, so the line
 * holds the only copy of the payload. canonical() is compact (no
 * whitespace) and escapes control characters inside strings, so one
 * record is always one line, and the bytes on the wire are exactly the
 * bytes that were checksummed.
 */
template <class WarmOf>
std::string
encodeLine(const JournalRecord &rec, const WarmOf &warm_of)
{
    constexpr std::string_view kHead =
        "{\"checksum\":\"0000000000000000\",\"record\":";
    constexpr std::size_t kChecksumAt = 13;
    std::string line(kHead);
    appendPayload(line, rec, warm_of);
    line.replace(kChecksumAt, 16,
                 common::json::hex64(common::json::fnv1a64(
                     std::string_view(line).substr(kHead.size()))));
    line += "}\n";
    return line;
}

/** Parse + verify one journal line; false on any mismatch. */
bool
decodeLine(const std::string &line, std::uint64_t tag, JournalRecord &out,
           std::string *error)
{
    const std::optional<Value> v = common::json::parse(line, error);
    if (!v)
        return false;
    api::ObjectReader r(*v, "line", error);
    std::string checksum;
    r.field("checksum", checksum);
    const Value *record = r.require("record");
    if (!record || !r.finish())
        return false;
    if (common::json::hex64(common::json::fnv1a64(record->canonical())) != checksum) {
        if (error && error->empty())
            *error = "line.checksum: mismatch (corrupt or torn record)";
        return false;
    }
    if (!api::readJson(*record, "record", out, error))
        return false;
    if (out.tag != tag) {
        if (error && error->empty())
            *error = "record.tag: journal belongs to a different "
                     "experiment";
        return false;
    }
    return true;
}

void
setIoError(std::string *error, const std::string &what,
           const std::string &path, int err)
{
    if (error)
        *error = what + " " + path + ": " + std::strerror(err);
}

/** Append one encoded line and flush it to stable storage. */
bool
appendLine(const std::string &path, const std::string &line,
           std::string *error)
{
    if (common::fault::shouldFail("journal.append")) {
        setIoError(error, "cannot append to journal", path, ENOSPC);
        return false;
    }
#ifdef GEMINI_HAVE_POSIX_FS
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (fd < 0) {
        setIoError(error, "cannot open journal", path, errno);
        return false;
    }
    bool ok = true;
    std::size_t done = 0;
    while (done < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + done, line.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ok = false;
            break;
        }
        done += static_cast<std::size_t>(n);
    }
    // Write-ahead: the record must be on stable storage before the
    // scheduler moves past this rung.
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (!ok)
        setIoError(error, "cannot append to journal", path,
                   errno ? errno : ENOSPC);
    ::close(fd);
    return ok;
#else
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f) {
        setIoError(error, "cannot open journal", path, errno);
        return false;
    }
    const bool ok =
        std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
        std::fflush(f) == 0;
    if (!ok)
        setIoError(error, "cannot append to journal", path,
                   errno ? errno : ENOSPC);
    std::fclose(f);
    return ok;
#endif
}

} // namespace

bool
journalAppend(const std::string &path, const JournalRecord &record,
              std::string *error)
{
    const auto warm_of = [&](std::size_t k)
        -> const std::vector<mapping::LpMapping> & {
        return record.warmStarts.at(k);
    };
    return appendLine(path, encodeLine(record, warm_of), error);
}

bool
journalAppend(
    const std::string &path, const JournalRecord &record,
    const std::vector<std::vector<mapping::LpMapping>> &warmByCandidate,
    std::string *error)
{
    const auto warm_of = [&](std::size_t k)
        -> const std::vector<mapping::LpMapping> & {
        return warmByCandidate.at(record.survivors[k]);
    };
    return appendLine(path, encodeLine(record, warm_of), error);
}

JournalLoadResult
journalLoad(const std::string &path, std::uint64_t tag)
{
    JournalLoadResult out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out; // no journal: a fresh run, not an error

    std::string line;
    int next_rung = -1; // first record fixes the base; then contiguous
    while (std::getline(in, line)) {
        const std::uint64_t line_bytes = line.size() + 1; // + '\n'
        JournalRecord rec;
        std::string parse_error;
        if (!decodeLine(line, tag, rec, &parse_error)) {
            ++out.droppedTail;
            break;
        }
        if (next_rung >= 0 && rec.rung != next_rung) {
            ++out.droppedTail;
            break;
        }
        next_rung = rec.rung + 1;
        out.records.push_back(std::move(rec));
        out.validBytes += line_bytes;
    }
    // Everything after the first bad/non-contiguous line is tail: count
    // it so callers can report how much work a torn write cost.
    while (std::getline(in, line))
        ++out.droppedTail;
    return out;
}

bool
journalTruncate(const std::string &path, std::uint64_t validBytes,
                std::string *error)
{
#ifdef GEMINI_HAVE_POSIX_FS
    if (::truncate(path.c_str(), static_cast<off_t>(validBytes)) != 0) {
        setIoError(error, "cannot truncate journal", path, errno);
        return false;
    }
    return true;
#else
    // Portable fallback: rewrite the valid prefix.
    std::string prefix;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            setIoError(error, "cannot open journal", path, errno);
            return false;
        }
        prefix.resize(validBytes);
        in.read(prefix.data(), static_cast<std::streamsize>(validBytes));
        prefix.resize(static_cast<std::size_t>(in.gcount()));
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    if (!out) {
        setIoError(error, "cannot truncate journal", path, errno);
        return false;
    }
    return true;
#endif
}

bool
journalStart(const std::string &path, std::string *error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        setIoError(error, "cannot create journal", path, errno);
        return false;
    }
    return true;
}

} // namespace gemini::dse
