/**
 * @file
 * Write-ahead rung journal of the multi-fidelity DSE scheduler. The
 * scheduler's cohort keep-decisions are its deterministic replay points:
 * the per-candidate objectives they rank do not depend on thread
 * scheduling, and every rung's SA is seeded per-rung and warm-started
 * from the previous rung's best mapping. A journal record written at one
 * keep-decision therefore captures everything a resumed run needs —
 * the survivor set, each survivor's warm-start mappings, and the result
 * ledger so far — to continue from rung+1 and land on the *bit-identical*
 * final winner an uninterrupted run would have produced.
 *
 * Wire format: one JSON line per record,
 *
 *   {"checksum":"<16 hex>","record":{...}}
 *
 * where the checksum is FNV-1a 64 of the record's canonical JSON text.
 * Appends are flushed to stable storage before the scheduler enqueues the
 * next rung (write-ahead). A crash mid-append leaves a torn final line;
 * load() verifies parse + checksum + tag line by line and returns the
 * valid prefix, so a torn tail simply falls back one rung. The journal is
 * the one artifact that appends in place — everything else publishes via
 * common::writeFileAtomic.
 */

#ifndef GEMINI_DSE_JOURNAL_HH
#define GEMINI_DSE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/dse/dse.hh"
#include "src/mapping/encoding.hh"

namespace gemini::dse {

/** One journal line: the state of a run just after a rung resolved. */
struct JournalRecord
{
    /** Wire-format version; readers reject records from the future. */
    int version = 1;

    /**
     * Caller-chosen identity of the experiment this journal belongs to
     * (the API layer uses the canonical spec hash). load() drops records
     * whose tag differs, so a journal can never resume a different
     * experiment that happened to reuse the file path.
     */
    std::uint64_t tag = 0;

    /** The rung that just resolved (0 = screen, .., polish). */
    int rung = -1;
    std::string rungName;

    /**
     * True on the run's last record: `snapshot` then carries the complete
     * result (bestIndex set) and survivors/warmStarts are empty — resume
     * rebuilds the result without re-evaluating anything.
     */
    bool final = false;

    /** Best feasible objective across all resolved rungs. */
    double bestSoFar = 0.0;

    /**
     * Full result ledger at this point: every candidate's record (deepest
     * completed evaluation) plus the per-rung stats table.
     */
    DseResult snapshot;

    /** Candidate indices promoted into rung+1 (ascending). */
    std::vector<std::size_t> survivors;

    /** Per-survivor per-model warm-start mappings ([survivor][model]). */
    std::vector<std::vector<mapping::LpMapping>> warmStarts;
};

/** The valid prefix of a journal file. */
struct JournalLoadResult
{
    std::vector<JournalRecord> records;

    /**
     * Bytes of the file covered by `records`. A resuming writer truncates
     * the file to this length before appending, so a torn tail can never
     * glue itself onto the next record.
     */
    std::uint64_t validBytes = 0;

    /** Trailing lines dropped as torn/corrupt (0 on a clean journal). */
    int droppedTail = 0;

    /** Non-empty when the file existed but could not be read at all. */
    std::string error;
};

/**
 * Append one record and flush it to stable storage. Returns false (with
 * an actionable message in `error`) on any I/O failure — the caller keeps
 * running and simply loses resumability past this rung. Fault-injection
 * site: "journal.append".
 */
bool journalAppend(const std::string &path, const JournalRecord &record,
                   std::string *error = nullptr);

/**
 * journalAppend() with the warm starts read from a per-candidate table
 * instead of `record.warmStarts` (which is ignored): survivor k's
 * mappings are `warmByCandidate[record.survivors[k]]`. Each mapping is
 * serialized straight into the line, so a scheduler can journal its
 * survivors without copying their mappings. The line is byte-identical
 * to the one journalAppend() writes for the same warm starts.
 */
bool journalAppend(
    const std::string &path, const JournalRecord &record,
    const std::vector<std::vector<mapping::LpMapping>> &warmByCandidate,
    std::string *error = nullptr);

/**
 * Read the valid prefix of a journal: records must parse, carry a good
 * checksum, match `tag`, and advance the rung index contiguously from the
 * file's first record. Everything from the first bad line on is reported
 * as dropped tail. A missing file yields an empty result (no error).
 */
JournalLoadResult journalLoad(const std::string &path, std::uint64_t tag);

/** Truncate a journal to its valid prefix (see JournalLoadResult). */
bool journalTruncate(const std::string &path, std::uint64_t validBytes,
                     std::string *error = nullptr);

/** Start a fresh journal: create (or empty) the file. */
bool journalStart(const std::string &path, std::string *error = nullptr);

} // namespace gemini::dse

#endif // GEMINI_DSE_JOURNAL_HH
