/**
 * @file
 * Durability & crash-safety tests: fault-injection semantics, atomic file
 * publishes, result-store integrity (checksums, quarantine, collisions,
 * cross-instance locking), the write-ahead rung journal (torn tails,
 * foreign tags, contiguity), the crash-resume differential matrix over
 * every journal prefix, wall-clock deadlines, and failure-kind
 * preservation through JobHandle::rethrow().
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/results.hh"
#include "src/api/service.hh"
#include "src/api/spec.hh"
#include "src/api/store.hh"
#include "src/api/supervisor.hh"
#include "src/api/worker.hh"
#include "src/common/fault_injection.hh"
#include "src/common/fs_atomic.hh"
#include "src/common/stop_token.hh"
#include "src/common/subprocess.hh"
#include "src/common/thread_pool.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/dse.hh"
#include "src/dse/journal.hh"
#include "src/mapping/engine.hh"

namespace gemini {
namespace {

namespace fs = std::filesystem;
namespace fault = common::fault;

/** Fresh scratch directory per test; fault injection disarmed around it. */
class RobustnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("gemini_robust_") + info->test_suite_name() +
                 "_" + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fault::reset();
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (fs::path(dir_) / name).string();
    }

    static std::string
    slurp(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    std::string dir_;
};

/** The tiny DSE spec the service tests use: 8 candidates, 2-core grids. */
api::ExperimentSpec
tinySpec()
{
    api::ExperimentSpec spec;
    spec.name = "tiny-robust";
    spec.mode = api::ExperimentSpec::Mode::Dse;
    spec.models = {{.zoo = "tiny_conv", .file = ""}};
    spec.axes.topsTarget = 1.0;
    spec.axes.xCuts = {1, 2};
    spec.axes.yCuts = {1};
    spec.axes.dramGBpsPerTops = {2.0};
    spec.axes.nocGBps = {16, 32};
    spec.axes.d2dRatio = {0.5};
    spec.axes.glbKiB = {256, 512};
    spec.axes.macsPerCore = {256};
    spec.mapping.batch = 2;
    spec.mapping.sa.iterations = 40;
    spec.mapping.maxGroupLayers = 4;
    spec.threads = 2;
    return spec;
}

// ------------------------------------------------------ fault sites ----

using FaultInjection = RobustnessTest;

TEST_F(FaultInjection, DisarmedByDefaultThenConfigures)
{
    EXPECT_FALSE(fault::shouldFail("store.write"));
    fault::configure("store.write");
    EXPECT_TRUE(fault::armed());
    EXPECT_TRUE(fault::shouldFail("store.write"));
    EXPECT_TRUE(fault::shouldFail("store.write")); // bare site = every hit
    EXPECT_FALSE(fault::shouldFail("journal.append")); // other sites clean
    EXPECT_EQ(fault::hitCount("store.write"), 2);
    fault::reset();
    EXPECT_FALSE(fault::shouldFail("store.write"));
    EXPECT_EQ(fault::hitCount("store.write"), 0);
}

TEST_F(FaultInjection, NthHitAndStickyGrammar)
{
    fault::configure("a=2,b=2+");
    EXPECT_FALSE(fault::shouldFail("a")); // hit 1
    EXPECT_TRUE(fault::shouldFail("a"));  // hit 2: the one-shot
    EXPECT_FALSE(fault::shouldFail("a")); // hit 3: spent
    EXPECT_FALSE(fault::shouldFail("b"));
    EXPECT_TRUE(fault::shouldFail("b"));
    EXPECT_TRUE(fault::shouldFail("b")); // sticky stays on
}

TEST_F(FaultInjection, ThrowIfDueCarriesTheSite)
{
    fault::configure("boom");
    try {
        fault::throwIfDue("boom");
        FAIL() << "expected InjectedFault";
    } catch (const fault::InjectedFault &e) {
        EXPECT_EQ(e.site, "boom");
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
}

// ----------------------------------------------------- atomic files ----

using AtomicFile = RobustnessTest;

TEST_F(AtomicFile, PublishesAndOverwrites)
{
    const std::string target = path("a.json");
    ASSERT_TRUE(common::writeFileAtomic(target, "first"));
    EXPECT_EQ(slurp(target), "first");
    ASSERT_TRUE(common::writeFileAtomic(target, "second"));
    EXPECT_EQ(slurp(target), "second");
    for (const fs::directory_entry &de : fs::directory_iterator(dir_))
        EXPECT_EQ(de.path().filename().string().find(".tmp."),
                  std::string::npos);
}

TEST_F(AtomicFile, InjectedWriteFailureLeavesTargetIntact)
{
    const std::string target = path("a.json");
    ASSERT_TRUE(common::writeFileAtomic(target, "good"));
    fault::configure("atomic.write");
    std::string error;
    EXPECT_FALSE(common::writeFileAtomic(target, "torn", &error));
    EXPECT_NE(error.find("cannot write temp file"), std::string::npos);
    EXPECT_NE(error.find("No space left"), std::string::npos);
    EXPECT_EQ(slurp(target), "good") << "failed publish must not tear";
    fault::reset();
    for (const fs::directory_entry &de : fs::directory_iterator(dir_))
        EXPECT_EQ(de.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "temp file leaked by failed publish";
}

TEST_F(AtomicFile, InjectedRenameFailureLeavesTargetIntact)
{
    const std::string target = path("a.json");
    ASSERT_TRUE(common::writeFileAtomic(target, "good"));
    fault::configure("atomic.rename");
    std::string error;
    EXPECT_FALSE(common::writeFileAtomic(target, "torn", &error));
    EXPECT_EQ(slurp(target), "good");
}

// ----------------------------------------------------- result store ----

class ResultStoreTest : public RobustnessTest
{
  protected:
    /** One real completed result, computed once for the whole suite. */
    static const api::ExperimentResult &
    doneResult()
    {
        static const api::ExperimentResult result = [] {
            api::ExplorationService service(2);
            api::JobHandle job = service.submit(tinySpec());
            api::ExperimentResult r = job.wait();
            EXPECT_EQ(job.state(), api::JobState::Done);
            return r;
        }();
        return result;
    }

    static std::string
    canonicalSpecOf(const api::ExperimentResult &r)
    {
        return r.spec.canonicalText();
    }
};

TEST_F(ResultStoreTest, ResultJsonRoundTripsExactly)
{
    const api::ExperimentResult &r = doneResult();
    std::string error;
    const std::optional<api::ExperimentResult> back =
        api::ExperimentResult::fromJson(r.toJson(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->toJson().canonical(), r.toJson().canonical());
    EXPECT_EQ(back->specHash, r.specHash);
}

TEST_F(ResultStoreTest, PutGetRoundTrip)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore store(dir_);
    std::string error;
    ASSERT_TRUE(store.put(r, &error)) << error;

    const std::shared_ptr<const api::ExperimentResult> got =
        store.get(r.specHash, canonicalSpecOf(r));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->toJson().canonical(), r.toJson().canonical());

    const std::vector<api::StoreEntry> entries = store.list();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].hash, r.specHash);
    EXPECT_FALSE(entries[0].hasJournal);
}

TEST_F(ResultStoreTest, HashCollisionIsAMissAndLeavesRecordIntact)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore store(dir_);
    ASSERT_TRUE(store.put(r));
    // Same hash, different canonical spec: a simulated 64-bit collision.
    EXPECT_EQ(store.get(r.specHash, "{\"other\":\"spec\"}"), nullptr);
    // The record still belongs to its real owner.
    EXPECT_NE(store.get(r.specHash, canonicalSpecOf(r)), nullptr);
}

TEST_F(ResultStoreTest, CorruptedChecksumQuarantinedNeverServed)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore store(dir_);
    ASSERT_TRUE(store.put(r));
    const std::vector<api::StoreEntry> entries = store.list();
    ASSERT_EQ(entries.size(), 1u);

    // Flip one payload byte: checksum must catch it.
    std::string text = slurp(entries[0].path);
    const std::size_t pos = text.size() / 2;
    text[pos] = text[pos] == '1' ? '2' : '1';
    {
        std::ofstream out(entries[0].path, std::ios::binary);
        out << text;
    }
    EXPECT_EQ(store.get(r.specHash, canonicalSpecOf(r)), nullptr);
    EXPECT_FALSE(fs::exists(entries[0].path)) << "renamed aside";
    EXPECT_TRUE(fs::exists(entries[0].path + ".quarantined"));
    // Once quarantined, the hash is a plain (recomputable) miss.
    EXPECT_EQ(store.get(r.specHash, canonicalSpecOf(r)), nullptr);
}

TEST_F(ResultStoreTest, TruncatedRecordQuarantined)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore store(dir_);
    ASSERT_TRUE(store.put(r));
    const std::string p = store.list()[0].path;
    const std::string text = slurp(p);
    {
        std::ofstream out(p, std::ios::binary);
        out << text.substr(0, text.size() / 3); // torn mid-record
    }
    EXPECT_EQ(store.get(r.specHash, canonicalSpecOf(r)), nullptr);
    EXPECT_TRUE(fs::exists(p + ".quarantined"));
}

TEST_F(ResultStoreTest, InjectedWriteFailureIsActionable)
{
    fault::configure("store.write");
    api::ResultStore store(dir_);
    std::string error;
    EXPECT_FALSE(store.put(doneResult(), &error));
    EXPECT_NE(error.find("No space left"), std::string::npos);
    EXPECT_NE(error.find(".result.json"), std::string::npos);
}

TEST_F(ResultStoreTest, GcSweepsQuarantineTempAndSpentJournals)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore store(dir_);
    ASSERT_TRUE(store.put(r));

    { // quarantined record
        std::ofstream(path("dead.result.json.quarantined")) << "x";
    }
    { // orphan temp from a crashed publish
        std::ofstream(path("0123456789abcdef.result.json.tmp.42")) << "x";
    }
    { // spent journal: its result is stored
        std::ofstream(store.journalPath(r.specHash)) << "x";
    }
    { // live journal: no stored result — must survive gc
        std::ofstream(store.journalPath(r.specHash + 1)) << "x";
    }

    const api::StoreGcStats stats = store.gc();
    EXPECT_EQ(stats.quarantined, 1);
    EXPECT_EQ(stats.tmpFiles, 1);
    EXPECT_EQ(stats.journals, 1);
    EXPECT_FALSE(fs::exists(store.journalPath(r.specHash)));
    EXPECT_TRUE(fs::exists(store.journalPath(r.specHash + 1)))
        << "resumable journal swept";
    EXPECT_NE(store.get(r.specHash, canonicalSpecOf(r)), nullptr)
        << "gc must never touch good records";
}

TEST_F(ResultStoreTest, TwoInstancesShareOneDirectorySafely)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore a(dir_), b(dir_);
    const std::string canonical = canonicalSpecOf(r);
    const std::string want = r.toJson().canonical();

    std::atomic<int> bad{0};
    std::thread writer([&] {
        for (int i = 0; i < 25; ++i)
            if (!a.put(r))
                ++bad;
    });
    std::thread reader([&] {
        for (int i = 0; i < 25; ++i) {
            // Advisory locking serializes against the writer: a get sees
            // either a miss (not yet written) or a fully intact record.
            if (const auto got = b.get(r.specHash, canonical))
                if (got->toJson().canonical() != want)
                    ++bad;
        }
    });
    writer.join();
    reader.join();
    EXPECT_EQ(bad.load(), 0);
    ASSERT_EQ(a.list().size(), 1u);
    EXPECT_NE(b.get(r.specHash, canonical), nullptr);
}

// ------------------------------------------------------ rung journal ----

class RungJournalTest : public RobustnessTest
{
  protected:
    static dse::JournalRecord
    record(int rung, std::uint64_t tag = 7)
    {
        dse::JournalRecord rec;
        rec.tag = tag;
        rec.rung = rung;
        rec.rungName = "rung" + std::to_string(rung);
        rec.bestSoFar = 1.0 + rung;
        rec.survivors = {0, 2};
        rec.warmStarts = {{}, {}};
        return rec;
    }

    static std::vector<std::string>
    lines(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        std::vector<std::string> out;
        std::string line;
        while (std::getline(in, line))
            out.push_back(line);
        return out;
    }
};

TEST_F(RungJournalTest, AppendLoadRoundTrip)
{
    const std::string p = path("j");
    std::string error;
    ASSERT_TRUE(dse::journalAppend(p, record(0), &error)) << error;
    ASSERT_TRUE(dse::journalAppend(p, record(1), &error)) << error;

    const dse::JournalLoadResult loaded = dse::journalLoad(p, 7);
    EXPECT_TRUE(loaded.error.empty()) << loaded.error;
    ASSERT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.droppedTail, 0);
    EXPECT_EQ(loaded.records[1].rung, 1);
    EXPECT_EQ(loaded.records[1].rungName, "rung1");
    EXPECT_EQ(loaded.records[1].bestSoFar, 2.0);
    EXPECT_EQ(loaded.records[1].survivors, (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(loaded.validBytes, fs::file_size(p));
}

TEST_F(RungJournalTest, MissingFileIsEmptyNotAnError)
{
    const dse::JournalLoadResult loaded = dse::journalLoad(path("none"), 7);
    EXPECT_TRUE(loaded.error.empty());
    EXPECT_TRUE(loaded.records.empty());
    EXPECT_EQ(loaded.droppedTail, 0);
}

TEST_F(RungJournalTest, TornTailDetectedDroppedAndTruncatable)
{
    const std::string p = path("j");
    ASSERT_TRUE(dse::journalAppend(p, record(0)));
    ASSERT_TRUE(dse::journalAppend(p, record(1)));
    const std::uint64_t clean_bytes = fs::file_size(p);
    { // a crash mid-append: half a line, no trailing newline
        std::ofstream out(p, std::ios::binary | std::ios::app);
        out << "{\"checksum\":\"dead";
    }

    const dse::JournalLoadResult loaded = dse::journalLoad(p, 7);
    ASSERT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.droppedTail, 1);
    EXPECT_EQ(loaded.validBytes, clean_bytes);

    // Resume protocol: truncate to the valid prefix, then append onward.
    std::string error;
    ASSERT_TRUE(dse::journalTruncate(p, loaded.validBytes, &error)) << error;
    ASSERT_TRUE(dse::journalAppend(p, record(2)));
    EXPECT_EQ(dse::journalLoad(p, 7).records.size(), 3u);
    EXPECT_EQ(dse::journalLoad(p, 7).droppedTail, 0);
}

TEST_F(RungJournalTest, CorruptMiddleDropsEverythingAfter)
{
    const std::string p = path("j");
    for (int r = 0; r < 3; ++r)
        ASSERT_TRUE(dse::journalAppend(p, record(r)));
    std::vector<std::string> ls = lines(p);
    ASSERT_EQ(ls.size(), 3u);
    ls[1][ls[1].size() / 2] ^= 1; // bit-flip inside record 1
    {
        std::ofstream out(p, std::ios::binary);
        for (const std::string &l : ls)
            out << l << "\n";
    }
    const dse::JournalLoadResult loaded = dse::journalLoad(p, 7);
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(loaded.records[0].rung, 0);
    EXPECT_EQ(loaded.droppedTail, 2) << "rest of file is untrusted";
}

TEST_F(RungJournalTest, ForeignTagNeverResumes)
{
    const std::string p = path("j");
    ASSERT_TRUE(dse::journalAppend(p, record(0, /*tag=*/7)));
    const dse::JournalLoadResult loaded = dse::journalLoad(p, /*tag=*/8);
    EXPECT_TRUE(loaded.records.empty());
    EXPECT_EQ(loaded.droppedTail, 1);
}

TEST_F(RungJournalTest, RungGapEndsTheValidPrefix)
{
    const std::string p = path("j");
    ASSERT_TRUE(dse::journalAppend(p, record(0)));
    ASSERT_TRUE(dse::journalAppend(p, record(2))); // rung 1 missing
    const dse::JournalLoadResult loaded = dse::journalLoad(p, 7);
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(loaded.droppedTail, 1);
}

TEST_F(RungJournalTest, InjectedAppendFailureReportsAndLeavesFileClean)
{
    const std::string p = path("j");
    ASSERT_TRUE(dse::journalAppend(p, record(0)));
    fault::configure("journal.append");
    std::string error;
    EXPECT_FALSE(dse::journalAppend(p, record(1), &error));
    EXPECT_FALSE(error.empty());
    fault::reset();
    EXPECT_EQ(dse::journalLoad(p, 7).records.size(), 1u);
}

// ------------------------------------------------ journal wire bytes ----

/** A small hand-built warm start, distinct per (survivor, model). */
mapping::LpMapping
pinnedMapping(int survivor, int model)
{
    mapping::LpMapping m;
    m.batch = 4;
    mapping::LayerGroupMapping g;
    g.batchUnit = 2;
    g.layers = {0, 1};
    mapping::MappingScheme a;
    a.part = {.h = 1, .w = 1, .b = 1, .k = 2};
    a.coreGroup = {0, 1};
    a.fd = {1, 0, -1};
    mapping::MappingScheme b;
    b.part = {.h = 2, .w = 1, .b = 1, .k = 1};
    b.coreGroup = {static_cast<CoreId>(2 + survivor),
                   static_cast<CoreId>(4 + model)};
    b.fd = {-1, 1, static_cast<DramSel>(survivor + model)};
    g.schemes = {a, b};
    m.groups.push_back(g);
    mapping::LayerGroupMapping tail;
    tail.batchUnit = 4;
    tail.layers = {2};
    mapping::MappingScheme c;
    c.coreGroup = {7};
    c.fd = {-1, 0, 1};
    tail.schemes = {c};
    m.groups.push_back(tail);
    return m;
}

/**
 * A fixed rung record: 3 candidates, 2 survivors x 2 models of warm
 * starts, a non-finite best_so_far and escaped characters in a string.
 */
dse::JournalRecord
pinnedRecord()
{
    dse::JournalRecord rec;
    rec.tag = 0xfedcba9876543210ull;
    rec.rung = 1;
    rec.rungName = "race1";
    rec.bestSoFar = std::numeric_limits<double>::infinity();
    rec.snapshot.records.resize(3);
    for (std::size_t i = 0; i < 3; ++i) {
        dse::DseRecord &r = rec.snapshot.records[i];
        r.objective = 0.1 * static_cast<double>(i + 1);
        r.objectiveLowerBound = r.objective / 3.0;
        r.rungReached = i == 1 ? 0 : 1;
        r.prunedByBound = i == 1;
        r.perModel.resize(2);
        r.perModel[0].delay = 1e-3 * static_cast<double>(i + 1);
    }
    rec.snapshot.records[1].poisoned = true;
    rec.snapshot.records[1].poisonReason = "killed\tby \"watchdog\"";
    rec.snapshot.stats.scheduled = true;
    rec.snapshot.stats.rungs.resize(3);
    rec.snapshot.stats.rungs[0].name = "screen";
    rec.snapshot.stats.rungs[0].entered = 3;
    rec.snapshot.stats.rungs[0].advanced = 2;
    rec.snapshot.stats.rungs[1].name = "race1";
    rec.snapshot.stats.rungs[2].name = "polish";
    rec.survivors = {0, 2};
    for (int s = 0; s < 2; ++s)
        rec.warmStarts.push_back({pinnedMapping(s, 0), pinnedMapping(s, 1)});
    return rec;
}

/**
 * The line a version-1 writer produced for pinnedRecord() (serialized
 * through one whole-record JSON tree). The streaming writer must
 * reproduce it byte for byte, and resume must keep reading it.
 */
const std::string kPinnedLine =
    "{\"checksum\":\"a8eeddd47454fc48\",\"record\":{\"best_so_far\":null,\"fi"
    "nal\":false,\"rung\":1,\"rung_name\":\"race1\",\"snapshot\":{\"best_inde"
    "x\":-1,\"records\":[{\"arch\":{\"d2d_gbps\":16,\"dram_count\":2,\"dram_g"
    "bps\":144,\"freq_ghz\":1,\"glb_kib\":2048,\"macs_per_core\":1024,\"name"
    "\":\"custom\",\"noc_gbps\":32,\"topology\":\"mesh\",\"x_cores\":6,\"x_cu"
    "t\":1,\"y_cores\":6,\"y_cut\":1},\"bound_compute_s\":0,\"bound_dram_s\":"
    "0,\"bound_noc_s\":0,\"bound_refetch_bytes\":0,\"delay_geo_s\":0,\"energy"
    "_geo_j\":0,\"eval_seconds\":0,\"feasible\":true,\"mc\":{\"compute_die_ar"
    "ea_mm2\":0,\"compute_die_yield\":1,\"compute_silicon\":0,\"d2d_area_frac"
    "tion\":0,\"dram\":0,\"io_silicon\":0,\"package\":0,\"total\":0,\"total_s"
    "ilicon_area_mm2\":0},\"objective\":0.1,\"objective_lower_bound\":0.03333"
    "333333333333,\"per_model\":[{\"d2d_hop_bytes\":0,\"d2d_j\":0,\"delay_s\""
    ":0.001,\"dram_bytes\":0,\"dram_j\":0,\"glb_overflow\":0,\"hop_bytes\":0,"
    "\"intra_tile_j\":0,\"noc_j\":0},{\"d2d_hop_bytes\":0,\"d2d_j\":0,\"delay"
    "_s\":0,\"dram_bytes\":0,\"dram_j\":0,\"glb_overflow\":0,\"hop_bytes\":0,"
    "\"intra_tile_j\":0,\"noc_j\":0}],\"poison_reason\":\"\",\"poisoned\":fal"
    "se,\"pruned_by_bound\":false,\"rung_reached\":1,\"sa_iters\":0,\"seeded_"
    "analytic\":false},{\"arch\":{\"d2d_gbps\":16,\"dram_count\":2,\"dram_gbp"
    "s\":144,\"freq_ghz\":1,\"glb_kib\":2048,\"macs_per_core\":1024,\"name\":"
    "\"custom\",\"noc_gbps\":32,\"topology\":\"mesh\",\"x_cores\":6,\"x_cut\""
    ":1,\"y_cores\":6,\"y_cut\":1},\"bound_compute_s\":0,\"bound_dram_s\":0,"
    "\"bound_noc_s\":0,\"bound_refetch_bytes\":0,\"delay_geo_s\":0,\"energy_g"
    "eo_j\":0,\"eval_seconds\":0,\"feasible\":true,\"mc\":{\"compute_die_area"
    "_mm2\":0,\"compute_die_yield\":1,\"compute_silicon\":0,\"d2d_area_fracti"
    "on\":0,\"dram\":0,\"io_silicon\":0,\"package\":0,\"total\":0,\"total_sil"
    "icon_area_mm2\":0},\"objective\":0.2,\"objective_lower_bound\":0.0666666"
    "6666666667,\"per_model\":[{\"d2d_hop_bytes\":0,\"d2d_j\":0,\"delay_s\":0"
    ".002,\"dram_bytes\":0,\"dram_j\":0,\"glb_overflow\":0,\"hop_bytes\":0,\""
    "intra_tile_j\":0,\"noc_j\":0},{\"d2d_hop_bytes\":0,\"d2d_j\":0,\"delay_s"
    "\":0,\"dram_bytes\":0,\"dram_j\":0,\"glb_overflow\":0,\"hop_bytes\":0,\""
    "intra_tile_j\":0,\"noc_j\":0}],\"poison_reason\":\"killed\\tby \\\"watch"
    "dog\\\"\",\"poisoned\":true,\"pruned_by_bound\":true,\"rung_reached\":0,"
    "\"sa_iters\":0,\"seeded_analytic\":false},{\"arch\":{\"d2d_gbps\":16,\"d"
    "ram_count\":2,\"dram_gbps\":144,\"freq_ghz\":1,\"glb_kib\":2048,\"macs_p"
    "er_core\":1024,\"name\":\"custom\",\"noc_gbps\":32,\"topology\":\"mesh\""
    ",\"x_cores\":6,\"x_cut\":1,\"y_cores\":6,\"y_cut\":1},\"bound_compute_s"
    "\":0,\"bound_dram_s\":0,\"bound_noc_s\":0,\"bound_refetch_bytes\":0,\"de"
    "lay_geo_s\":0,\"energy_geo_j\":0,\"eval_seconds\":0,\"feasible\":true,\""
    "mc\":{\"compute_die_area_mm2\":0,\"compute_die_yield\":1,\"compute_silic"
    "on\":0,\"d2d_area_fraction\":0,\"dram\":0,\"io_silicon\":0,\"package\":0"
    ",\"total\":0,\"total_silicon_area_mm2\":0},\"objective\":0.3000000000000"
    "0004,\"objective_lower_bound\":0.10000000000000002,\"per_model\":[{\"d2d"
    "_hop_bytes\":0,\"d2d_j\":0,\"delay_s\":0.003,\"dram_bytes\":0,\"dram_j\""
    ":0,\"glb_overflow\":0,\"hop_bytes\":0,\"intra_tile_j\":0,\"noc_j\":0},{"
    "\"d2d_hop_bytes\":0,\"d2d_j\":0,\"delay_s\":0,\"dram_bytes\":0,\"dram_j"
    "\":0,\"glb_overflow\":0,\"hop_bytes\":0,\"intra_tile_j\":0,\"noc_j\":0}]"
    ",\"poison_reason\":\"\",\"poisoned\":false,\"pruned_by_bound\":false,\"r"
    "ung_reached\":1,\"sa_iters\":0,\"seeded_analytic\":false}],\"stats\":{\""
    "cancelled\":false,\"resumed_rung\":-1,\"rungs\":[{\"advanced\":2,\"best_"
    "objective\":0,\"cpu_seconds\":0,\"entered\":3,\"name\":\"screen\",\"pois"
    "oned\":0,\"pruned_bound\":0,\"pruned_rank\":0,\"sa_iters\":0},{\"advance"
    "d\":0,\"best_objective\":0,\"cpu_seconds\":0,\"entered\":0,\"name\":\"ra"
    "ce1\",\"poisoned\":0,\"pruned_bound\":0,\"pruned_rank\":0,\"sa_iters\":0"
    "},{\"advanced\":0,\"best_objective\":0,\"cpu_seconds\":0,\"entered\":0,"
    "\"name\":\"polish\",\"poisoned\":0,\"pruned_bound\":0,\"pruned_rank\":0,"
    "\"sa_iters\":0}],\"scheduled\":true,\"truncated\":false}},\"survivors\":"
    "[0,2],\"tag\":\"fedcba9876543210\",\"version\":1,\"warm_starts\":[[{\"ba"
    "tch\":4,\"groups\":[{\"batch_unit\":2,\"layers\":[0,1],\"schemes\":[{\"c"
    "ore_group\":[0,1],\"flow\":{\"ifmap\":1,\"ofmap\":-1,\"weight\":0},\"par"
    "tition\":{\"b\":1,\"h\":1,\"k\":2,\"w\":1}},{\"core_group\":[2,4],\"flow"
    "\":{\"ifmap\":-1,\"ofmap\":0,\"weight\":1},\"partition\":{\"b\":1,\"h\":"
    "2,\"k\":1,\"w\":1}}]},{\"batch_unit\":4,\"layers\":[2],\"schemes\":[{\"c"
    "ore_group\":[7],\"flow\":{\"ifmap\":-1,\"ofmap\":1,\"weight\":0},\"parti"
    "tion\":{\"b\":1,\"h\":1,\"k\":1,\"w\":1}}]}]},{\"batch\":4,\"groups\":[{"
    "\"batch_unit\":2,\"layers\":[0,1],\"schemes\":[{\"core_group\":[0,1],\"f"
    "low\":{\"ifmap\":1,\"ofmap\":-1,\"weight\":0},\"partition\":{\"b\":1,\"h"
    "\":1,\"k\":2,\"w\":1}},{\"core_group\":[2,5],\"flow\":{\"ifmap\":-1,\"of"
    "map\":1,\"weight\":1},\"partition\":{\"b\":1,\"h\":2,\"k\":1,\"w\":1}}]}"
    ",{\"batch_unit\":4,\"layers\":[2],\"schemes\":[{\"core_group\":[7],\"flo"
    "w\":{\"ifmap\":-1,\"ofmap\":1,\"weight\":0},\"partition\":{\"b\":1,\"h\""
    ":1,\"k\":1,\"w\":1}}]}]}],[{\"batch\":4,\"groups\":[{\"batch_unit\":2,\""
    "layers\":[0,1],\"schemes\":[{\"core_group\":[0,1],\"flow\":{\"ifmap\":1,"
    "\"ofmap\":-1,\"weight\":0},\"partition\":{\"b\":1,\"h\":1,\"k\":2,\"w\":"
    "1}},{\"core_group\":[3,4],\"flow\":{\"ifmap\":-1,\"ofmap\":1,\"weight\":"
    "1},\"partition\":{\"b\":1,\"h\":2,\"k\":1,\"w\":1}}]},{\"batch_unit\":4,"
    "\"layers\":[2],\"schemes\":[{\"core_group\":[7],\"flow\":{\"ifmap\":-1,"
    "\"ofmap\":1,\"weight\":0},\"partition\":{\"b\":1,\"h\":1,\"k\":1,\"w\":1"
    "}}]}]},{\"batch\":4,\"groups\":[{\"batch_unit\":2,\"layers\":[0,1],\"sch"
    "emes\":[{\"core_group\":[0,1],\"flow\":{\"ifmap\":1,\"ofmap\":-1,\"weigh"
    "t\":0},\"partition\":{\"b\":1,\"h\":1,\"k\":2,\"w\":1}},{\"core_group\":"
    "[3,5],\"flow\":{\"ifmap\":-1,\"ofmap\":2,\"weight\":1},\"partition\":{\""
    "b\":1,\"h\":2,\"k\":1,\"w\":1}}]},{\"batch_unit\":4,\"layers\":[2],\"sch"
    "emes\":[{\"core_group\":[7],\"flow\":{\"ifmap\":-1,\"ofmap\":1,\"weight"
    "\":0},\"partition\":{\"b\":1,\"h\":1,\"k\":1,\"w\":1}}]}]}]]}}"
    "\n";

std::string
mappingsText(const std::vector<mapping::LpMapping> &ms)
{
    std::string out;
    for (const mapping::LpMapping &m : ms)
        out += api::writeJson(m).canonical() + "\n";
    return out;
}

TEST_F(RungJournalTest, StreamedLineIsByteIdenticalToVersion1)
{
    const dse::JournalRecord rec = pinnedRecord();
    const std::string p = path("j");
    ASSERT_TRUE(dse::journalAppend(p, rec));
    EXPECT_EQ(slurp(p), kPinnedLine);

    // The scheduler's form: warm starts streamed from a per-candidate
    // table (candidate 1 was not promoted).
    const std::vector<std::vector<mapping::LpMapping>> by_candidate = {
        rec.warmStarts[0], {}, rec.warmStarts[1]};
    const std::string q = path("k");
    ASSERT_TRUE(dse::journalAppend(q, rec, by_candidate));
    EXPECT_EQ(slurp(q), kPinnedLine);
}

TEST_F(RungJournalTest, Version1LineLoadsAndResumesAppending)
{
    const std::string p = path("j");
    {
        std::ofstream out(p, std::ios::binary);
        out << kPinnedLine;
    }
    const dse::JournalRecord want = pinnedRecord();
    dse::JournalLoadResult loaded = dse::journalLoad(p, want.tag);
    ASSERT_EQ(loaded.records.size(), 1u) << loaded.error;
    EXPECT_EQ(loaded.droppedTail, 0);
    EXPECT_EQ(loaded.validBytes, kPinnedLine.size());
    const dse::JournalRecord &got = loaded.records[0];
    EXPECT_EQ(got.rung, 1);
    EXPECT_EQ(got.rungName, "race1");
    EXPECT_TRUE(std::isinf(got.bestSoFar));
    EXPECT_EQ(got.survivors, want.survivors);
    ASSERT_EQ(got.snapshot.records.size(), 3u);
    EXPECT_EQ(got.snapshot.records[1].poisonReason,
              want.snapshot.records[1].poisonReason);
    ASSERT_EQ(got.warmStarts.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k)
        EXPECT_EQ(mappingsText(got.warmStarts[k]),
                  mappingsText(want.warmStarts[k]));

    // Re-encoding the decoded record gives the same bytes, and the next
    // rung appends onto the old line as one contiguous journal.
    const std::string q = path("k");
    ASSERT_TRUE(dse::journalAppend(q, got));
    EXPECT_EQ(slurp(q), kPinnedLine);
    dse::JournalRecord next = want;
    next.rung = 2;
    next.rungName = "polish";
    ASSERT_TRUE(dse::journalAppend(p, next));
    loaded = dse::journalLoad(p, want.tag);
    ASSERT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.records[1].rung, 2);
    EXPECT_EQ(loaded.droppedTail, 0);
}

// ----------------------------------------------- crash-resume matrix ----

class CrashResumeTest : public RobustnessTest
{
  protected:
    CrashResumeTest() : model_(dnn::zoo::tinyConvChain(3))
    {
        options_.axes.topsTarget = 1.0;
        options_.axes.xCuts = {1, 2};
        options_.axes.yCuts = {1};
        options_.axes.dramGBpsPerTops = {2.0};
        options_.axes.nocGBps = {16, 32};
        options_.axes.d2dRatio = {0.5};
        options_.axes.glbKiB = {256, 512};
        options_.axes.macsPerCore = {256};
        options_.models = {&model_};
        options_.mapping.batch = 2;
        options_.mapping.sa.iterations = 40;
        options_.mapping.maxGroupLayers = 4;
        options_.threads = 2;
        options_.schedule.enabled = true;
        options_.schedule.rungs = 2;
        options_.schedule.keepFraction = 0.5;
        options_.schedule.baseIters = 16;
        options_.schedule.minKeep = 2;
        options_.journalTag = 42;
    }

    static void
    expectBitIdentical(const dse::DseResult &got, const dse::DseResult &ref)
    {
        ASSERT_EQ(got.records.size(), ref.records.size());
        EXPECT_EQ(got.bestIndex, ref.bestIndex);
        for (std::size_t i = 0; i < ref.records.size(); ++i) {
            // Exact ==, not NEAR: resume must replay, not re-approximate.
            EXPECT_EQ(got.records[i].objective, ref.records[i].objective)
                << "candidate " << i;
            EXPECT_TRUE(got.records[i].arch == ref.records[i].arch);
            EXPECT_EQ(got.records[i].rungReached, ref.records[i].rungReached);
            EXPECT_EQ(got.records[i].saIters, ref.records[i].saIters);
        }
        ASSERT_EQ(got.stats.rungs.size(), ref.stats.rungs.size());
        for (std::size_t r = 0; r < ref.stats.rungs.size(); ++r) {
            EXPECT_EQ(got.stats.rungs[r].entered, ref.stats.rungs[r].entered);
            EXPECT_EQ(got.stats.rungs[r].advanced,
                      ref.stats.rungs[r].advanced);
        }
    }

    dnn::Graph model_;
    dse::DseOptions options_;
};

TEST_F(CrashResumeTest, EveryJournalPrefixResumesToTheSameWinner)
{
    options_.journalPath = path("journal");
    const dse::DseResult ref = dse::runDse(options_);
    ASSERT_GE(ref.bestIndex, 0);

    // The full journal: one line per resolved rung plus the final record.
    std::vector<std::string> ls;
    {
        std::ifstream in(options_.journalPath, std::ios::binary);
        std::string line;
        while (std::getline(in, line))
            ls.push_back(line);
    }
    ASSERT_GE(ls.size(), 2u) << "scheduler should journal every rung";

    // Crash matrix: kill the run after 0, 1, .., all journal lines and
    // resume each time. k=0 degrades to a fresh run; k=all replays the
    // final record without re-evaluating; every k lands on the
    // bit-identical winner.
    for (std::size_t k = 0; k <= ls.size(); ++k) {
        dse::DseOptions o = options_;
        o.journalPath = path("journal_k" + std::to_string(k));
        {
            std::ofstream out(o.journalPath, std::ios::binary);
            for (std::size_t i = 0; i < k; ++i)
                out << ls[i] << "\n";
        }
        o.resume = true;
        const dse::DseResult got = dse::runDse(o);
        expectBitIdentical(got, ref);
        if (k == 0)
            EXPECT_EQ(got.stats.resumedRung, -1) << "fresh run";
        else
            EXPECT_EQ(got.stats.resumedRung, static_cast<int>(k) - 1);
    }
}

TEST_F(CrashResumeTest, TornTailFallsBackOneRungAndStillMatches)
{
    options_.journalPath = path("journal");
    const dse::DseResult ref = dse::runDse(options_);

    // Corrupt the final line (crash mid-append of the last record).
    std::string text = slurp(options_.journalPath);
    text.resize(text.size() - text.size() / 4);
    dse::DseOptions o = options_;
    o.journalPath = path("torn");
    {
        std::ofstream out(o.journalPath, std::ios::binary);
        out << text;
    }
    o.resume = true;
    const dse::DseResult got = dse::runDse(o);
    expectBitIdentical(got, ref);
}

TEST_F(CrashResumeTest, ForeignJournalIsIgnoredNotTrusted)
{
    options_.journalPath = path("journal");
    const dse::DseResult ref = dse::runDse(options_);

    dse::DseOptions o = options_;
    o.journalTag = 43; // a different experiment
    o.resume = true;
    const dse::DseResult got = dse::runDse(o);
    expectBitIdentical(got, ref); // fresh run, same deterministic result
    EXPECT_EQ(got.stats.resumedRung, -1);
}

TEST_F(CrashResumeTest, StaleWarmStartsStartFresh)
{
    // Journal a run, then resume its screen record after the model has
    // changed shape under the same tag (an edited model file): the
    // journaled warm starts no longer fit, so the run starts fresh.
    options_.journalPath = path("journal");
    ASSERT_GE(dse::runDse(options_).bestIndex, 0);
    std::string screen;
    {
        std::ifstream in(options_.journalPath, std::ios::binary);
        ASSERT_TRUE(std::getline(in, screen));
    }

    // A grown graph leaves layers unmapped; a shrunk one names layers
    // that no longer exist.
    for (const int layers : {5, 2}) {
        const dnn::Graph edited = dnn::zoo::tinyConvChain(layers);
        dse::DseOptions fresh = options_;
        fresh.models = {&edited};
        fresh.journalPath.clear();
        const dse::DseResult ref = dse::runDse(fresh);

        dse::DseOptions o = fresh;
        o.journalPath = path("stale" + std::to_string(layers));
        {
            std::ofstream out(o.journalPath, std::ios::binary);
            out << screen << "\n";
        }
        o.resume = true;
        const dse::DseResult got = dse::runDse(o);
        EXPECT_EQ(got.stats.resumedRung, -1) << layers << " layers";
        expectBitIdentical(got, ref);
    }
}

TEST_F(CrashResumeTest, JournalAppendFailureDegradesToUnjournaledRun)
{
    dse::DseOptions plain = options_;
    plain.journalPath.clear();
    const dse::DseResult ref = dse::runDse(plain);

    fault::configure("journal.append");
    options_.journalPath = path("journal");
    const dse::DseResult got = dse::runDse(options_);
    fault::reset();
    expectBitIdentical(got, ref); // journaling is never load-bearing
}

// --------------------------------------------------------- deadlines ----

using DeadlineTest = RobustnessTest;

TEST_F(DeadlineTest, TokenDistinguishesCancelFromDeadline)
{
    common::StopSource source;
    common::StopToken token = source.token();
    EXPECT_FALSE(token.hasDeadline());
    EXPECT_FALSE(token.deadlineExpired());

    const common::StopToken past = token.withDeadline(
        std::chrono::steady_clock::now() - std::chrono::seconds(1));
    EXPECT_TRUE(past.hasDeadline());
    EXPECT_TRUE(past.deadlineExpired());
    EXPECT_FALSE(past.cancelRequested());
    EXPECT_TRUE(past.stopRequested());

    const common::StopToken future = token.withDeadline(
        std::chrono::steady_clock::now() + std::chrono::hours(1));
    EXPECT_FALSE(future.deadlineExpired());
    source.requestStop();
    EXPECT_TRUE(future.cancelRequested());
}

TEST_F(DeadlineTest, InjectedExpiryLatches)
{
    common::StopSource source;
    const common::StopToken token = source.token().withDeadline(
        std::chrono::steady_clock::now() + std::chrono::hours(1));
    fault::configure("deadline");
    EXPECT_TRUE(token.deadlineExpired());
    fault::reset();
    EXPECT_TRUE(token.deadlineExpired()) << "expiry is latched";
}

TEST_F(DeadlineTest, TruncatedRunIsValidFlaggedAndNotCached)
{
    auto store = std::make_shared<api::ResultStore>(dir_);
    api::ExplorationService service(2, store);

    api::ExperimentSpec spec = tinySpec();
    spec.deadlineSeconds = 3600.0; // generous — the fault expires it
    fault::configure("deadline");
    api::JobHandle job = service.submit(spec);
    const api::ExperimentResult &result = job.wait();
    fault::reset();

    EXPECT_EQ(job.state(), api::JobState::Done);
    EXPECT_TRUE(result.truncated);
    EXPECT_FALSE(result.cancelled) << "deadline is not a cancel";
    EXPECT_EQ(service.cacheSize(), 0u) << "truncated results not cached";
    EXPECT_EQ(store->get(job.specHash(), spec.canonicalText()), nullptr)
        << "truncated results not stored";

    // With time restored, the identical spec runs for real and completes.
    api::SubmitOptions resume;
    resume.resume = true;
    api::JobHandle again = service.submit(spec, resume);
    const api::ExperimentResult &full = again.wait();
    EXPECT_EQ(again.state(), api::JobState::Done);
    EXPECT_FALSE(full.truncated);
    EXPECT_FALSE(full.fromCache);
    EXPECT_GE(full.dse.bestIndex, 0);
    EXPECT_EQ(service.cacheSize(), 1u);
}

TEST_F(DeadlineTest, SpecDeadlineValidates)
{
    api::ExperimentSpec spec = tinySpec();
    spec.deadlineSeconds = -1.0;
    EXPECT_NE(spec.validate().find("deadline_seconds"), std::string::npos);
    spec.deadlineSeconds = 2.5;
    EXPECT_TRUE(spec.validate().empty());
    // Execution control, not identity: the hash ignores the deadline.
    api::ExperimentSpec no_deadline = tinySpec();
    EXPECT_EQ(spec.canonicalHash(), no_deadline.canonicalHash());
    // But the wire format round-trips it.
    std::string error;
    const std::optional<api::ExperimentSpec> back =
        api::ExperimentSpec::fromJsonText(spec.toJson().dump(2), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->deadlineSeconds, 2.5);
}

// -------------------------------------------------------- failed jobs ----

using FailedJobsTest = RobustnessTest;

TEST_F(FailedJobsTest, InvalidSpecKindRethrowsInvalidArgument)
{
    api::ExperimentSpec spec = tinySpec();
    spec.models[0].zoo = "no_such_model";
    api::ExplorationService service(1);
    api::JobHandle job = service.submit(spec);
    const api::ExperimentResult &result = job.wait();
    EXPECT_EQ(job.state(), api::JobState::Failed);
    EXPECT_TRUE(result.failed());
    EXPECT_EQ(result.errorKind, api::ExperimentResult::ErrorKind::InvalidSpec);
    EXPECT_THROW(job.rethrow(), std::invalid_argument);
}

TEST_F(FailedJobsTest, RuntimeThrowPreservesExceptionType)
{
    fault::configure("service.run");
    api::ExplorationService service(1);
    api::JobHandle job = service.submit(tinySpec());
    const api::ExperimentResult &result = job.wait();
    fault::reset();

    EXPECT_EQ(job.state(), api::JobState::Failed);
    EXPECT_EQ(result.errorKind, api::ExperimentResult::ErrorKind::Runtime);
    EXPECT_NE(result.error.find("service.run"), std::string::npos);
    try {
        job.rethrow();
        FAIL() << "expected the original InjectedFault";
    } catch (const fault::InjectedFault &e) {
        EXPECT_EQ(e.site, "service.run"); // the very exception, typed
    }
    EXPECT_EQ(service.cacheSize(), 0u);
}

TEST_F(FailedJobsTest, RethrowIsANoOpOnSuccess)
{
    api::ExplorationService service(2);
    api::JobHandle job = service.submit(tinySpec());
    job.wait();
    EXPECT_EQ(job.state(), api::JobState::Done);
    EXPECT_NO_THROW(job.rethrow());
}

// ---------------------------------------------------- service + store ----

using ServiceStoreTest = RobustnessTest;

TEST_F(ServiceStoreTest, SecondServiceServesFromDisk)
{
    const api::ExperimentSpec spec = tinySpec();
    std::uint64_t hash = 0;
    std::string want;
    {
        api::ExplorationService service(2,
                                        std::make_shared<api::ResultStore>(
                                            dir_));
        api::JobHandle job = service.submit(spec);
        const api::ExperimentResult &r = job.wait();
        ASSERT_EQ(job.state(), api::JobState::Done);
        hash = r.specHash;
        want = r.dse.best().arch.toString();
        EXPECT_FALSE(fs::exists(service.store()->journalPath(hash)))
            << "journal of a completed run is spent";
    }
    // A brand-new service (fresh memory cache) hits the disk store.
    api::ExplorationService service(2,
                                    std::make_shared<api::ResultStore>(dir_));
    api::JobHandle job = service.submit(spec);
    const api::ExperimentResult &r = job.wait();
    EXPECT_EQ(job.state(), api::JobState::Done);
    EXPECT_TRUE(r.fromCache);
    EXPECT_EQ(r.specHash, hash);
    EXPECT_EQ(r.dse.best().arch.toString(), want);
    EXPECT_EQ(service.cacheSize(), 1u) << "disk hit warms the memory cache";
}

TEST_F(ServiceStoreTest, StoreWriteFailureDoesNotFailTheJob)
{
    fault::configure("store.write");
    auto store = std::make_shared<api::ResultStore>(dir_);
    api::ExplorationService service(2, store);
    api::JobHandle job = service.submit(tinySpec());
    const api::ExperimentResult &r = job.wait();
    fault::reset();

    EXPECT_EQ(job.state(), api::JobState::Done) << "persistence is "
                                                   "best-effort";
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(store->get(r.specHash, r.spec.canonicalText()), nullptr);
}

// --------------------------------------------- thread-pool exceptions ----

using ThreadPoolExceptions = RobustnessTest;

TEST_F(ThreadPoolExceptions, ParallelForRethrowsAndPoolSurvives)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(8, [&](std::size_t i) {
            ++ran;
            if (i == 3)
                throw std::runtime_error("task 3 exploded");
        });
        FAIL() << "expected the task exception to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("task 3"), std::string::npos);
    }
    // The pool's workers survived the throw and still run tasks.
    std::atomic<int> again{0};
    pool.parallelFor(4, [&](std::size_t) { ++again; });
    EXPECT_EQ(again.load(), 4);
    EXPECT_EQ(pool.takeTaskError(), nullptr) << "error was consumed";
}

TEST_F(ThreadPoolExceptions, SubmitCapturesFirstErrorViaTake)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::logic_error("boom"); });
    pool.submit([] {}); // a clean task does not clobber the capture
    pool.waitIdle();
    const std::exception_ptr err = pool.takeTaskError();
    ASSERT_NE(err, nullptr);
    EXPECT_THROW(std::rethrow_exception(err), std::logic_error);
    EXPECT_EQ(pool.takeTaskError(), nullptr) << "take clears the slot";
}

// ------------------------------------------------- frame protocol fuzz ----

/** A raw pipe; both ends closed on teardown. */
class FrameProtocolTest : public RobustnessTest
{
  protected:
    void
    SetUp() override
    {
        RobustnessTest::SetUp();
        ASSERT_EQ(::pipe(fds_), 0);
    }

    void
    TearDown() override
    {
        closeWrite();
        if (fds_[0] >= 0)
            ::close(fds_[0]);
        RobustnessTest::TearDown();
    }

    void
    closeWrite()
    {
        if (fds_[1] >= 0) {
            ::close(fds_[1]);
            fds_[1] = -1;
        }
    }

    void
    writeRaw(const std::string &bytes)
    {
        ASSERT_EQ(::write(fds_[1], bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    int fds_[2] = {-1, -1};
};

TEST_F(FrameProtocolTest, RoundTripsPayloadsOfManySizes)
{
    std::string payload;
    // 70000 exceeds the 64 KiB pipe buffer: the writer must run on its
    // own thread (as the worker does) or writeFrame would deadlock here.
    for (const std::size_t n : {0u, 1u, 100u, 70000u}) {
        const std::string sent(n, 'x');
        std::thread writer(
            [&] { ASSERT_TRUE(common::writeFrame(fds_[1], sent)); });
        ASSERT_EQ(common::readFrame(fds_[0], payload, 5.0),
                  common::FrameStatus::Ok);
        writer.join();
        EXPECT_EQ(payload, sent);
    }
}

TEST_F(FrameProtocolTest, TruncatedHeaderIsEofNotHang)
{
    writeRaw(std::string("\x05\x00", 2)); // half a header, then crash
    closeWrite();
    std::string payload;
    EXPECT_EQ(common::readFrame(fds_[0], payload, 1.0),
              common::FrameStatus::Eof);
}

TEST_F(FrameProtocolTest, TornPayloadIsEofNotHang)
{
    writeRaw(std::string("\x64\x00\x00\x00", 4)); // promises 100 bytes...
    writeRaw("only ten!!");                       // ...delivers 10
    closeWrite();
    std::string payload;
    EXPECT_EQ(common::readFrame(fds_[0], payload, 1.0),
              common::FrameStatus::Eof);
}

TEST_F(FrameProtocolTest, SilentPeerIsTimeoutNotHang)
{
    std::string payload;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(common::readFrame(fds_[0], payload, 0.1),
              common::FrameStatus::Timeout);
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              5.0);
}

TEST_F(FrameProtocolTest, OversizedLengthRejectedWithoutAllocating)
{
    // ASCII garbage read as a length: "GARB" = ~1.1 GB, way past the cap.
    writeRaw("GARBAGE FRAME");
    std::string payload;
    EXPECT_EQ(common::readFrame(fds_[0], payload, 1.0),
              common::FrameStatus::Oversized);
}

TEST_F(FrameProtocolTest, StalledMidPayloadTimesOut)
{
    writeRaw(std::string("\x64\x00\x00\x00", 4));
    writeRaw("partial"); // peer wedges mid-frame, pipe stays open
    std::string payload;
    EXPECT_EQ(common::readFrame(fds_[0], payload, 0.1),
              common::FrameStatus::Timeout);
}

TEST_F(FrameProtocolTest, GarbagePayloadFailsProtocolParseNotCrash)
{
    ASSERT_TRUE(common::writeFrame(fds_[1], "{\"kind\":42}"));
    std::string payload;
    ASSERT_EQ(common::readFrame(fds_[0], payload, 1.0),
              common::FrameStatus::Ok);
    api::WorkerResponse resp;
    std::string error;
    EXPECT_FALSE(api::WorkerResponse::fromText(payload, resp, &error));
    EXPECT_FALSE(error.empty());

    api::WorkerRequest rq;
    EXPECT_FALSE(api::WorkerRequest::fromText("not json at all", rq, &error));
    EXPECT_FALSE(
        api::WorkerRequest::fromText("{\"kind\":\"eval\",\"seq\":1,"
                                     "\"bogus_key\":true}",
                                     rq, &error));
}

// ------------------------------------------------- worker wire protocol ----

using WorkerProtocolTest = RobustnessTest;

TEST_F(WorkerProtocolTest, EvalRequestRoundTripsFullSeedWidth)
{
    api::WorkerRequest rq;
    rq.kind = api::WorkerRequest::Kind::Eval;
    rq.seq = 7;
    rq.index = 12;
    rq.rung = 2;
    rq.iters = 160;
    rq.chains = 2;
    // All 64 bits must survive: JSON numbers are doubles, so the seed
    // crosses the wire as a hex string.
    rq.seed = 0xDEADBEEFCAFEBABEull;
    rq.arch = arch::ArchConfig{};

    api::WorkerRequest back;
    std::string error;
    ASSERT_TRUE(api::WorkerRequest::fromText(rq.toText(), back, &error))
        << error;
    EXPECT_EQ(back.kind, api::WorkerRequest::Kind::Eval);
    EXPECT_EQ(back.seq, 7u);
    EXPECT_EQ(back.index, 12u);
    EXPECT_EQ(back.rung, 2);
    EXPECT_EQ(back.iters, 160);
    EXPECT_EQ(back.chains, 2);
    EXPECT_EQ(back.seed, 0xDEADBEEFCAFEBABEull);
}

TEST_F(WorkerProtocolTest, ResponsesRoundTripAndRejectUnknownKinds)
{
    api::WorkerResponse resp;
    resp.kind = api::WorkerResponse::Kind::Error;
    resp.seq = 3;
    resp.message = "engine threw";
    api::WorkerResponse back;
    std::string error;
    ASSERT_TRUE(api::WorkerResponse::fromText(resp.toText(), back, &error))
        << error;
    EXPECT_EQ(back.kind, api::WorkerResponse::Kind::Error);
    EXPECT_EQ(back.seq, 3u);
    EXPECT_EQ(back.message, "engine threw");

    EXPECT_FALSE(api::WorkerResponse::fromText("{\"kind\":\"explode\"}",
                                               back, &error));
    api::WorkerRequest rq;
    EXPECT_FALSE(api::WorkerRequest::fromText("{\"kind\":\"explode\"}", rq,
                                              &error));
}

TEST_F(WorkerProtocolTest, EvalRequestRejectsOutOfRangeBudgetsAndRungs)
{
    api::WorkerRequest good;
    good.kind = api::WorkerRequest::Kind::Eval;
    good.rung = 2;
    good.iters = 64;
    good.chains = 1;
    good.arch = arch::ArchConfig{};

    const auto rejects = [&](api::WorkerRequest rq,
                             const std::string &field) {
        api::WorkerRequest back;
        std::string error;
        EXPECT_FALSE(api::WorkerRequest::fromText(rq.toText(), back, &error))
            << field;
        EXPECT_EQ(error.rfind("request." + field + ": ", 0), 0u) << error;
    };
    api::WorkerRequest rq = good;
    rq.iters = -1;
    rejects(rq, "iters");
    rq = good;
    rq.chains = 0;
    rejects(rq, "chains");
    rq = good;
    rq.rung = -2;
    rejects(rq, "rung");
    rq = good;
    rq.rung = 0; // the screen is stripe-only: no SA budget
    rejects(rq, "iters");
    rq = good;
    rq.rung = -1; // the exhaustive rung starts cold
    rq.warmStarts.emplace_back();
    rejects(rq, "warm_starts");

    api::WorkerRequest back;
    std::string error;
    EXPECT_TRUE(api::WorkerRequest::fromText(good.toText(), back, &error))
        << error;
}

// ------------------------------------------------ supervisor lifecycle ----

/**
 * Hostile fake workers, scripted in /bin/sh: the supervisor must treat
 * every misbehavior — instant death, garbage handshake, wedging after a
 * valid handshake — as a lifecycle event, never as a hang or a crash.
 */
class SupervisorTest : public RobustnessTest
{
  protected:
    static api::SupervisorOptions
    baseOptions()
    {
        api::SupervisorOptions o;
        o.workers = 1;
        o.maxRetries = 1;
        o.heartbeatTimeoutSeconds = 0.3;
        o.handshakeTimeoutSeconds = 2.0;
        o.specText = "{}"; // fake workers never parse it
        return o;
    }

    /** A worker that handshakes correctly, then wedges forever. */
    static std::vector<std::string>
    readyThenSilent()
    {
        // 16-byte LE length header + the ready frame, then a wedge.
        // `exec` so the supervisor's SIGKILL reaches the sleeper itself,
        // not just its parent shell (an orphaned sleep would hold the
        // inherited stderr pipe open long after the test ends).
        return {"/bin/sh", "-c",
                "printf '\\020'; head -c3 /dev/zero; "
                "printf '{\"kind\":\"ready\"}'; exec sleep 60"};
    }

    dse::RemoteEvalRequest
    request()
    {
        dse::RemoteEvalRequest rq;
        rq.index = 0;
        rq.arch = &arch_;
        rq.rung = 0;
        return rq;
    }

    arch::ArchConfig arch_{};
};

TEST_F(SupervisorTest, StartFailsWhenWorkerDiesInstantly)
{
    api::SupervisorOptions o = baseOptions();
    o.workerArgv = {"/bin/true"};
    api::WorkerSupervisor sup(o);
    std::string error;
    EXPECT_FALSE(sup.start(&error));
    EXPECT_FALSE(error.empty());
}

TEST_F(SupervisorTest, StartFailsOnGarbageHandshake)
{
    api::SupervisorOptions o = baseOptions();
    o.workerArgv = {"/bin/sh", "-c", "echo GARBAGEGARBAGE; exec sleep 60"};
    api::WorkerSupervisor sup(o);
    std::string error;
    EXPECT_FALSE(sup.start(&error));
    EXPECT_NE(error.find("oversized"), std::string::npos) << error;
}

TEST_F(SupervisorTest, WatchdogKillsSilentWorkerAndQuarantines)
{
    api::SupervisorOptions o = baseOptions();
    o.workerArgv = readyThenSilent();
    api::WorkerSupervisor sup(o);
    std::string error;
    ASSERT_TRUE(sup.start(&error)) << error;

    const dse::RemoteEvalOutcome out = sup.evaluate(request());
    EXPECT_TRUE(out.poisoned);
    EXPECT_NE(out.poisonReason.find("heartbeat"), std::string::npos)
        << out.poisonReason;
    const api::SupervisorStats stats = sup.stats();
    EXPECT_EQ(stats.spawns, 2) << "initial + one respawn (maxRetries=1)";
    EXPECT_EQ(stats.kills, 2);
    EXPECT_EQ(stats.retries, 1);
    EXPECT_EQ(stats.poisoned, 1);
}

TEST_F(SupervisorTest, SpawnFaultExhaustsRetriesIntoQuarantine)
{
    api::SupervisorOptions o = baseOptions();
    o.workerArgv = readyThenSilent(); // never reached: spawn site fires
    api::WorkerSupervisor sup(o);
    fault::configure("worker.spawn");
    const dse::RemoteEvalOutcome out = sup.evaluate(request());
    fault::reset();
    EXPECT_TRUE(out.poisoned);
    EXPECT_NE(out.poisonReason.find("worker.spawn"), std::string::npos);
    EXPECT_EQ(sup.stats().spawns, 0);
}

TEST_F(SupervisorTest, WriteFaultKillsAndQuarantines)
{
    api::SupervisorOptions o = baseOptions();
    o.workerArgv = readyThenSilent();
    api::WorkerSupervisor sup(o);
    std::string error;
    ASSERT_TRUE(sup.start(&error)) << error;
    fault::configure("worker.write");
    const dse::RemoteEvalOutcome out = sup.evaluate(request());
    fault::reset();
    EXPECT_TRUE(out.poisoned);
    EXPECT_NE(out.poisonReason.find("worker.write"), std::string::npos);
    EXPECT_GE(sup.stats().kills, 1);
}

// --------------------------------------------- remote-mode scheduling ----

/**
 * The dse layer's ExecutionMode::Workers path, driven by an in-process
 * RemoteEvaluator that mirrors the worker's evaluation semantics — the
 * scheduler-side determinism and quarantine bookkeeping, minus the
 * subprocess machinery (covered by SupervisorTest and WorkerModeTest).
 */
class RemoteEvalTest : public CrashResumeTest
{
  protected:
    dse::RemoteEvaluator
    localEvaluator(std::function<bool(std::size_t)> poison = nullptr)
    {
        return [this, poison](const dse::RemoteEvalRequest &rq) {
            dse::RemoteEvalOutcome out;
            if (poison && poison(rq.index)) {
                out.poisoned = true;
                out.poisonReason = "scripted quarantine";
                return out;
            }
            mapping::MappingOptions mo = options_.mapping;
            mo.saThreads = 1;
            if (rq.rung == 0) {
                mo.runSa = false;
            } else if (rq.rung >= 1) {
                mo.runSa = true;
                mo.sa.iterations = rq.iters;
                mo.sa.chains = rq.chains;
                mo.sa.seed = rq.seed;
            }
            for (std::size_t m = 0; m < options_.models.size(); ++m) {
                mapping::MappingEngine engine(*options_.models[m], *rq.arch,
                                              mo);
                mapping::MappingResult res =
                    rq.rung >= 1 ? engine.runFrom((*rq.warmStarts)[m])
                                 : engine.run();
                out.mappings.push_back(std::move(res.mapping));
                out.perModel.push_back(res.total);
            }
            return out;
        };
    }
};

TEST_F(RemoteEvalTest, WorkersModeIsBitIdenticalToInProcess)
{
    const dse::DseResult ref = dse::runDse(options_);

    dse::DseOptions o = options_;
    o.execution = dse::ExecutionMode::Workers;
    o.remoteEval = localEvaluator();
    const dse::DseResult got = dse::runDse(o);
    expectBitIdentical(got, ref);
    EXPECT_EQ(got.stats.poisonedCount(), 0);
}

TEST_F(RemoteEvalTest, FlatWorkersModeIsBitIdenticalToInProcess)
{
    options_.schedule.enabled = false;
    const dse::DseResult ref = dse::runDse(options_);

    dse::DseOptions o = options_;
    o.execution = dse::ExecutionMode::Workers;
    o.remoteEval = localEvaluator();
    const dse::DseResult got = dse::runDse(o);
    expectBitIdentical(got, ref);
}

TEST_F(RemoteEvalTest, PoisonedCandidateIsQuarantinedNotFatal)
{
    dse::DseOptions o = options_;
    o.execution = dse::ExecutionMode::Workers;
    o.remoteEval = localEvaluator([](std::size_t i) { return i == 1; });
    const dse::DseResult got = dse::runDse(o);

    ASSERT_GT(got.records.size(), 2u);
    EXPECT_TRUE(got.records[1].poisoned);
    EXPECT_FALSE(got.records[1].feasible);
    EXPECT_EQ(got.records[1].poisonReason, "scripted quarantine");
    EXPECT_EQ(got.stats.poisonedCount(), 1);
    EXPECT_GE(got.bestIndex, 0) << "the run survives the poison";
    EXPECT_NE(got.bestIndex, 1);
}

TEST_F(RemoteEvalTest, JournaledResumeReplaysTheQuarantineDecision)
{
    dse::DseOptions o = options_;
    o.journalPath = path("journal");
    o.execution = dse::ExecutionMode::Workers;
    o.remoteEval = localEvaluator([](std::size_t i) { return i == 1; });
    const dse::DseResult ref = dse::runDse(o);
    ASSERT_TRUE(ref.records[1].poisoned);

    // Keep only the screen rung's journal line (a crash right after it),
    // then resume WITHOUT any poisoning evaluator: the quarantine must
    // come back from the journal, not from a lucky re-decision.
    std::vector<std::string> ls;
    {
        std::ifstream in(o.journalPath, std::ios::binary);
        std::string line;
        while (std::getline(in, line))
            ls.push_back(line);
    }
    ASSERT_GE(ls.size(), 2u);
    dse::DseOptions r = options_; // plain in-process execution
    r.journalPath = path("prefix");
    {
        std::ofstream out(r.journalPath, std::ios::binary);
        out << ls[0] << "\n";
    }
    r.resume = true;
    const dse::DseResult got = dse::runDse(r);
    expectBitIdentical(got, ref);
    EXPECT_TRUE(got.records[1].poisoned) << "quarantine replayed";
    EXPECT_EQ(got.stats.resumedRung, 0);
}

TEST_F(RemoteEvalTest, TaskExceptionAbortsRunAndPropagates)
{
    dse::DseOptions o = options_;
    o.execution = dse::ExecutionMode::Workers;
    o.remoteEval = [](const dse::RemoteEvalRequest &)
        -> dse::RemoteEvalOutcome {
        throw std::runtime_error("evaluator exploded");
    };
    EXPECT_THROW(dse::runDse(o), std::runtime_error)
        << "non-poison evaluator errors are real errors, not quarantines";
}

// ------------------------------------------- flat (one-rung) DSE runs ----

/**
 * The flat exhaustive DSE (schedule disabled): every candidate evaluated
 * once with the spec's own SA budget, seed and chains, as one
 * "exhaustive" rung.
 */
class FlatRunTest : public CrashResumeTest
{
  protected:
    FlatRunTest() { options_.schedule.enabled = false; }

    /** The result document with its timing fields zeroed. */
    static std::string
    untimed(dse::DseResult r)
    {
        for (dse::DseRecord &rec : r.records)
            rec.evalSeconds = 0.0;
        for (dse::DseRungStats &rs : r.stats.rungs)
            rs.cpuSeconds = 0.0;
        return api::writeJson(r).dump();
    }
};

TEST_F(FlatRunTest, PreStoppedRunResolvesItsOneRung)
{
    common::StopSource source;
    source.requestStop();
    options_.stop = source.token();
    const dse::DseResult r = dse::runDse(options_);

    EXPECT_TRUE(r.stats.cancelled);
    EXPECT_FALSE(r.stats.truncated);
    EXPECT_FALSE(r.stats.scheduled);
    ASSERT_EQ(r.stats.rungs.size(), 1u);
    EXPECT_EQ(r.stats.rungs[0].name, "exhaustive");
    EXPECT_EQ(r.stats.rungs[0].entered, static_cast<int>(r.records.size()));
    EXPECT_EQ(r.bestIndex, -1);
    ASSERT_FALSE(r.records.empty());
    for (const dse::DseRecord &rec : r.records) {
        EXPECT_FALSE(rec.feasible);
        EXPECT_EQ(rec.rungReached, -1);
    }
}

TEST_F(FlatRunTest, BitIdenticalAcrossThreadCountsAndAnExternalPool)
{
    // Two chains, so the candidate/chain thread split is exercised too.
    options_.mapping.sa.chains = 2;
    options_.threads = 1;
    const dse::DseResult ref = dse::runDse(options_);
    ASSERT_GE(ref.bestIndex, 0);

    options_.threads = 4;
    EXPECT_EQ(untimed(dse::runDse(options_)), untimed(ref));

    ThreadPool pool(3);
    options_.pool = &pool;
    EXPECT_EQ(untimed(dse::runDse(options_)), untimed(ref));
}

TEST_F(FlatRunTest, FinishedRunJournalsOneFinalRecordAndResumes)
{
    dse::DseOptions plain = options_;
    const dse::DseResult ref = dse::runDse(plain);

    options_.journalPath = path("journal");
    const dse::DseResult journaled = dse::runDse(options_);
    EXPECT_EQ(untimed(journaled), untimed(ref)) << "journaling is inert";

    const dse::JournalLoadResult loaded =
        dse::journalLoad(options_.journalPath, options_.journalTag);
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_TRUE(loaded.records[0].final);
    EXPECT_EQ(loaded.droppedTail, 0u);

    options_.resume = true;
    dse::DseResult resumed = dse::runDse(options_);
    EXPECT_EQ(resumed.stats.resumedRung, 0) << "replayed, not re-run";
    resumed.stats.resumedRung = -1;
    EXPECT_EQ(untimed(resumed), untimed(journaled));
}

TEST_F(FlatRunTest, TruncatedRunJournalsNoFinalRecord)
{
    options_.journalPath = path("journal");
    options_.deadlineSeconds = 3600.0; // generous — the fault expires it
    fault::configure("deadline");
    const dse::DseResult r = dse::runDse(options_);
    fault::reset();

    EXPECT_TRUE(r.stats.truncated);
    const dse::JournalLoadResult loaded =
        dse::journalLoad(options_.journalPath, options_.journalTag);
    for (const dse::JournalRecord &rec : loaded.records)
        EXPECT_FALSE(rec.final) << "a truncated run is resumable";
}

// ---------------------------------------------- real-worker end-to-end ----

/**
 * Integration against the real `gemini worker` binary (a sibling of this
 * test executable in the build tree). Skipped when the CLI target was
 * not built.
 */
class WorkerModeTest : public RobustnessTest
{
  protected:
    std::string
    workerBin()
    {
        const fs::path self = common::selfExePath();
        const fs::path sibling = self.parent_path() / "gemini";
        return fs::exists(sibling) ? sibling.string() : std::string();
    }

    void
    TearDown() override
    {
        ::unsetenv("GEMINI_WORKER_BIN");
        ::unsetenv("GEMINI_FAULT_INJECT");
        RobustnessTest::TearDown();
    }

    static api::ExperimentSpec
    workersSpec(int workers, int max_retries = 2)
    {
        api::ExperimentSpec spec = tinySpec();
        spec.execution.mode = api::ExecutionSpec::Mode::Workers;
        spec.execution.workers = workers;
        spec.execution.maxRetries = max_retries;
        return spec;
    }
};

TEST_F(WorkerModeTest, ServiceWinnerBitIdenticalToInProcess)
{
    const std::string bin = workerBin();
    if (bin.empty())
        GTEST_SKIP() << "gemini CLI not built next to the tests";
    ::setenv("GEMINI_WORKER_BIN", bin.c_str(), 1);

    api::ExplorationService in_process(2);
    api::JobHandle ref_job = in_process.submit(tinySpec());
    const api::ExperimentResult &ref = ref_job.wait();
    ASSERT_EQ(ref_job.state(), api::JobState::Done);

    api::ExplorationService workers(2);
    api::JobHandle job = workers.submit(workersSpec(2));
    const api::ExperimentResult &got = job.wait();
    ASSERT_EQ(job.state(), api::JobState::Done) << got.error;

    ASSERT_EQ(got.dse.records.size(), ref.dse.records.size());
    EXPECT_EQ(got.dse.bestIndex, ref.dse.bestIndex);
    for (std::size_t i = 0; i < ref.dse.records.size(); ++i) {
        EXPECT_EQ(got.dse.records[i].objective,
                  ref.dse.records[i].objective)
            << "candidate " << i;
        EXPECT_EQ(got.dse.records[i].saIters, ref.dse.records[i].saIters);
    }
    EXPECT_EQ(got.dse.stats.poisonedCount(), 0);
}

TEST_F(WorkerModeTest, CrashingCandidateIsQuarantinedNotFatal)
{
    const std::string bin = workerBin();
    if (bin.empty())
        GTEST_SKIP() << "gemini CLI not built next to the tests";
    ::setenv("GEMINI_WORKER_BIN", bin.c_str(), 1);
    // Workers inherit the environment, so every (re)spawned worker
    // crashes deterministically on candidate 2 — the retry ladder must
    // end in quarantine, not in a failed job.
    ::setenv("GEMINI_FAULT_INJECT", "worker.crash.cand2", 1);

    api::ExplorationService service(2);
    api::JobHandle job = service.submit(workersSpec(1, /*max_retries=*/1));
    const api::ExperimentResult &got = job.wait();
    ::unsetenv("GEMINI_FAULT_INJECT");

    ASSERT_EQ(job.state(), api::JobState::Done) << got.error;
    ASSERT_GT(got.dse.records.size(), 2u);
    EXPECT_TRUE(got.dse.records[2].poisoned);
    EXPECT_FALSE(got.dse.records[2].poisonReason.empty());
    EXPECT_EQ(got.dse.stats.poisonedCount(), 1);
    EXPECT_GE(got.dse.bestIndex, 0);
    EXPECT_NE(got.dse.bestIndex, 2);
}

TEST_F(WorkerModeTest, MissingWorkerBinaryDegradesToInProcess)
{
    ::setenv("GEMINI_WORKER_BIN", "/no/such/worker/binary", 1);
    api::ExplorationService service(2);
    api::JobHandle job = service.submit(workersSpec(2));
    const api::ExperimentResult &got = job.wait();
    EXPECT_EQ(job.state(), api::JobState::Done)
        << "degradation, not failure: " << got.error;
    EXPECT_GE(got.dse.bestIndex, 0);
}

// ----------------------------------------------------- execution spec ----

using ExecutionSpecTest = RobustnessTest;

TEST_F(ExecutionSpecTest, RoundTripsAndValidates)
{
    api::ExperimentSpec spec = tinySpec();
    spec.execution.mode = api::ExecutionSpec::Mode::Workers;
    spec.execution.workers = 3;
    spec.execution.maxRetries = 5;
    spec.execution.candidateDeadlineSeconds = 1.5;
    spec.execution.candidateRssMiB = 512;
    EXPECT_TRUE(spec.validate().empty()) << spec.validate();

    std::string error;
    const std::optional<api::ExperimentSpec> back =
        api::ExperimentSpec::fromJsonText(spec.toJson().dump(2), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->execution.mode, api::ExecutionSpec::Mode::Workers);
    EXPECT_EQ(back->execution.workers, 3);
    EXPECT_EQ(back->execution.maxRetries, 5);
    EXPECT_EQ(back->execution.candidateDeadlineSeconds, 1.5);
    EXPECT_EQ(back->execution.candidateRssMiB, 512);

    spec.execution.workers = -1;
    EXPECT_NE(spec.validate().find("execution"), std::string::npos);
}

TEST_F(ExecutionSpecTest, ExecutionDoesNotChangeTheCanonicalHash)
{
    // Like the deadline: execution controls how a run executes, not what
    // it computes — worker-mode results must hit the in-process cache.
    api::ExperimentSpec workers = tinySpec();
    workers.execution.mode = api::ExecutionSpec::Mode::Workers;
    workers.execution.workers = 7;
    workers.execution.candidateDeadlineSeconds = 9.0;
    EXPECT_EQ(workers.canonicalHash(), tinySpec().canonicalHash());
}

// ------------------------------------------------- store ls / gc audit ----

using StoreAuditTest = ResultStoreTest;

TEST_F(StoreAuditTest, LsCountsPoisonedCandidates)
{
    api::ExperimentResult r = doneResult();
    r.dse.records[0].poisoned = true;
    r.dse.records[0].poisonReason = "worker crashed";
    api::ResultStore store(dir_);
    ASSERT_TRUE(store.put(r));

    const std::vector<api::StoreEntry> entries = store.list();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].poisoned, 1);
    EXPECT_EQ(store.quarantinedFiles(), 0);
}

TEST_F(StoreAuditTest, GcDryRunReportsWithoutDeleting)
{
    const api::ExperimentResult &r = doneResult();
    api::ResultStore store(dir_);
    ASSERT_TRUE(store.put(r));

    // One of each victim class: a quarantined record, an orphan temp
    // file, and a spent journal (its result is stored above).
    const std::string quarantined = path("bad.result.json.quarantined");
    const std::string tmp = path("x.result.json.tmp.123");
    const std::string journal = store.journalPath(r.specHash);
    for (const std::string &p : {quarantined, tmp, journal})
        ASSERT_TRUE(common::writeFileAtomic(p, "doomed"));
    EXPECT_EQ(store.quarantinedFiles(), 1);

    const api::StoreGcStats dry = store.gc(/*dryRun=*/true);
    EXPECT_EQ(dry.quarantined, 1);
    EXPECT_EQ(dry.tmpFiles, 1);
    EXPECT_EQ(dry.journals, 1);
    EXPECT_EQ(dry.paths.size(), 3u);
    for (const std::string &p : {quarantined, tmp, journal})
        EXPECT_TRUE(fs::exists(p)) << p << " deleted by a dry run";

    const api::StoreGcStats real = store.gc();
    EXPECT_EQ(real.quarantined, 1);
    EXPECT_EQ(real.journals, 1);
    for (const std::string &p : {quarantined, tmp, journal})
        EXPECT_FALSE(fs::exists(p)) << p << " survived gc";
    EXPECT_EQ(store.quarantinedFiles(), 0);
}

} // namespace
} // namespace gemini
