/**
 * @file
 * Wire-format pins: the exact bytes every JSON writer of the API layer
 * emits and the exact error text every reader returns. The goldens under
 * tests/wire/golden were produced by the writers before they were derived
 * from field lists, so a change that moves a key, a number format or an
 * error message shows up here as a byte diff. Files written by that
 * earlier build (a result.json, a store record, a journal, worker frames)
 * must load and re-dump byte-identically.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/results.hh"
#include "src/api/service.hh"
#include "src/api/spec.hh"
#include "src/api/store.hh"
#include "src/api/worker.hh"
#include "src/common/json.hh"
#include "src/dse/journal.hh"

namespace gemini::api {
namespace {

namespace fs = std::filesystem;
using common::json::Object;
using common::json::Value;

const std::string kWire = std::string(GEMINI_SOURCE_DIR) + "/tests/wire/";

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary) << text;
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    EXPECT_EQ(actual, readText(kWire + "golden/" + name)) << name;
}

std::string
hashText(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** A temporary directory removed when the test ends. */
class WireTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               ("gemini_wire_" + std::to_string(::getpid()) + "_" +
                info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

// ---- fixed values ----------------------------------------------------------

arch::ArchConfig
fixedArch(const std::string &name)
{
    arch::ArchConfig a;
    a.name = name;
    a.xCores = 6;
    a.yCores = 4;
    a.xCut = 3;
    a.yCut = 2;
    a.topology = arch::Topology::FoldedTorus;
    a.nocBwGBps = 48.5;
    a.d2dBwGBps = 12.25;
    a.dramBwGBps = 144;
    a.dramCount = 3;
    a.macsPerCore = 2048;
    a.glbKiB = 1536;
    a.freqGHz = 0.9;
    return a;
}

eval::EvalBreakdown
fixedBreakdown(double scale)
{
    eval::EvalBreakdown b;
    b.delay = 1.5e-3 * scale;
    b.intraTileEnergy = 0.1 / 3 * scale;
    b.nocEnergy = 2.5e-5 * scale;
    b.d2dEnergy = 7e-6 * scale;
    b.dramEnergy = 1.25e-4 * scale;
    b.dramBytes = 123456789 * scale;
    b.hopBytes = 9.87654321e9 * scale;
    b.d2dHopBytes = 4096 * scale;
    b.glbOverflow = scale > 1 ? 512 : 0;
    return b;
}

cost::CostBreakdown
fixedCost()
{
    cost::CostBreakdown c;
    c.computeSilicon = 41.25;
    c.ioSilicon = 3.5;
    c.dram = 14;
    c.package = 7.125;
    c.computeDieAreaMm2 = 88.8;
    c.totalSiliconAreaMm2 = 400.75;
    c.computeDieYield = 0.7654321;
    c.d2dAreaFraction = 0.31;
    return c;
}

mapping::LpMapping
fixedMapping()
{
    mapping::LpMapping m;
    m.batch = 8;
    mapping::LayerGroupMapping g0;
    g0.layers = {0, 1};
    g0.batchUnit = 2;
    mapping::MappingScheme s0;
    s0.part = {2, 1, 1, 2};
    s0.coreGroup = {0, 1, 4, 5};
    s0.fd = {-1, 0, 1};
    mapping::MappingScheme s1;
    s1.part = {1, 1, 2, 1};
    s1.coreGroup = {2, 3};
    s1.fd = {2, -1, -1};
    g0.schemes = {s0, s1};
    mapping::LayerGroupMapping g1;
    g1.layers = {2};
    g1.batchUnit = 8;
    mapping::MappingScheme s2;
    s2.coreGroup = {7};
    g1.schemes = {s2};
    m.groups = {g0, g1};
    return m;
}

mapping::MappingResult
fixedMappingResult()
{
    mapping::MappingResult r;
    r.mapping = fixedMapping();
    r.groups = {fixedBreakdown(1), fixedBreakdown(2)};
    r.total = fixedBreakdown(3);
    r.saStats.proposed = 4000;
    r.saStats.inapplicable = 123;
    r.saStats.accepted = 456;
    r.saStats.improved = 78;
    r.saStats.initialCost = 1.0 / 7;
    r.saStats.finalCost = 1.0 / 9;
    r.saStats.chains = 2;
    r.saStats.bestChain = 1;
    r.saStats.itersRun = 3999;
    r.saStats.bestIteration = 3210;
    return r;
}

dse::DseResult
fixedDseResult()
{
    const double inf = std::numeric_limits<double>::infinity();
    dse::DseResult r;
    dse::DseRecord a;
    a.arch = fixedArch("cand-0");
    a.mc = fixedCost();
    a.delayGeo = 2.5e-3;
    a.energyGeo = 0.0625;
    a.objective = 1.0 / 3;
    a.feasible = true;
    a.perModel = {fixedBreakdown(1), fixedBreakdown(0.5)};
    a.objectiveLowerBound = 0.125;
    a.rungReached = 2;
    a.saIters = 512;
    a.evalSeconds = 0.75;
    a.boundComputeSeconds = 1e-3;
    a.boundDramSeconds = 2e-3;
    a.boundNocSeconds = 3e-4;
    a.boundRefetchBytes = 65536;
    a.seededAnalytic = true;
    dse::DseRecord b;
    b.arch = fixedArch("cand-1");
    b.arch.topology = arch::Topology::HierarchicalNop;
    b.objective = inf;
    b.feasible = false;
    b.objectiveLowerBound = inf;
    b.rungReached = 0;
    b.prunedByBound = true;
    b.poisoned = true;
    b.poisonReason = "worker died: signal 11 (\"SIGSEGV\")\n";
    r.records = {a, b};
    r.bestIndex = 0;
    r.stats.scheduled = true;
    r.stats.truncated = true;
    r.stats.resumedRung = 1;
    dse::DseRungStats screen;
    screen.name = "screen";
    screen.entered = 2;
    screen.advanced = 1;
    screen.prunedBound = 1;
    screen.poisoned = 1;
    screen.cpuSeconds = 0.5;
    screen.bestObjective = inf;
    dse::DseRungStats polish;
    polish.name = "polish";
    polish.entered = 1;
    polish.saIters = 512;
    polish.cpuSeconds = 0.75;
    polish.bestObjective = 1.0 / 3;
    r.stats.rungs = {screen, polish};
    return r;
}

ExperimentSpec
specFile(const std::string &name)
{
    std::string error;
    std::optional<ExperimentSpec> spec =
        ExperimentSpec::fromFile(kWire + "specs/" + name, &error);
    EXPECT_TRUE(spec.has_value()) << name << ": " << error;
    return spec.value_or(ExperimentSpec{});
}

WorkerRequest
fixedEvalRequest()
{
    WorkerRequest rq;
    rq.kind = WorkerRequest::Kind::Eval;
    rq.seq = 42;
    rq.index = 17;
    rq.rung = 1;
    rq.iters = 256;
    rq.chains = 2;
    rq.seed = 0xfedcba9876543210ull;
    rq.arch = fixedArch("cand-17");
    rq.warmStarts = {fixedMapping(), mapping::LpMapping{}};
    return rq;
}

WorkerResponse
fixedResultResponse()
{
    WorkerResponse resp;
    resp.kind = WorkerResponse::Kind::Result;
    resp.seq = 42;
    resp.perModel = {fixedBreakdown(1), fixedBreakdown(4)};
    resp.mappings = {fixedMapping()};
    return resp;
}

dse::JournalRecord
fixedJournalRecord()
{
    dse::JournalRecord rec;
    rec.tag = 0x0123456789abcdefull;
    rec.rung = 1;
    rec.rungName = "race1";
    rec.bestSoFar = std::numeric_limits<double>::infinity();
    rec.snapshot = fixedDseResult();
    rec.survivors = {0, 1};
    rec.warmStarts = {{fixedMapping()}, {mapping::LpMapping{}}};
    return rec;
}

// ---- spec identity ---------------------------------------------------------

/** dump(2), canonical text and hash of one spec, as one golden text. */
std::string
specIdentity(const ExperimentSpec &spec)
{
    return spec.toJson().dump(2) + "\n" + spec.canonicalText() + "\n" +
           hashText(spec.canonicalHash()) + "\n";
}

TEST(Wire, SpecDumpCanonicalTextAndHashArePinned)
{
    for (const char *name :
         {"bench_dse_screen", "bench_map_sa_gpt2", "bench_dse_flat_topo",
          "bench_serve_mix", "all_sections_dse", "all_sections_map",
          "tiny_dse", "tiny_map"})
        expectGolden(std::string(name) + ".spec",
                     specIdentity(specFile(std::string(name) + ".json")));
    for (const char *name : {"dse_mini", "mesh_tmap_screen",
                             "dse_crash_demo"}) {
        std::string error;
        std::optional<ExperimentSpec> spec = ExperimentSpec::fromFile(
            std::string(GEMINI_SOURCE_DIR) + "/examples/specs/" + name +
                ".json",
            &error);
        ASSERT_TRUE(spec) << error;
        expectGolden(std::string("example_") + name + ".spec",
                     specIdentity(*spec));
    }
}

// ---- result and frame bytes ------------------------------------------------

TEST(Wire, ResultWritersArePinned)
{
    expectGolden("dse_result.json", writeJson(fixedDseResult()).dump());
    expectGolden("mapping_result.json",
                 writeJson(fixedMappingResult()).dump());
}

TEST(Wire, WorkerFramesArePinnedAndRoundTrip)
{
    WorkerRequest init;
    init.kind = WorkerRequest::Kind::Init;
    init.seq = 1;
    init.specText = specFile("tiny_dse.json").toJson().dump();
    WorkerRequest shutdown;
    WorkerResponse error;
    error.kind = WorkerResponse::Kind::Error;
    error.seq = 9;
    error.message = "engine threw: bad \"mapping\"";
    WorkerResponse beat;
    beat.kind = WorkerResponse::Kind::Heartbeat;
    beat.seq = 42;
    const std::vector<std::pair<std::string, std::string>> frames = {
        {"worker_eval.txt", fixedEvalRequest().toText()},
        {"worker_init.txt", init.toText()},
        {"worker_shutdown.txt", shutdown.toText()},
        {"worker_result.txt", fixedResultResponse().toText()},
        {"worker_error.txt", error.toText()},
        {"worker_heartbeat.txt", beat.toText()},
    };
    for (const auto &[name, text] : frames) {
        expectGolden(name, text);
        const std::string golden = readText(kWire + "golden/" + name);
        std::string err;
        if (name == "worker_result.txt" || name == "worker_error.txt" ||
            name == "worker_heartbeat.txt") {
            WorkerResponse back;
            ASSERT_TRUE(WorkerResponse::fromText(golden, back, &err)) << err;
            EXPECT_EQ(back.toText(), golden) << name;
        } else {
            WorkerRequest back;
            ASSERT_TRUE(WorkerRequest::fromText(golden, back, &err)) << err;
            EXPECT_EQ(back.toText(), golden) << name;
        }
    }
}

// ---- files written by the earlier build ------------------------------------

TEST(Wire, PinnedResultJsonReloadsByteIdentically)
{
    for (const char *name : {"result_dse.json", "result_map.json"}) {
        const std::string golden = readText(kWire + "golden/" + name);
        std::string error;
        const std::optional<Value> v =
            common::json::parse(golden, &error);
        ASSERT_TRUE(v) << error;
        std::optional<ExperimentResult> r =
            ExperimentResult::fromJson(*v, &error);
        ASSERT_TRUE(r) << name << ": " << error;
        EXPECT_EQ(r->toJson().dump(2) + "\n", golden) << name;
    }
}

TEST_F(WireTest, StoreRecordIsPinnedAndReloadsByteIdentically)
{
    const char *record = "c081e8e3ceefdbd7.result.json";
    const ExperimentSpec spec = specFile("tiny_dse.json");
    ASSERT_EQ(hashText(spec.canonicalHash()), "0xc081e8e3ceefdbd7");

    // The pinned record is served, and re-put byte-identically.
    fs::create_directories(dir_ / "old");
    fs::copy_file(kWire + "golden/" + record, dir_ / "old" / record);
    std::shared_ptr<const ExperimentResult> served;
    {
        ResultStore old(path("old"));
        served = old.get(spec.canonicalHash(), spec.canonicalText());
    }
    ASSERT_TRUE(served);
    {
        ResultStore fresh(path("fresh"));
        std::string error;
        ASSERT_TRUE(fresh.put(*served, &error)) << error;
    }
    EXPECT_EQ(readText(path("fresh/") + record),
              readText(kWire + "golden/" + record));

    // A fixed result writes the pinned record.
    ExperimentResult fixed;
    fixed.spec = spec;
    fixed.specHash = spec.canonicalHash();
    fixed.dse = fixedDseResult();
    {
        ResultStore pinned(path("pinned"));
        ASSERT_TRUE(pinned.put(fixed));
    }
    expectGolden("store_fixed.result.json",
                 readText(path("pinned/") + record));
}

TEST_F(WireTest, JournalIsPinnedAndReloadsByteIdentically)
{
    const dse::JournalRecord rec = fixedJournalRecord();
    std::string error;
    ASSERT_TRUE(dse::journalAppend(path("j"), rec, &error)) << error;
    expectGolden("journal.jsonl", readText(path("j")));

    fs::copy_file(kWire + "golden/journal.jsonl", dir_ / "old");
    const dse::JournalLoadResult loaded =
        dse::journalLoad(path("old"), rec.tag);
    ASSERT_TRUE(loaded.error.empty()) << loaded.error;
    ASSERT_EQ(loaded.records.size(), 1u);
    ASSERT_TRUE(dse::journalAppend(path("again"), loaded.records[0], &error))
        << error;
    EXPECT_EQ(readText(path("again")), readText(path("old")));
}

// ---- reader error text -----------------------------------------------------

struct ErrorCase
{
    const char *what;
    const char *doc;
    const char *expected;
};

template <class Read>
void
expectErrors(const std::vector<ErrorCase> &cases, const Read &read)
{
    for (const ErrorCase &c : cases) {
        std::string error;
        const std::optional<Value> v = common::json::parse(c.doc, &error);
        ASSERT_TRUE(v) << c.what << ": " << error;
        error.clear();
        EXPECT_FALSE(read(*v, error)) << c.what;
        EXPECT_EQ(error, c.expected) << c.what;
    }
}

template <class T>
auto
viaReadJson()
{
    return [](const Value &v, std::string &error) {
        T out;
        return readJson(v, "x", out, &error);
    };
}

TEST(Wire, ResultReaderErrorsArePinned)
{
    expectErrors(
        {
            {"arch config unknown", R"({"x_cores":4,"x_corez":4})",
             "x.x_corez: unknown key (valid keys: name, x_cores, y_cores, "
             "x_cut, y_cut, topology, noc_gbps, d2d_gbps, dram_gbps, "
             "dram_count, macs_per_core, glb_kib, freq_ghz)"},
            {"arch type", R"({"glb_kib":"big"})",
             "x.glb_kib: expected an integer"},
            {"arch topology", R"({"topology":"ring"})",
             "x.topology: unknown topology \"ring\" (valid: mesh, "
             "folded-torus, concentrated-ring, hierarchical-nop)"},
        },
        viaReadJson<arch::ArchConfig>());
    expectErrors(
        {
            {"eval unknown", R"({"delay":1})",
             "x.delay: unknown key (valid keys: delay_s, intra_tile_j, "
             "noc_j, d2d_j, dram_j, dram_bytes, hop_bytes, d2d_hop_bytes, "
             "glb_overflow)"},
            {"eval type", R"({"noc_j":true})",
             "x.noc_j: expected a number"},
        },
        viaReadJson<eval::EvalBreakdown>());
    expectErrors(
        {
            {"mc unknown", R"({"dram":1,"totl":3})",
             "x.totl: unknown key (valid keys: compute_silicon, io_silicon, "
             "dram, package, compute_die_area_mm2, total_silicon_area_mm2, "
             "compute_die_yield, d2d_area_fraction, total)"},
            {"mc type", R"({"total":"3"})",
             "x.total: expected a number"},
        },
        viaReadJson<cost::CostBreakdown>());
    expectErrors(
        {
            {"lp unknown", R"({"groups":[],"batches":1})",
             "x.batches: unknown key (valid keys: batch, groups)"},
            {"lp type", R"({"batch":1.5,"groups":[]})",
             "x.batch: expected an integer (within +/-2^53)"},
            {"lp missing", R"({"batch":1})",
             "x.groups: required key is missing"},
            {"group unknown",
             R"({"groups":[{"layers":[],"schemes":[],"unit":1}]})",
             "x.groups[0].unit: unknown key (valid keys: layers, batch_unit, "
             "schemes)"},
            {"group type", R"({"groups":[{"layers":[0.5],"schemes":[]}]})",
             "x.groups[0].layers: expected an array of integers"},
            {"group missing", R"({"groups":[{"layers":[]}]})",
             "x.groups[0].schemes: required key is missing"},
            {"group parallel", R"({"groups":[{"layers":[1],"schemes":[]}]})",
             "x.groups[0]: schemes and layers must be parallel arrays"},
            {"scheme unknown",
             R"({"groups":[{"layers":[0],"schemes":[{"partition":{},"flow":{},)"
             R"("cores":[]}]}]})",
             "x.groups[0].schemes[0].cores: unknown key (valid keys: "
             "partition, core_group, flow)"},
            {"scheme type",
             R"({"groups":[{"layers":[0],"schemes":[{"partition":{"h":"1"},)"
             R"("flow":{}}]}]})",
             "x.groups[0].schemes[0].partition.h: expected an integer"},
            {"scheme missing",
             R"({"groups":[{"layers":[0],"schemes":[{"partition":{}}]}]})",
             "x.groups[0].schemes[0].flow: required key is missing"},
            {"flow unknown",
             R"({"groups":[{"layers":[0],"schemes":[{"partition":{},)"
             R"("flow":{"psum":1}}]}]})",
             "x.groups[0].schemes[0].flow.psum: unknown key (valid keys: "
             "ifmap, weight, ofmap)"},
        },
        viaReadJson<mapping::LpMapping>());
    expectErrors(
        {
            {"mapping result unknown",
             R"({"mapping":{"groups":[]},"group":[]})",
             "x.group: unknown key (valid keys: mapping, groups, total, "
             "sa_stats)"},
            {"mapping result type", R"({"mapping":{"groups":[]},"groups":{}})",
             "x.groups: expected an array"},
            {"mapping result missing", R"({"groups":[]})",
             "x.mapping: required key is missing"},
            {"sa stats unknown",
             R"({"mapping":{"groups":[]},"sa_stats":{"iters":1}})",
             "x.sa_stats.iters: unknown key (valid keys: proposed, "
             "inapplicable, accepted, improved, initial_cost, final_cost, "
             "chains, best_chain, iters_run, best_iteration)"},
            {"sa stats type",
             R"({"mapping":{"groups":[]},"sa_stats":{"chains":"2"}})",
             "x.sa_stats.chains: expected an integer"},
        },
        viaReadJson<mapping::MappingResult>());
    expectErrors(
        {
            {"dse unknown", R"({"records":[],"best":0})",
             "x.best: unknown key (valid keys: records, best_index, stats)"},
            {"dse type", R"({"records":[],"best_index":"0"})",
             "x.best_index: expected an integer"},
            {"dse missing", R"({"best_index":-1})",
             "x.records: required key is missing"},
            {"dse best range", R"({"records":[],"best_index":0})",
             "x.best_index: out of range for 0 records"},
            {"record unknown", R"({"records":[{"arch":{},"objectiv":1}]})",
             "x.records[0].objectiv: unknown key (valid keys: arch, mc, "
             "delay_geo_s, energy_geo_j, objective, feasible, per_model, "
             "objective_lower_bound, rung_reached, pruned_by_bound, "
             "poisoned, poison_reason, sa_iters, eval_seconds, "
             "bound_compute_s, bound_dram_s, bound_noc_s, "
             "bound_refetch_bytes, seeded_analytic)"},
            {"record type", R"({"records":[{"arch":{},"objective":"inf"}]})",
             "x.records[0].objective: expected a number or null (= infinity)"},
            {"record missing", R"({"records":[{"objective":null}]})",
             "x.records[0].arch: required key is missing"},
            {"stats unknown", R"({"records":[],"stats":{"rung":[]}})",
             "x.stats.rung: unknown key (valid keys: scheduled, cancelled, "
             "truncated, resumed_rung, rungs)"},
            {"stats type", R"({"records":[],"stats":{"rungs":{}}})",
             "x.stats.rungs: expected an array"},
            {"rung unknown",
             R"({"records":[],"stats":{"rungs":[{"name":"screen","best":1}]}})",
             "x.stats.rungs[0].best: unknown key (valid keys: name, entered, "
             "advanced, pruned_bound, pruned_rank, poisoned, sa_iters, "
             "cpu_seconds, best_objective)"},
            {"rung type",
             R"({"records":[],"stats":{"rungs":[{"entered":"1"}]}})",
             "x.stats.rungs[0].entered: expected an integer"},
        },
        viaReadJson<dse::DseResult>());
}

TEST(Wire, SpecReaderErrorsArePinned)
{
    expectErrors(
        {
            {"spec unknown", R"({"modes":"dse"})",
             "spec.modes: unknown key (valid keys: schema_version, name, "
             "mode, models, arch, axes, schedule, max_candidates, objective, "
             "mapping, tech, cost, threads, deadline_seconds, execution)"},
            {"spec type", R"({"threads":"4"})",
             "spec.threads: expected an integer"},
            {"spec version", R"({"schema_version":2,"bogus":1})",
             "spec.schema_version: version 2 is not supported (this build "
             "speaks version 1)"},
            {"spec mode", R"({"mode":"explore"})",
             "spec.mode: unknown mode \"explore\" (valid: map, dse)"},
            {"models type", R"({"models":[{"zoo":5}]})",
             "spec.models[0].zoo: expected a string"},
            {"models unknown", R"({"models":[{"zoo":"x","path":"y"}]})",
             "spec.models[0].path: unknown key (valid keys: zoo, file)"},
            {"arch unknown", R"({"arch":{"presets":"tiny"}})",
             "spec.arch.presets: unknown key (valid keys: preset, config)"},
            {"arch config type", R"({"arch":{"config":{"x_cut":"2"}}})",
             "spec.arch.config.x_cut: expected an integer"},
            {"objective unknown", R"({"objective":{"delta":1}})",
             "spec.objective.delta: unknown key (valid keys: alpha, beta, "
             "gamma)"},
            {"objective type", R"({"objective":{"alpha":"1"}})",
             "spec.objective.alpha: expected a number"},
            {"axes unknown", R"({"axes":{"x_cut":[1]}})",
             "spec.axes.x_cut: unknown key (valid keys: tops_target, x_cuts, "
             "y_cuts, dram_gbps_per_tops, noc_gbps, d2d_ratio, glb_kib, "
             "macs_per_core, topologies)"},
            {"axes type", R"({"axes":{"x_cuts":[1.5]}})",
             "spec.axes.x_cuts: expected an array of integers"},
            {"axes list type", R"({"axes":{"noc_gbps":["16"]}})",
             "spec.axes.noc_gbps: expected an array of numbers"},
            {"axes topology", R"({"axes":{"topologies":["ring"]}})",
             "spec.axes.topologies: unknown topology (valid: mesh, "
             "folded-torus, concentrated-ring, hierarchical-nop)"},
            {"axes range", R"({"axes":{"glb_kib":[1e30]}})",
             "spec.axes.glb_kib: integer out of range for this field"},
            {"schedule unknown", R"({"schedule":{"rung":2}})",
             "spec.schedule.rung: unknown key (valid keys: enabled, rungs, "
             "keep_fraction, base_iters, lower_bound_prune, analytic_bound, "
             "min_keep, polish_chains)"},
            {"schedule type", R"({"schedule":{"enabled":1}})",
             "spec.schedule.enabled: expected true or false"},
            {"schedule analytic_bound",
             R"({"schedule":{"analytic_bound":false}})",
             "spec.schedule.analytic_bound: false is no longer supported "
             "(the whole-model roofline bound was removed)"},
            {"mapping unknown", R"({"mapping":{"batchs":2}})",
             "spec.mapping.batchs: unknown key (valid keys: batch, run_sa, "
             "sa, sa_threads, analyzer_cache_entries, max_group_layers, "
             "analytic_seed, batch_units)"},
            {"mapping delta_eval", R"({"mapping":{"delta_eval":false}})",
             "spec.mapping.delta_eval: unknown key (valid keys: batch, "
             "run_sa, sa, sa_threads, analyzer_cache_entries, "
             "max_group_layers, analytic_seed, batch_units)"},
            {"mapping type", R"({"mapping":{"batch_units":2}})",
             "spec.mapping.batch_units: expected an array of integers"},
            {"sa unknown", R"({"mapping":{"sa":{"iters":2}}})",
             "spec.mapping.sa.iters: unknown key (valid keys: iterations, "
             "t_start, t_end, seed, chains, incremental_cost, "
             "reheat_interval, operator_mask, plateau_window)"},
            {"sa type", R"({"mapping":{"sa":{"seed":-1}}})",
             "spec.mapping.sa.seed: integer out of range for this field"},
            {"sa incremental_cost",
             R"({"mapping":{"sa":{"incremental_cost":false}}})",
             "spec.mapping.sa.incremental_cost: false is no longer supported "
             "(the full re-sum was removed)"},
            {"tech unknown", R"({"tech":{"mac_pj":1}})",
             "spec.tech.mac_pj: unknown key (valid keys: mac_j, vec_op_j, "
             "glb_j_per_byte, buf_j_per_byte, noc_hop_j_per_byte, "
             "d2d_j_per_byte, dram_j_per_byte, nop_serialization_j_per_byte, "
             "lanes_c, vec_lane_divisor, glb_bytes_per_cycle_per_mac, "
             "wbuf_bytes_per_mac, ibuf_bytes_per_mac, abuf_bytes_per_mac)"},
            {"tech type", R"({"tech":{"lanes_c":"64"}})",
             "spec.tech.lanes_c: expected an integer"},
            {"cost unknown", R"({"cost":{"dram_price":1}})",
             "spec.cost.dram_price: unknown key (valid keys: "
             "silicon_dollar_per_mm2, yield_unit, unit_area_mm2, "
             "mac_area_mm2, glb_area_mm2_per_mib, core_fixed_area_mm2, "
             "d2d_area_base_mm2, d2d_area_per_gbps, io_chiplet_fixed_mm2, "
             "io_phy_area_per_gbps, dram_unit_bw_gbps, dram_die_price, "
             "substrate_scale, package_yield_per_die, "
             "monolithic_substrate_dollar_per_mm2, chiplet_substrate_tiers)"},
            {"cost type", R"({"cost":{"yield_unit":"0.9"}})",
             "spec.cost.yield_unit: expected a number"},
            {"tier unknown",
             R"({"cost":{"chiplet_substrate_tiers":[{"max_area":1}]}})",
             "spec.cost.chiplet_substrate_tiers[0].max_area: unknown key "
             "(valid keys: max_area_mm2, dollar_per_mm2)"},
            {"tier type",
             R"({"cost":{"chiplet_substrate_tiers":[{"max_area_mm2":"1"}]}})",
             "spec.cost.chiplet_substrate_tiers[0].max_area_mm2: expected a "
             "number"},
            {"execution unknown", R"({"execution":{"worker":2}})",
             "spec.execution.worker: unknown key (valid keys: mode, workers, "
             "max_retries, candidate_deadline_seconds, candidate_rss_mib)"},
            {"execution type", R"({"execution":{"workers":"2"}})",
             "spec.execution.workers: expected an integer"},
            {"execution mode", R"({"execution":{"mode":"remote"}})",
             "spec.execution.mode: unknown mode \"remote\" (valid: "
             "in_process, workers)"},
        },
        [](const Value &v, std::string &error) {
            return ExperimentSpec::fromJson(v, &error).has_value();
        });
}

TEST(Wire, EnvelopeReaderErrorsArePinned)
{
    const std::string spec = specFile("tiny_dse.json").toJson().dump();
    const auto withSpec = [&](const Value &v) {
        Value doc = v;
        doc.set("spec", common::json::parse(spec).value());
        return doc;
    };
    expectErrors(
        {
            {"result unknown",
             R"({"spec_hash":"0x0000000000000001","dse":{"records":[]},)"
             R"("extra":1})",
             "result.extra: unknown key (valid keys: schema_version, name, "
             "spec_hash, from_cache, cancelled, truncated, error, "
             "error_kind, spec, dse, arch, mc, mappings)"},
            {"result type",
             R"({"spec_hash":"0x0000000000000001","from_cache":"no"})",
             "result.from_cache: expected true or false"},
            {"result kind",
             R"({"spec_hash":"0x0000000000000001","error_kind":"oops"})",
             "result.error_kind: unknown kind \"oops\" (valid: none, "
             "invalid_spec, runtime)"},
        },
        [&](const Value &v, std::string &error) {
            return ExperimentResult::fromJson(withSpec(v), &error)
                .has_value();
        });
    expectErrors(
        {
            {"result missing", R"({"spec_hash":"0x0000000000000001"})",
             "result.spec: required key is missing"},
            {"result version", R"({"schema_version":2,"extra":1})",
             "result.schema_version: written by a newer build (2)"},
        },
        [](const Value &v, std::string &error) {
            return ExperimentResult::fromJson(v, &error).has_value();
        });
    expectErrors(
        {
            {"request unknown",
             R"({"kind":"eval","seed":"0x0000000000000000","arch":{},)"
             R"("seed2":"0x0"})",
             "request.seed2: unknown key (valid keys: kind, seq, index, "
             "rung, iters, chains, seed, arch, warm_starts)"},
            {"request type", R"({"kind":"eval","arch":{},"iters":"2"})",
             "request.iters: expected an integer"},
            {"request missing",
             R"({"kind":"eval","seed":"0x0000000000000000","iters":2})",
             "request.arch: required key is missing"},
            {"request missing seed", R"({"kind":"eval","arch":{}})",
             "request.seed: required key is missing"},
            {"request init unknown", R"({"kind":"init","index":2})",
             "request.index: unknown key (valid keys: kind, seq, spec)"},
            {"request kind", R"({"kind":"run"})",
             "request.kind: unknown kind \"run\" (valid: init, eval, "
             "shutdown)"},
        },
        [](const Value &v, std::string &error) {
            WorkerRequest rq;
            return WorkerRequest::fromText(v.dump(), rq, &error);
        });
    expectErrors(
        {
            {"response unknown", R"({"kind":"result","maps":[]})",
             "response.maps: unknown key (valid keys: kind, seq, message, "
             "per_model, mappings)"},
            {"response type", R"({"kind":"result","seq":"1"})",
             "response.seq: expected an integer"},
            {"response kind", R"({"kind":"done"})",
             "response.kind: unknown kind \"done\" (valid: ready, heartbeat, "
             "result, error)"},
        },
        [](const Value &v, std::string &error) {
            WorkerResponse resp;
            return WorkerResponse::fromText(v.dump(), resp, &error);
        });
}

TEST(Wire, HexFieldsAcceptOnlyTheDigitsTheWriterEmits)
{
    const auto seedError = [](const std::string &seed) {
        WorkerRequest rq;
        std::string error;
        WorkerRequest::fromText(R"({"kind":"eval","arch":{},"seed":")" +
                                    seed + "\"}",
                                rq, &error);
        return error;
    };
    EXPECT_EQ(seedError("0xfedcba9876543210"), "");
    for (const char *bad : {"0x", "0x-5", "0x5", "fedcba9876543210",
                            "0xFEDCBA9876543210", "0x+edcba9876543210"})
        EXPECT_EQ(seedError(bad),
                  "request.seed: expected a 0x-prefixed hex string")
            << bad;

    Value result = common::json::parse(readText(
                                           kWire + "golden/result_dse.json"))
                       .value();
    result.set("spec_hash", "0x-5");
    std::string error;
    EXPECT_FALSE(ExperimentResult::fromJson(result, &error));
    EXPECT_EQ(error, "result.spec_hash: expected a 0x-prefixed hex string");
}

TEST_F(WireTest, JournalRejectsMalformedRecords)
{
    // A valid record with `key` set to `value` (or removed, for null).
    // The loader keeps the reason to itself: a rejected record simply
    // ends the valid prefix.
    const auto accepted = [&](const char *key, const char *value) {
        Value record = common::json::parse(R"({"tag":"0000000000000007",)"
                                           R"("snapshot":{"records":[]},)"
                                           R"("warm_starts":[]})")
                           .value();
        const Value v = common::json::parse(value).value();
        Object &fields = record.asObject();
        fields.erase(std::remove_if(fields.begin(), fields.end(),
                                    [&](const auto &kv) {
                                        return v.isNull() && kv.first == key;
                                    }),
                     fields.end());
        if (!v.isNull())
            record.set(key, v);
        char sum[17];
        std::snprintf(sum, sizeof sum, "%016llx",
                      static_cast<unsigned long long>(
                          common::json::fnv1a64(record.canonical())));
        writeText(path("j"), std::string("{\"checksum\":\"") + sum +
                                 "\",\"record\":" + record.canonical() +
                                 "}\n");
        const dse::JournalLoadResult loaded = dse::journalLoad(path("j"), 7);
        EXPECT_EQ(loaded.records.size() + loaded.droppedTail, 1u) << key;
        return loaded.records.size() == 1;
    };
    EXPECT_TRUE(accepted("rung", "3"));
    EXPECT_FALSE(accepted("extra", "1"));
    EXPECT_FALSE(accepted("rung", R"("1")"));
    EXPECT_FALSE(accepted("snapshot", "null"));
    EXPECT_FALSE(accepted("version", "2"));
    EXPECT_FALSE(accepted("survivors", "[1]"));
    EXPECT_FALSE(accepted("tag", R"("+7")"));
    EXPECT_FALSE(accepted("tag", R"("7")"));
}

} // namespace
} // namespace gemini::api
