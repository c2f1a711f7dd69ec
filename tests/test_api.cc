/**
 * @file
 * Tests for the public API layer: ExperimentSpec JSON round trips with
 * stable canonical hashes, actionable validation errors, result
 * serialization that re-evaluates bit-identically, the ExplorationService
 * job lifecycle (progress determinism, cancellation yielding valid
 * partial results, spec-hash result caching), and the arch preset
 * registry.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/api/results.hh"
#include "src/api/service.hh"
#include "src/api/spec.hh"
#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/dse.hh"
#include "src/mapping/engine.hh"

namespace gemini::api {
namespace {

/** The tiny DSE space the dse tests use: 4 candidates, 2-core grids. */
ExperimentSpec
tinyDseSpec()
{
    ExperimentSpec spec;
    spec.name = "tiny-dse";
    spec.mode = ExperimentSpec::Mode::Dse;
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

// ---------------------------------------------------------------- spec --

TEST(Spec, JsonRoundTripPreservesCanonicalHash)
{
    ExperimentSpec spec = tinyDseSpec();
    spec.schedule.enabled = true;
    spec.schedule.rungs = 1;
    spec.alpha = 0.5;
    spec.mapping.sa.seed = 1234567;
    spec.costParams.dramDiePrice = 4.25;
    spec.mapping.tech.macJ = 0.31e-12;

    const std::string text = spec.toJson().dump(2);
    std::string error;
    const auto reparsed = ExperimentSpec::fromJsonText(text, &error);
    ASSERT_TRUE(reparsed.has_value()) << error;

    // parse -> serialize -> parse is a fixed point: identical canonical
    // text, identical content hash.
    EXPECT_EQ(reparsed->toJson().canonical(), spec.toJson().canonical());
    EXPECT_EQ(reparsed->canonicalHash(), spec.canonicalHash());
    EXPECT_EQ(reparsed->axes.nocGBps, spec.axes.nocGBps);
    EXPECT_EQ(reparsed->mapping.sa.seed, spec.mapping.sa.seed);
    EXPECT_DOUBLE_EQ(reparsed->costParams.dramDiePrice, 4.25);
}

TEST(Spec, HashIgnoresFormattingAndSpelledOutDefaults)
{
    // A terse file and one that spells out a default knob describe the
    // same experiment and must hash identically.
    const char *terse = R"({"models": [{"zoo": "tiny_conv"}]})";
    const char *spelled = R"({
        "mode": "dse",
        "schema_version": 1,
        "models": [{"zoo": "tiny_conv"}],
        "threads": 0,
        "mapping": {"batch": 64, "run_sa": true}
    })";
    std::string error;
    const auto a = ExperimentSpec::fromJsonText(terse, &error);
    ASSERT_TRUE(a.has_value()) << error;
    const auto b = ExperimentSpec::fromJsonText(spelled, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(a->canonicalHash(), b->canonicalHash());

    // And a different knob value must change the hash.
    const auto c = ExperimentSpec::fromJsonText(
        R"({"models": [{"zoo": "tiny_conv"}], "mapping": {"batch": 32}})",
        &error);
    ASSERT_TRUE(c.has_value()) << error;
    EXPECT_NE(a->canonicalHash(), c->canonicalHash());
}

TEST(Spec, MinimalSpecGetsDefaults)
{
    std::string error;
    const auto spec = ExperimentSpec::fromJsonText(
        R"({"models": [{"zoo": "resnet50"}]})", &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->schemaVersion, kSchemaVersion);
    EXPECT_EQ(spec->mode, ExperimentSpec::Mode::Dse);
    EXPECT_EQ(spec->mapping.batch, 64);
    EXPECT_EQ(spec->mapping.sa.iterations, 4000);
    EXPECT_FALSE(spec->schedule.enabled);
    EXPECT_TRUE(spec->validate().empty()) << spec->validate();
}

TEST(Spec, RejectsUnknownKeysWithPath)
{
    std::string error;
    EXPECT_FALSE(ExperimentSpec::fromJsonText(
                     R"({"models": [], "mapping": {"bacth": 64}})", &error)
                     .has_value());
    EXPECT_NE(error.find("spec.mapping.bacth"), std::string::npos) << error;
    EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
    // The message lists the valid keys so the typo is self-correcting.
    EXPECT_NE(error.find("batch"), std::string::npos) << error;
}

TEST(Spec, RejectsWrongTypesWithPath)
{
    std::string error;
    EXPECT_FALSE(ExperimentSpec::fromJsonText(
                     R"({"mapping": {"sa": {"iterations": "many"}}})",
                     &error)
                     .has_value());
    EXPECT_NE(error.find("spec.mapping.sa.iterations"), std::string::npos)
        << error;
}

TEST(Spec, RejectsUnsupportedSchemaVersion)
{
    std::string error;
    EXPECT_FALSE(ExperimentSpec::fromJsonText(
                     R"({"schema_version": 99, "models": []})", &error)
                     .has_value());
    EXPECT_NE(error.find("version 99"), std::string::npos) << error;
    EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

TEST(Spec, ValidateReportsActionableSemanticErrors)
{
    ExperimentSpec spec; // no models
    spec.schedule.keepFraction = 1.5;
    spec.axes.nocGBps.clear();
    const std::string problems = spec.validate();
    EXPECT_NE(problems.find("models:"), std::string::npos) << problems;
    EXPECT_NE(problems.find("keep_fraction"), std::string::npos) << problems;
    EXPECT_NE(problems.find("axes.noc_gbps"), std::string::npos) << problems;

    ExperimentSpec bad_model = tinyDseSpec();
    bad_model.models = {{.zoo = "resnet9000", .file = ""}};
    const std::string unknown = bad_model.validate();
    EXPECT_NE(unknown.find("resnet9000"), std::string::npos) << unknown;
    EXPECT_NE(unknown.find("resnet50"), std::string::npos) << unknown;

    ExperimentSpec map;
    map.mode = ExperimentSpec::Mode::Map;
    map.models = {{.zoo = "tiny_conv", .file = ""}};
    map.arch.preset = "not_an_arch";
    const std::string preset = map.validate();
    EXPECT_NE(preset.find("not_an_arch"), std::string::npos) << preset;
    EXPECT_NE(preset.find("g_arch_72"), std::string::npos) << preset;
}

TEST(Spec, BatchUnitsMustBePositiveDivisorsOfTheBatch)
{
    // Each of these used to validate and then crash `gemini run`: a zero
    // unit divides by zero, a negative one fails the partition chunking
    // and a non-divisor fails the analyzer's batch-unit check.
    ExperimentSpec spec = tinyDseSpec();
    spec.mapping.batch = 64;
    const std::vector<std::pair<std::int64_t, std::string>> bad = {
        {0, "mapping.batch_units[1]: must be >= 1"},
        {-2, "mapping.batch_units[1]: must be >= 1"},
        {3, "mapping.batch_units[1]: 3 does not divide mapping.batch (64)"},
        {128,
         "mapping.batch_units[1]: 128 does not divide mapping.batch (64)"},
    };
    for (const auto &[unit, message] : bad) {
        spec.mapping.batchUnits = {4, unit};
        EXPECT_EQ(spec.validate(), message) << unit;
        std::string error;
        EXPECT_FALSE(resolveExperiment(spec, &error).has_value()) << unit;
        EXPECT_EQ(error, message);
    }
    spec.mapping.batchUnits = {1, 4, 64};
    EXPECT_EQ(spec.validate(), "");
}

TEST(Spec, RejectsOutOfRangeIntegers)
{
    // Out-of-range double-to-int casts are UB; both scalar and list
    // fields must reject instead of casting.
    std::string error;
    EXPECT_FALSE(ExperimentSpec::fromJsonText(
                     R"({"axes": {"glb_kib": [3e9]}})", &error)
                     .has_value());
    EXPECT_NE(error.find("spec.axes.glb_kib"), std::string::npos) << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(ExperimentSpec::fromJsonText(
                     R"({"mapping": {"max_group_layers": 1e12}})", &error)
                     .has_value());
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

// Specs an earlier build accepted and then crashed on (SIGFPE, an
// assert, or a negative DRAM price): validate() now names the field.

std::string
problemsWith(void (*edit)(ExperimentSpec &))
{
    ExperimentSpec spec = tinyDseSpec();
    edit(spec);
    return spec.validate();
}

TEST(SpecValidate, ZeroCutIsRejected)
{
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) { s.axes.xCuts = {0}; }),
              "axes.x_cuts[0]: must be >= 1");
}

TEST(SpecValidate, ZeroChannelLanesAreRejected)
{
    EXPECT_EQ(
        problemsWith([](ExperimentSpec &s) { s.mapping.tech.lanesC = 0; }),
        "tech.lanes_c: must be >= 1");
}

TEST(SpecValidate, TopsTargetBelowOneCoreIsRejected)
{
    EXPECT_EQ(
        problemsWith([](ExperimentSpec &s) { s.axes.topsTarget = 0.001; }),
        "axes.tops_target: 0.001 TOPS needs 0.001953125 cores of 256 MACs "
        "(must be within [0.85, 880])");
}

TEST(SpecValidate, TopsTargetAtTheCoreCapIsAcceptedAndAboveIsRejected)
{
    // 450.5 TOPS needs 879.88 cores of 256 MACs, just inside the cap:
    // every grid its search window can pick still passes
    // ArchConfig::validate (at most arch::kMaxCoreCount cores).
    EXPECT_EQ(
        problemsWith([](ExperimentSpec &s) { s.axes.topsTarget = 450.5; }),
        "");
    EXPECT_EQ(
        problemsWith([](ExperimentSpec &s) { s.axes.topsTarget = 451.0; }),
        "axes.tops_target: 451 TOPS needs 880.859375 cores of 256 MACs "
        "(must be within [0.85, 880])");
}

TEST(SpecValidate, CutsThatDivideNoGridAreRejected)
{
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.axes.xCuts = {7};
                  s.axes.yCuts = {7};
              }),
              "axes: the axis lists enumerate no valid candidate (no "
              "x_cuts/y_cuts pair divides the core grid, or every "
              "combination fails the architecture checks)");
}

TEST(SpecValidate, ZeroMacsPerCoreAreRejected)
{
    EXPECT_EQ(
        problemsWith([](ExperimentSpec &s) { s.axes.macsPerCore = {0}; }),
        "axes.macs_per_core[0]: must be >= 1");
}

TEST(SpecValidate, ZeroGlbIsRejected)
{
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) { s.axes.glbKiB = {0}; }),
              "axes.glb_kib[0]: must be >= 1");
}

TEST(SpecValidate, NegativeNocBandwidthIsRejected)
{
    EXPECT_EQ(
        problemsWith([](ExperimentSpec &s) { s.axes.nocGBps = {16, -1}; }),
        "axes.noc_gbps[1]: must be a finite number > 0");
}

TEST(SpecValidate, ZeroDramDieBandwidthIsRejected)
{
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.costParams.dramUnitBwGBps = 0;
              }),
              "cost.dram_unit_bw_gbps: must be a finite number > 0");
}

TEST(SpecValidate, AnalyzerCacheEntriesAboveTheCapAreRejected)
{
    // The caches reserve their storage by this count up front, so an
    // unbounded value would let one spec reserve unbounded memory.
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.mapping.analyzerCacheEntries =
                      mapping::kMaxAnalyzerCacheEntries + 1;
              }),
              "mapping.analyzer_cache_entries: must be <= 1048576 "
              "(0 = uncached)");
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.mapping.analyzerCacheEntries =
                      mapping::kMaxAnalyzerCacheEntries;
              }),
              "");
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.mapping.analyzerCacheEntries = 0;
              }),
              "");
}

TEST(SpecValidate, InlineArchConfigAboveTheCapsIsRejected)
{
    // freq_ghz 1e300 with macs_per_core and glb_kib at 2e9 parses; each
    // is rejected in turn, naming its path, until every value sits at
    // its cap.
    std::string error;
    std::optional<ExperimentSpec> spec = ExperimentSpec::fromJsonText(
        R"({"mode": "map", "models": [{"zoo": "tiny_conv"}],
            "arch": {"config": {"x_cores": 4, "y_cores": 4,
                                "freq_ghz": 1e300, "macs_per_core": 2e9,
                                "glb_kib": 2e9}}})",
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    arch::ArchConfig &cfg = *spec->arch.config;
    EXPECT_EQ(spec->validate(), "arch.config: macs_per_core 2000000000 "
                                "must be within (0, 1048576]");
    cfg.macsPerCore = arch::kMaxMacsPerCore;
    EXPECT_EQ(spec->validate(),
              "arch.config: glb_kib 2000000000 must be within (0, 16777216]");
    cfg.glbKiB = arch::kMaxGlbKiB;
    EXPECT_EQ(spec->validate(),
              "arch.config: freq_ghz 1e+300 must be within (0, 100]");
    cfg.freqGHz = arch::kMaxFreqGHz;
    EXPECT_EQ(spec->validate(), "");
    cfg.dramBwGBps = 2 * arch::kMaxBandwidthGBps;
    EXPECT_EQ(spec->validate(),
              "arch.config: dram_gbps 2e+06 must be within (0, 1e+06]");
}

TEST(SpecValidate, InlineGridAtTheRouteTableCapIsAcceptedAndAboveIsRejected)
{
    // A 276x2 mesh with 8 DRAMs needs 66,559,640 bytes of route tables,
    // just under the 64 MiB cap; one more column needs 67,246,950.
    std::string error;
    std::optional<ExperimentSpec> spec = ExperimentSpec::fromJsonText(
        R"({"mode": "map", "models": [{"zoo": "tiny_conv"}],
            "arch": {"config": {"x_cores": 276, "y_cores": 2,
                                "dram_count": 8}}})",
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->validate(), "");
    EXPECT_EQ(noc::InterconnectModel::predictTableBytes(*spec->arch.config),
              66559640u);
    spec->arch.config->xCores = 277;
    EXPECT_EQ(spec->validate(),
              "arch.config: x_cores 277 by y_cores 2 with dram_count 8 "
              "needs 67246950 bytes of route tables, above the 67108864-"
              "byte cap");
    // Validation remembers each config's prediction: going back and forth
    // between the two grids keeps each one's verdict.
    spec->arch.config->xCores = 276;
    EXPECT_EQ(spec->validate(), "");
    spec->arch.config->xCores = 277;
    EXPECT_NE(spec->validate(), "");
}

TEST(SpecValidate, CostTiersMustBePresentAndAscend)
{
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.costParams.chipletSubstrateTiers.clear();
              }),
              "cost.chiplet_substrate_tiers: at least one tier is required");
    EXPECT_EQ(problemsWith([](ExperimentSpec &s) {
                  s.costParams.chipletSubstrateTiers = {{2000, 0.01},
                                                        {1000, 0.02}};
              }),
              "cost.chiplet_substrate_tiers[1].max_area_mm2: tiers must "
              "ascend by area");
}

TEST(SpecValidate, InvalidSpecFailsTheJobInsteadOfTheProcess)
{
    ExperimentSpec spec = tinyDseSpec();
    spec.axes.xCuts = {0};
    ExplorationService service(1);
    JobHandle job = service.submit(spec);
    const ExperimentResult &r = job.wait();
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.errorKind, ExperimentResult::ErrorKind::InvalidSpec);
    EXPECT_NE(r.error.find("axes.x_cuts[0]"), std::string::npos) << r.error;
}

TEST(Spec, ModelNeedsExactlyOneSource)
{
    ExperimentSpec spec = tinyDseSpec();
    spec.models = {{.zoo = "tiny_conv", .file = "also/a/file.txt"}};
    EXPECT_NE(spec.validate().find("exactly one"), std::string::npos);
    spec.models = {{.zoo = "", .file = ""}};
    EXPECT_NE(spec.validate().find("exactly one"), std::string::npos);
}

// ------------------------------------------------------------- presets --

TEST(Presets, RegistryMirrorsZooIdiom)
{
    const std::vector<std::string> names = arch::presets::names();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        const auto cfg = arch::presets::byName(name);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_TRUE(cfg->validate().empty()) << name;
    }
    const auto g72 = arch::presets::byName("g_arch_72");
    ASSERT_TRUE(g72.has_value());
    EXPECT_TRUE(*g72 == arch::gArch72());
    EXPECT_FALSE(arch::presets::byName("nope").has_value());
}

// ------------------------------------------------------------- results --

TEST(Results, ArchConfigRoundTripsAllTopologies)
{
    for (const arch::Topology t : arch::kAllTopologies) {
        arch::ArchConfig cfg = arch::largeGridArch(t);
        arch::ArchConfig back;
        std::string error;
        ASSERT_TRUE(readJson(writeJson(cfg), "arch", back, &error)) << error;
        EXPECT_TRUE(back == cfg);
        EXPECT_EQ(back.name, cfg.name);
    }
}

TEST(Results, LpMappingRoundTripReEvaluatesBitIdentically)
{
    const dnn::Graph model = dnn::zoo::tinyConvChain(3);
    const arch::ArchConfig arch = arch::tinyArch();
    mapping::MappingOptions options;
    options.batch = 2;
    options.sa.iterations = 80;
    options.maxGroupLayers = 4;
    mapping::MappingEngine engine(model, arch, options);
    const mapping::MappingResult original = engine.run();

    const common::json::Value wire = writeJson(original.mapping);
    mapping::LpMapping back;
    std::string error;
    ASSERT_TRUE(readJson(wire, "mapping", back, &error)) << error;

    // The parsed mapping is structurally valid for this graph/arch and
    // re-evaluates to the exact same breakdown, bit for bit.
    EXPECT_TRUE(
        mapping::checkMappingValid(model, arch, back).empty());
    const mapping::MappingResult re = engine.evaluateMapping(back);
    EXPECT_EQ(re.total.delay, original.total.delay);
    EXPECT_EQ(re.total.totalEnergy(), original.total.totalEnergy());
    EXPECT_EQ(re.total.dramBytes, original.total.dramBytes);
    EXPECT_EQ(re.total.hopBytes, original.total.hopBytes);

    // ...and warm-starting from it is never worse than the original.
    const mapping::MappingResult resumed = engine.runFrom(back);
    EXPECT_LE(resumed.total.edp(), original.total.edp() * (1 + 1e-12));
}

TEST(Results, MappingResultAndDseResultRoundTripViaCanonicalJson)
{
    const dnn::Graph model = dnn::zoo::tinyConvChain(2);
    mapping::MappingOptions mo;
    mo.batch = 2;
    mo.sa.iterations = 30;
    mapping::MappingEngine engine(model, arch::tinyArch(), mo);
    const mapping::MappingResult mr = engine.run();

    const common::json::Value mwire = writeJson(mr);
    mapping::MappingResult mback;
    std::string error;
    ASSERT_TRUE(readJson(mwire, "r", mback, &error)) << error;
    EXPECT_EQ(writeJson(mback).canonical(), mwire.canonical());
    EXPECT_EQ(mback.total.delay, mr.total.delay);
    EXPECT_EQ(mback.saStats.accepted, mr.saStats.accepted);

    ExperimentSpec spec = tinyDseSpec();
    std::string rerror;
    const auto resolved = resolveExperiment(spec, &rerror);
    ASSERT_TRUE(resolved.has_value()) << rerror;
    dse::DseOptions options;
    options.axes = spec.axes;
    options.models = {&resolved->models[0]};
    options.mapping = spec.mapping;
    options.threads = 2;
    const dse::DseResult dr = dse::runDse(options);

    const common::json::Value dwire = writeJson(dr);
    dse::DseResult dback;
    ASSERT_TRUE(readJson(dwire, "r", dback, &error)) << error;
    EXPECT_EQ(writeJson(dback).canonical(), dwire.canonical());
    ASSERT_EQ(dback.records.size(), dr.records.size());
    EXPECT_EQ(dback.bestIndex, dr.bestIndex);
    for (std::size_t i = 0; i < dr.records.size(); ++i) {
        EXPECT_EQ(dback.records[i].objective, dr.records[i].objective);
        EXPECT_TRUE(dback.records[i].arch == dr.records[i].arch);
    }
}

// ------------------------------------------------------------- service --

TEST(Service, RunsDseJobAndMatchesDirectRunDse)
{
    ExperimentSpec spec = tinyDseSpec();

    ExplorationService service(2);
    JobHandle job = service.submit(spec);
    const ExperimentResult &via_service = job.wait();
    ASSERT_FALSE(via_service.failed()) << via_service.error;
    EXPECT_EQ(job.state(), JobState::Done);

    // The service path (shared pool, stop token attached but never
    // fired) must agree exactly with a direct runDse.
    const auto resolved = resolveExperiment(spec, nullptr);
    ASSERT_TRUE(resolved.has_value());
    dse::DseOptions options;
    options.axes = spec.axes;
    options.models = {&resolved->models[0]};
    options.mapping = spec.mapping;
    options.threads = spec.threads;
    const dse::DseResult direct = dse::runDse(options);

    ASSERT_EQ(via_service.dse.records.size(), direct.records.size());
    EXPECT_EQ(via_service.dse.bestIndex, direct.bestIndex);
    for (std::size_t i = 0; i < direct.records.size(); ++i)
        EXPECT_EQ(via_service.dse.records[i].objective,
                  direct.records[i].objective);
}

TEST(Service, CacheServesIdenticalResubmissionInstantly)
{
    ExperimentSpec spec = tinyDseSpec();
    ExplorationService service(2);
    const ExperimentResult &first = service.submit(spec).wait();
    ASSERT_FALSE(first.failed());
    EXPECT_FALSE(first.fromCache);
    EXPECT_EQ(service.cacheSize(), 1u);

    JobHandle again = service.submit(spec);
    const ExperimentResult &second = again.wait();
    EXPECT_TRUE(second.fromCache);
    EXPECT_EQ(second.dse.bestIndex, first.dse.bestIndex);

    // A different spec is a different cache key.
    spec.mapping.sa.iterations += 1;
    const ExperimentResult &third = service.submit(spec).wait();
    EXPECT_FALSE(third.fromCache);
    EXPECT_EQ(service.cacheSize(), 2u);

    service.clearCache();
    EXPECT_EQ(service.cacheSize(), 0u);
}

TEST(Service, InvalidSpecFailsFastWithMessage)
{
    ExperimentSpec spec; // no models
    ExplorationService service(1);
    JobHandle job = service.submit(spec);
    const ExperimentResult &result = job.wait();
    EXPECT_EQ(job.state(), JobState::Failed);
    EXPECT_TRUE(result.failed());
    EXPECT_NE(result.error.find("models"), std::string::npos);
    EXPECT_EQ(service.cacheSize(), 0u); // failures are never cached
}

TEST(Service, MapModeMatchesDirectEngineRun)
{
    ExperimentSpec spec;
    spec.mode = ExperimentSpec::Mode::Map;
    spec.models = {{.zoo = "tiny_conv", .file = ""}};
    spec.arch.preset = "tiny";
    spec.mapping.batch = 2;
    spec.mapping.sa.iterations = 50;
    spec.mapping.maxGroupLayers = 4;

    ExplorationService service(2);
    const ExperimentResult &result = service.submit(spec).wait();
    ASSERT_FALSE(result.failed()) << result.error;
    ASSERT_EQ(result.mappings.size(), 1u);
    EXPECT_TRUE(result.mapArch == arch::tinyArch());

    const dnn::Graph model = dnn::zoo::tinyConvChain();
    mapping::MappingEngine engine(model, arch::tinyArch(), spec.mapping);
    const mapping::MappingResult direct = engine.run();
    EXPECT_EQ(result.mappings[0].total.delay, direct.total.delay);
    EXPECT_EQ(result.mappings[0].total.totalEnergy(),
              direct.total.totalEnergy());
}

TEST(Service, AnalyzerCacheEntriesNeverChangeAMapResult)
{
    // The cache size is a speed knob: a seeded SA walk must land on the
    // same cost bits and the same mapping whether every fragment is
    // recomputed (0), the caches thrash (2, 16) or they hold the whole
    // walk (the 2048 default).
    ExperimentSpec spec;
    spec.mode = ExperimentSpec::Mode::Map;
    spec.models = {{.zoo = "tiny_transformer", .file = ""}};
    spec.arch.preset = "tiny";
    spec.mapping.batch = 2;
    spec.mapping.sa.iterations = 300;
    spec.mapping.sa.seed = 7;

    std::string reference_mapping;
    double reference_cost = 0.0;
    for (const std::size_t entries : {0u, 2u, 16u, 2048u}) {
        spec.mapping.analyzerCacheEntries = entries;
        ExplorationService service(1);
        const ExperimentResult &result = service.submit(spec).wait();
        ASSERT_FALSE(result.failed()) << result.error;
        ASSERT_EQ(result.mappings.size(), 1u);
        const mapping::MappingResult &m = result.mappings[0];
        const std::string text = writeJson(m.mapping).canonical();
        if (entries == 0) {
            reference_mapping = text;
            reference_cost = m.saStats.finalCost;
            EXPECT_GT(m.saStats.accepted, 0) << "the walk must move";
            continue;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(m.saStats.finalCost),
                  std::bit_cast<std::uint64_t>(reference_cost))
            << entries << " entries";
        EXPECT_EQ(text, reference_mapping) << entries << " entries";
    }
}

// -------------------------------------------------------- cancellation --

TEST(Cancellation, PreStoppedRunReturnsValidPartialResult)
{
    // Deterministic worst case: the stop is already requested when the
    // run starts. Every rung must still resolve — the stats ledger is
    // complete — and no unevaluated record may look like a winner.
    ExperimentSpec spec = tinyDseSpec();
    spec.schedule.enabled = true;
    spec.schedule.rungs = 2;

    const auto resolved = resolveExperiment(spec, nullptr);
    ASSERT_TRUE(resolved.has_value());
    common::StopSource source;
    source.requestStop();

    dse::DseOptions options;
    options.axes = spec.axes;
    options.schedule = spec.schedule;
    options.models = {&resolved->models[0]};
    options.mapping = spec.mapping;
    options.threads = 2;
    options.stop = source.token();

    const dse::DseResult result = dse::runDse(options);
    EXPECT_TRUE(result.stats.cancelled);
    EXPECT_TRUE(result.stats.scheduled);
    // screen + 2 race rungs + polish, all resolved with consistent
    // bookkeeping even though every evaluation was skipped.
    ASSERT_EQ(result.stats.rungs.size(), 4u);
    EXPECT_EQ(result.stats.rungs[0].entered,
              static_cast<int>(result.records.size()));
    for (const dse::DseRungStats &rs : result.stats.rungs)
        EXPECT_GE(rs.entered, 0);
    EXPECT_EQ(result.bestIndex, -1);
    for (const dse::DseRecord &rec : result.records)
        EXPECT_FALSE(rec.feasible);
}

TEST(Cancellation, MidRunCancelKeepsCompletedEvaluations)
{
    // Cancel after the screen resolves: screened objectives survive into
    // the partial result, the ledger closes, and the run reports
    // cancelled. The stop fires from the progress callback, which makes
    // the cut point deterministic.
    ExperimentSpec spec = tinyDseSpec();
    spec.schedule.enabled = true;
    spec.schedule.rungs = 1;
    spec.mapping.sa.iterations = 200;

    const auto resolved = resolveExperiment(spec, nullptr);
    ASSERT_TRUE(resolved.has_value());
    common::StopSource source;

    dse::DseOptions options;
    options.axes = spec.axes;
    options.schedule = spec.schedule;
    options.models = {&resolved->models[0]};
    options.mapping = spec.mapping;
    options.threads = 2;
    options.stop = source.token();
    options.progress = [&](const dse::DseProgressEvent &e) {
        if (e.kind == dse::DseProgressEvent::Kind::RungFinished &&
            e.rung == "screen")
            source.requestStop();
    };

    const dse::DseResult result = dse::runDse(options);
    EXPECT_TRUE(result.stats.cancelled);
    ASSERT_EQ(result.stats.rungs.size(), 3u); // screen, race1, polish
    // The screen completed for everyone (entered == records) and its
    // best objective is real.
    EXPECT_EQ(result.stats.rungs[0].entered,
              static_cast<int>(result.records.size()));
    EXPECT_TRUE(std::isfinite(result.stats.rungs[0].bestObjective));
    int evaluated = 0;
    for (const dse::DseRecord &rec : result.records) {
        if (rec.feasible && std::isfinite(rec.objective)) {
            ++evaluated;
            EXPECT_GE(rec.rungReached, 0);
        }
    }
    EXPECT_GT(evaluated, 0);
}

TEST(Cancellation, ServiceCancelYieldsWellFormedResult)
{
    ExperimentSpec spec = tinyDseSpec();
    spec.schedule.enabled = true;
    spec.schedule.rungs = 1;
    spec.mapping.sa.iterations = 400;

    ExplorationService service(2);
    JobHandle job = service.submit(spec);
    job.cancel();
    const ExperimentResult &result = job.wait();
    ASSERT_FALSE(result.failed()) << result.error;

    // The cancel races job startup, so the run may have finished — but
    // the result is well-formed either way, and a cancelled run is never
    // cached.
    if (result.cancelled) {
        EXPECT_EQ(job.state(), JobState::Cancelled);
        EXPECT_EQ(service.cacheSize(), 0u);
        EXPECT_FALSE(result.dse.stats.rungs.empty());
    } else {
        EXPECT_EQ(job.state(), JobState::Done);
        EXPECT_EQ(service.cacheSize(), 1u);
    }
    EXPECT_GT(result.dse.records.size(), 3u); // structurally complete
}

// ------------------------------------------------------------ progress --

/** Flatten an event for sequence comparison. */
std::string
eventKey(const ProgressEvent &e)
{
    return (e.kind == ProgressEvent::Kind::RungEntered ? "enter:"
                                                       : "finish:") +
           e.rung + ":" + std::to_string(e.entered) + ":" +
           std::to_string(e.advanced) + ":" + std::to_string(e.prunedBound) +
           ":" + std::to_string(e.prunedRank) + ":" +
           std::to_string(e.bestObjective);
}

std::vector<std::string>
collectEvents(const ExperimentSpec &spec, int threads)
{
    std::mutex mu;
    std::vector<std::string> events;
    ExplorationService service(threads);
    JobHandle job = service.submit(spec, [&](const ProgressEvent &e) {
        std::lock_guard lock(mu);
        events.push_back(eventKey(e));
    });
    const ExperimentResult &result = job.wait();
    EXPECT_FALSE(result.failed()) << result.error;
    return events;
}

TEST(Progress, EventSequenceIsDeterministic)
{
    ExperimentSpec spec = tinyDseSpec();
    spec.schedule.enabled = true;
    spec.schedule.rungs = 1;

    const std::vector<std::string> run1 = collectEvents(spec, 2);
    const std::vector<std::string> run2 = collectEvents(spec, 2);
    // Identical sequence — kinds, rungs, counts and objectives — at a
    // fixed thread count...
    EXPECT_EQ(run1, run2);
    // ...and, because keep-decisions are schedule-order-free, across
    // thread counts too.
    EXPECT_EQ(run1, collectEvents(spec, 4));

    // The shape is the documented enter/finish ladder.
    ASSERT_EQ(run1.size(), 6u); // 3 rungs x (entered + finished)
    EXPECT_EQ(run1.front().rfind("enter:screen", 0), 0u);
    EXPECT_EQ(run1.back().rfind("finish:polish", 0), 0u);
}

TEST(Progress, FlatDriverEmitsExhaustivePair)
{
    ExperimentSpec spec = tinyDseSpec(); // schedule disabled
    const std::vector<std::string> events = collectEvents(spec, 2);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].rfind("enter:exhaustive", 0), 0u);
    EXPECT_EQ(events[1].rfind("finish:exhaustive", 0), 0u);
}

} // namespace
} // namespace gemini::api
