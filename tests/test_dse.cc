/**
 * @file
 * Unit tests for the DSE driver: candidate enumeration against Table I,
 * core-grid selection, objective computation, subsampling, threading, and
 * the chiplet-reuse scaling of Sec. VII-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>

#include "src/api/results.hh"
#include "src/arch/presets.hh"
#include "src/common/fault_injection.hh"
#include "src/common/thread_pool.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/candidates.hh"
#include "src/dse/dse.hh"
#include "src/dse/joint_reuse.hh"
#include "src/dse/records.hh"
#include "src/mapping/analyzer.hh"
#include "src/noc/interconnect.hh"

namespace gemini::dse {
namespace {

TEST(CoreGrid, PaperArrangements)
{
    int x = 0, y = 0;
    // 72 TOPs / 1024 MACs -> 36 cores as 6x6 (the paper's example).
    chooseCoreGrid(72.0, 1024, {1, 2, 3, 6}, {1, 2, 3, 6}, x, y);
    EXPECT_EQ(x * y, 36);
    EXPECT_EQ(x, 6);
    EXPECT_EQ(y, 6);
    // 72 TOPs / 2048 -> 18 cores as 6x3.
    chooseCoreGrid(72.0, 2048, {1, 2, 3, 6}, {1, 2, 3, 6}, x, y);
    EXPECT_EQ(x * y, 18);
    EXPECT_EQ(std::max(x, y), 6);
    EXPECT_EQ(std::min(x, y), 3);
    // 128 TOPs / 1024 -> 64 cores (8x8).
    chooseCoreGrid(128.0, 1024, {1, 2, 4, 8}, {1, 2, 4, 8}, x, y);
    EXPECT_EQ(x * y, 64);
    // 512 TOPs / 1024 -> 256 cores (16x16).
    chooseCoreGrid(512.0, 1024, {1, 2, 4, 8}, {1, 2, 4, 8}, x, y);
    EXPECT_EQ(x * y, 256);
}

TEST(CoreGrid, TopsWithinTolerance)
{
    for (int macs : {512, 1024, 2048, 4096, 8192}) {
        int x = 0, y = 0;
        chooseCoreGrid(128.0, macs, {1, 2, 4, 8}, {1, 2, 4, 8}, x, y);
        const double tops = 2.0 * x * y * macs / 1000.0;
        EXPECT_NEAR(tops, 128.0, 128.0 * 0.16) << macs;
    }
}

TEST(Candidates, AllValidAndDistinct)
{
    DseAxes axes = DseAxes::paper72();
    // Shrink the axes for test speed but keep every dimension active.
    axes.nocGBps = {16, 32};
    axes.glbKiB = {512, 2048};
    axes.macsPerCore = {1024, 2048};
    const auto cands = enumerateCandidates(axes);
    EXPECT_GT(cands.size(), 50u);
    // toString() collapses (XCut, YCut) into a chiplet count, so build the
    // uniqueness key from the full geometry.
    std::set<std::string> seen;
    for (const auto &c : cands) {
        EXPECT_EQ(c.validate(), "");
        EXPECT_NEAR(c.tops(), 72.0, 72.0 * 0.16);
        seen.insert(c.toString() + "x" + std::to_string(c.xCut) + "y" +
                    std::to_string(c.yCut));
    }
    EXPECT_EQ(seen.size(), cands.size()); // no duplicates
}

TEST(Candidates, InvalidCutsAreDropped)
{
    DseAxes axes = DseAxes::paper72();
    axes.nocGBps = {32};
    axes.glbKiB = {1024};
    axes.macsPerCore = {2048}; // 18 cores -> 6x3 grid
    const auto cands = enumerateCandidates(axes);
    for (const auto &c : cands) {
        EXPECT_EQ(c.xCores % c.xCut, 0);
        EXPECT_EQ(c.yCores % c.yCut, 0);
        // YCut 6 cannot divide the 3-row dimension.
        EXPECT_NE(c.yCut, 6);
    }
}

TEST(Candidates, MonolithicSkipsD2dVariants)
{
    DseAxes axes = DseAxes::paper72();
    axes.nocGBps = {32};
    axes.glbKiB = {1024};
    axes.macsPerCore = {1024};
    axes.dramGBpsPerTops = {1.0};
    const auto cands = enumerateCandidates(axes);
    int monolithic = 0;
    for (const auto &c : cands)
        monolithic += (c.chipletCount() == 1);
    // Exactly one monolithic candidate (not one per D2D ratio).
    EXPECT_EQ(monolithic, 1);
}

class DseRunTest : public ::testing::Test
{
  protected:
    DseRunTest() : model_(dnn::zoo::tinyConvChain(3))
    {
        axes_.topsTarget = 1.0; // tiny: 2 cores x 256 MACs
        axes_.xCuts = {1, 2};
        axes_.yCuts = {1};
        axes_.dramGBpsPerTops = {2.0};
        axes_.nocGBps = {16, 32};
        axes_.d2dRatio = {0.5};
        axes_.glbKiB = {256, 512};
        axes_.macsPerCore = {256};

        options_.axes = axes_;
        options_.models = {&model_};
        options_.mapping.batch = 2;
        options_.mapping.sa.iterations = 60;
        options_.mapping.maxGroupLayers = 4;
        options_.threads = 2;
    }

    dnn::Graph model_;
    DseAxes axes_;
    DseOptions options_;
};

TEST_F(DseRunTest, EvaluatesAllCandidatesAndPicksBest)
{
    const DseResult r = runDse(options_);
    EXPECT_GT(r.records.size(), 3u);
    const DseRecord &best = r.best();
    for (const auto &rec : r.records) {
        EXPECT_GT(rec.mc.total(), 0.0);
        EXPECT_GT(rec.delayGeo, 0.0);
        EXPECT_GT(rec.energyGeo, 0.0);
        if (rec.feasible)
            EXPECT_LE(best.objective, rec.objective);
    }
}

TEST_F(DseRunTest, ObjectiveExponentsChangeWinner)
{
    const DseResult r = runDse(options_);
    // MC-only and D-only objectives must both be answerable.
    const int mc_best = r.bestUnder(1.0, 0.0, 0.0);
    const int d_best = r.bestUnder(0.0, 0.0, 1.0);
    ASSERT_GE(mc_best, 0);
    ASSERT_GE(d_best, 0);
    const auto &mc_rec = r.records[static_cast<std::size_t>(mc_best)];
    for (const auto &rec : r.records) {
        if (rec.feasible)
            EXPECT_LE(mc_rec.mc.total(), rec.mc.total() * 1.0001);
    }
}

TEST_F(DseRunTest, SubsamplingBoundsWork)
{
    options_.maxCandidates = 3;
    const DseResult r = runDse(options_);
    EXPECT_EQ(r.records.size(), 3u);
}

TEST_F(DseRunTest, GeometricMeanOverTwoModels)
{
    const dnn::Graph second = dnn::zoo::tinyResidual();
    options_.models = {&model_, &second};
    options_.maxCandidates = 2;
    const DseResult r = runDse(options_);
    for (const auto &rec : r.records) {
        ASSERT_EQ(rec.perModel.size(), 2u);
        const double geo = std::sqrt(rec.perModel[0].delay *
                                     rec.perModel[1].delay);
        EXPECT_NEAR(rec.delayGeo, geo, geo * 1e-9);
    }
}

TEST_F(DseRunTest, RecordsCsvExport)
{
    options_.maxCandidates = 4;
    const dse::DseResult r = runDse(options_);
    const CsvTable table = recordsTable(r);
    EXPECT_EQ(table.rowCount(), r.records.size());
    const std::string text = table.toString();
    // Header columns and the winner flag are present.
    EXPECT_NE(text.find("objective"), std::string::npos);
    EXPECT_NE(text.find("best"), std::string::npos);
    const std::string path = "/tmp/gemini_dse_records_test.csv";
    EXPECT_TRUE(r.writeCsv(path));
}

// --------------------------------------------------------- scheduler ---

class SchedulerTest : public DseRunTest
{
  protected:
    SchedulerTest()
    {
        options_.schedule.enabled = true;
        options_.schedule.rungs = 2;
        options_.schedule.keepFraction = 0.5;
        options_.schedule.baseIters = 16;
        options_.schedule.minKeep = 2;
    }
};

TEST_F(SchedulerTest, DeterministicAcrossRunsAndThreadCounts)
{
    options_.threads = 1;
    const DseResult serial = runDse(options_);
    options_.threads = 3;
    const DseResult parallel1 = runDse(options_);
    const DseResult parallel2 = runDse(options_);

    ASSERT_EQ(serial.records.size(), parallel1.records.size());
    EXPECT_EQ(serial.bestIndex, parallel1.bestIndex);
    EXPECT_EQ(parallel1.bestIndex, parallel2.bestIndex);
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.records[i].objective,
                         parallel1.records[i].objective);
        EXPECT_DOUBLE_EQ(parallel1.records[i].objective,
                         parallel2.records[i].objective);
        EXPECT_EQ(serial.records[i].rungReached,
                  parallel1.records[i].rungReached);
        EXPECT_EQ(serial.records[i].prunedByBound,
                  parallel1.records[i].prunedByBound);
        EXPECT_EQ(serial.records[i].saIters, parallel1.records[i].saIters);
    }
    ASSERT_EQ(serial.stats.rungs.size(), parallel1.stats.rungs.size());
    for (std::size_t r = 0; r < serial.stats.rungs.size(); ++r) {
        EXPECT_EQ(serial.stats.rungs[r].entered,
                  parallel1.stats.rungs[r].entered);
        EXPECT_EQ(serial.stats.rungs[r].advanced,
                  parallel1.stats.rungs[r].advanced);
        EXPECT_EQ(serial.stats.rungs[r].prunedBound,
                  parallel1.stats.rungs[r].prunedBound);
        EXPECT_EQ(serial.stats.rungs[r].prunedRank,
                  parallel1.stats.rungs[r].prunedRank);
    }
}

TEST_F(SchedulerTest, BitIdenticalAcrossThreadCountsAndAnExternalPool)
{
    // Two models, so every rung runs its per-model engine loop, and two
    // polish chains, so the polish rung splits its budget.
    const dnn::Graph second = dnn::zoo::tinyResidual();
    options_.models = {&model_, &second};
    options_.schedule.polishChains = 2;
    const auto untimed = [](DseResult r) {
        for (DseRecord &rec : r.records)
            rec.evalSeconds = 0.0;
        for (DseRungStats &rs : r.stats.rungs)
            rs.cpuSeconds = 0.0;
        return api::writeJson(r).dump();
    };

    options_.threads = 1;
    const DseResult ref = runDse(options_);
    ASSERT_GE(ref.bestIndex, 0);
    ASSERT_EQ(ref.stats.rungs.size(), 4u);
    EXPECT_GE(ref.stats.rungs.back().entered, 2) << "polish must run";

    options_.threads = 4;
    EXPECT_EQ(untimed(runDse(options_)), untimed(ref));

    ThreadPool pool(3);
    options_.pool = &pool;
    EXPECT_EQ(untimed(runDse(options_)), untimed(ref));
}

TEST_F(SchedulerTest, MatchesExhaustiveWinnerWithAndWithoutPruning)
{
    DseOptions flat = options_;
    flat.schedule.enabled = false;
    const DseResult full = runDse(flat);

    const DseResult pruned = runDse(options_);
    options_.schedule.lowerBoundPrune = false;
    const DseResult unpruned = runDse(options_);

    ASSERT_GE(full.bestIndex, 0);
    ASSERT_GE(pruned.bestIndex, 0);
    ASSERT_GE(unpruned.bestIndex, 0);
    // The scheduler's winner matches the exhaustive full-budget winner on
    // these small deterministic axes, and its polished objective is within
    // tolerance of (or better than) the exhaustive one.
    EXPECT_EQ(pruned.best().arch.toString(), full.best().arch.toString());
    EXPECT_LE(pruned.best().objective, full.best().objective * 1.05);
    EXPECT_LE(unpruned.best().objective, full.best().objective * 1.05);
    // Pruning only removes candidates that cannot win, so it must not
    // change the winner found by the unpruned schedule.
    EXPECT_EQ(pruned.best().arch.toString(),
              unpruned.best().arch.toString());
    EXPECT_NEAR(pruned.best().objective, unpruned.best().objective,
                0.05 * unpruned.best().objective);
}

TEST_F(SchedulerTest, RungLadderAccounting)
{
    const DseResult r = runDse(options_);
    ASSERT_TRUE(r.stats.scheduled);
    // screen + `rungs` race rounds + polish.
    ASSERT_EQ(r.stats.rungs.size(),
              static_cast<std::size_t>(options_.schedule.rungs) + 2);
    EXPECT_EQ(r.stats.rungs.front().name, "screen");
    EXPECT_EQ(r.stats.rungs.back().name, "polish");
    EXPECT_EQ(r.stats.rungs.front().entered,
              static_cast<int>(r.records.size()));
    for (std::size_t i = 0; i + 1 < r.stats.rungs.size(); ++i) {
        const DseRungStats &rs = r.stats.rungs[i];
        EXPECT_EQ(rs.advanced, r.stats.rungs[i + 1].entered);
        EXPECT_EQ(rs.entered - rs.advanced, rs.prunedBound + rs.prunedRank);
    }
    // Race budgets double round over round.
    EXPECT_EQ(r.stats.rungs[1].saIters, options_.schedule.baseIters);
    EXPECT_EQ(r.stats.rungs[2].saIters, 2 * options_.schedule.baseIters);
    EXPECT_GT(r.stats.cpuSeconds(), 0.0);
    // The winner must be a polished finalist.
    EXPECT_EQ(r.best().rungReached, options_.schedule.rungs + 1);
}

TEST_F(SchedulerTest, RunSaDisabledFallsBackToFlatDriver)
{
    // The race/polish rungs are SA runs; without SA the schedule is
    // bypassed and the flat stripe-only driver is honored.
    options_.mapping.runSa = false;
    const DseResult r = runDse(options_);
    ASSERT_FALSE(r.stats.scheduled);
    ASSERT_EQ(r.stats.rungs.size(), 1u);
    EXPECT_EQ(r.stats.rungs.front().name, "exhaustive");
    EXPECT_EQ(r.stats.rungs.front().saIters, 0);
    for (const auto &rec : r.records) {
        EXPECT_EQ(rec.rungReached, -1);
        EXPECT_EQ(rec.saIters, 0);
    }
}

TEST_F(SchedulerTest, CohortSmallerThanMinKeepIsHandled)
{
    // Two candidates with the default-sized minKeep floor: every race
    // cohort is smaller than minKeep, which must keep the whole cohort
    // rather than read past it.
    options_.axes.nocGBps = {32};
    options_.axes.glbKiB = {256, 512};
    options_.axes.xCuts = {1};
    options_.schedule.minKeep = 4;
    const DseResult r = runDse(options_);
    ASSERT_EQ(r.records.size(), 2u);
    ASSERT_GE(r.bestIndex, 0);
    for (std::size_t i = 0; i + 1 < r.stats.rungs.size(); ++i) {
        const DseRungStats &rs = r.stats.rungs[i];
        EXPECT_LE(rs.advanced, rs.entered);
        EXPECT_EQ(rs.entered - rs.advanced, rs.prunedBound + rs.prunedRank);
    }
    EXPECT_EQ(r.best().rungReached, options_.schedule.rungs + 1);
}

TEST_F(SchedulerTest, LowerBoundIsSoundOnEveryEvaluatedCandidate)
{
    DseOptions flat = options_;
    flat.schedule.enabled = false;
    const DseResult full = runDse(flat);
    for (const auto &rec : full.records) {
        if (!rec.feasible)
            continue;
        // No achievable mapping may score below the bound.
        EXPECT_LE(rec.objectiveLowerBound, rec.objective * (1.0 + 1e-9))
            << rec.arch.toString();
        // The kBoundSlack headroom must never be load-bearing: no
        // achieved objective may land inside [bound, bound / kBoundSlack)
        // — that band existing non-empty would mean the *unslacked*
        // analytical floor exceeded a real mapping's score.
        EXPECT_GE(rec.objective * cost::kBoundSlack,
                  rec.objectiveLowerBound * (1.0 - 1e-12))
            << rec.arch.toString();
    }
}

// ------------------------------------------------------ cohort screen ---

/**
 * A scheduled DSE whose screen groups its candidates into fragment
 * cohorts of several members: mesh cuts and NoC bandwidths join, NoP cuts
 * and GLB sizes split.
 */
class CohortScreen : public ::testing::Test
{
  protected:
    CohortScreen()
        : first_(dnn::zoo::tinyConvChain(3)),
          second_(dnn::zoo::tinyResidual())
    {
        options_.axes.topsTarget = 2.0; // 4 cores x 256 MACs
        options_.axes.xCuts = {1, 2};
        options_.axes.yCuts = {1, 2};
        options_.axes.dramGBpsPerTops = {2.0};
        options_.axes.nocGBps = {16, 32};
        options_.axes.d2dRatio = {0.5};
        options_.axes.glbKiB = {256, 512};
        options_.axes.macsPerCore = {256};
        options_.axes.topologies = {arch::Topology::Mesh,
                                    arch::Topology::HierarchicalNop};
        options_.models = {&first_, &second_};
        options_.mapping.batch = 2;
        options_.mapping.sa.iterations = 40;
        options_.mapping.maxGroupLayers = 4;
        options_.mapping.analyticSeed = true;
        options_.schedule.enabled = true;
        options_.schedule.rungs = 1;
        options_.schedule.baseIters = 16;
        options_.schedule.minKeep = 2;
    }

    /** Every rung resolved and every record is evaluated or skipped. */
    static void
    expectResolved(const DseResult &r)
    {
        ASSERT_EQ(r.stats.rungs.size(), 3u); // screen, race1, polish
        EXPECT_EQ(r.stats.rungs[0].entered,
                  static_cast<int>(r.records.size()));
        for (std::size_t i = 0; i + 1 < r.stats.rungs.size(); ++i) {
            const DseRungStats &rs = r.stats.rungs[i];
            EXPECT_EQ(rs.entered - rs.advanced,
                      rs.prunedBound + rs.prunedRank);
            EXPECT_EQ(r.stats.rungs[i + 1].entered, rs.advanced);
        }
        for (const DseRecord &rec : r.records) {
            if (rec.rungReached < 0) {
                EXPECT_FALSE(rec.feasible);
                EXPECT_TRUE(std::isinf(rec.objective));
            } else {
                EXPECT_EQ(rec.perModel.size(), 2u);
                EXPECT_TRUE(!rec.feasible || std::isfinite(rec.objective));
            }
        }
        if (r.bestIndex >= 0)
            EXPECT_TRUE(r.best().feasible);
    }

    dnn::Graph first_;
    dnn::Graph second_;
    DseOptions options_;
};

TEST_F(CohortScreen, LentRoutingModelKeepsEveryVerdict)
{
    // The screen builds one interconnect per tuple of routing fields and
    // lends it to every candidate with that tuple (bandwidths and GLB
    // may differ): the verdict must equal the one from each candidate's
    // own model, for every pair.
    const std::vector<arch::ArchConfig> cands =
        enumerateCandidates(options_.axes);
    std::vector<noc::InterconnectModel> own;
    std::vector<std::size_t> lender(cands.size());
    const auto routing = [](const arch::ArchConfig &a) {
        return std::tuple(a.topology, a.xCores, a.yCores, a.xCut, a.yCut,
                          a.dramCount);
    };
    std::size_t lent = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        own.emplace_back(cands[i]);
        lender[i] = i;
        for (std::size_t j = 0; j < i && lender[i] == i; ++j)
            if (routing(cands[j]) == routing(cands[i]))
                lender[i] = j;
        lent += lender[i] != i ? 1 : 0;
    }
    EXPECT_GT(lent, 0u);
    std::size_t identical = 0, distinct = 0;
    for (std::size_t i = 0; i < cands.size(); ++i)
        for (std::size_t j = 0; j < cands.size(); ++j) {
            const bool want = mapping::fragmentIdentical(own[i], own[j]);
            EXPECT_EQ(mapping::fragmentIdentical(cands[i], own[lender[i]],
                                                 cands[j], own[lender[j]]),
                      want)
                << i << " vs " << j;
            (want ? identical : distinct) += i != j ? 1 : 0;
        }
    EXPECT_GT(identical, 0u);
    EXPECT_GT(distinct, 0u);
}

TEST_F(CohortScreen, ResultIsThreadAndPoolInvariant)
{
    // The screen really forms multi-member cohorts here.
    const std::vector<arch::ArchConfig> cands =
        enumerateCandidates(options_.axes);
    std::vector<std::vector<arch::ArchConfig>> cohorts;
    for (const arch::ArchConfig &c : cands) {
        auto it = std::find_if(cohorts.begin(), cohorts.end(),
                               [&](const auto &co) {
                                   return mapping::fragmentIdentical(
                                       noc::InterconnectModel(co.front()),
                                       noc::InterconnectModel(c));
                               });
        if (it == cohorts.end())
            cohorts.push_back({c});
        else
            it->push_back(c);
    }
    std::size_t largest = 0;
    for (const auto &co : cohorts)
        largest = std::max(largest, co.size());
    EXPECT_GE(largest, 4u);
    EXPECT_LT(2 * cohorts.size(), cands.size());

    const auto untimed = [](DseResult r) {
        for (DseRecord &rec : r.records)
            rec.evalSeconds = 0.0;
        for (DseRungStats &rs : r.stats.rungs)
            rs.cpuSeconds = 0.0;
        return api::writeJson(r).dump();
    };
    // One thread runs whole cohorts; four split the largest ones.
    options_.threads = 1;
    const DseResult ref = runDse(options_);
    ASSERT_GE(ref.bestIndex, 0);
    expectResolved(ref);
    options_.threads = 4;
    EXPECT_EQ(untimed(runDse(options_)), untimed(ref));
    ThreadPool pool(3);
    options_.pool = &pool;
    EXPECT_EQ(untimed(runDse(options_)), untimed(ref));

    // Without SA the ladder is one exhaustive rung, also screened in
    // cohorts: every record equals its candidate evaluated on its own.
    options_.mapping.runSa = false;
    const DseResult flat = runDse(options_);
    ASSERT_EQ(flat.records.size(), cands.size());
    for (const DseRecord &rec : flat.records) {
        const DseRecord alone = evaluateCandidate(rec.arch, options_);
        ASSERT_EQ(alone.perModel.size(), rec.perModel.size());
        for (std::size_t m = 0; m < rec.perModel.size(); ++m) {
            EXPECT_EQ(alone.perModel[m].delay, rec.perModel[m].delay);
            EXPECT_EQ(alone.perModel[m].totalEnergy(),
                      rec.perModel[m].totalEnergy());
        }
        EXPECT_EQ(alone.objective, rec.objective);
    }
}

TEST_F(CohortScreen, StoppedRunsResolveEveryRung)
{
    options_.threads = 1;
    {
        // Stopped before the first cohort task starts.
        common::StopSource source;
        source.requestStop();
        options_.stop = source.token();
        const DseResult r = runDse(options_);
        EXPECT_TRUE(r.stats.cancelled);
        expectResolved(r);
        EXPECT_EQ(r.bestIndex, -1);
        options_.stop = {};
    }
    {
        // Stopped mid-screen: the second cohort task observes the
        // (injected) deadline, so one cohort is screened and the rest
        // are skipped.
        options_.deadlineSeconds = 3600.0;
        common::fault::configure("deadline=2");
        const DseResult r = runDse(options_);
        common::fault::reset();
        EXPECT_TRUE(r.stats.truncated);
        expectResolved(r);
        int screened = 0;
        for (const DseRecord &rec : r.records)
            screened += rec.rungReached >= 0;
        EXPECT_GE(screened, 2) << "a whole cohort is screened";
        EXPECT_LT(screened, static_cast<int>(r.records.size()));
    }
}

TEST(DseObjective, BestUnderSkipsNonFiniteObjectives)
{
    DseResult r;
    DseRecord good;
    good.feasible = true;
    good.mc.dram = 10.0;
    good.delayGeo = 1.0;
    good.energyGeo = 1.0;
    DseRecord poisoned; // a degenerate eval: zero geomeans, inf objective
    poisoned.feasible = true;
    poisoned.mc.dram = 1.0;
    poisoned.delayGeo = 0.0;
    poisoned.energyGeo =
        std::numeric_limits<double>::infinity();
    DseRecord infeasible = good;
    infeasible.feasible = false;
    infeasible.mc.dram = 0.1;
    r.records = {poisoned, good, infeasible};
    EXPECT_EQ(r.bestUnder(1.0, 1.0, 1.0), 1);
}

TEST_F(SchedulerTest, CsvExportCarriesRungColumns)
{
    const DseResult r = runDse(options_);
    const CsvTable records = recordsTable(r);
    EXPECT_EQ(records.rowCount(), r.records.size());
    const std::string text = records.toString();
    EXPECT_NE(text.find("rung"), std::string::npos);
    EXPECT_NE(text.find("obj_lower_bound"), std::string::npos);
    EXPECT_NE(text.find("norm_edp"), std::string::npos);
    const std::string stats_text = rungStatsTable(r.stats).toString();
    EXPECT_NE(stats_text.find("screen"), std::string::npos);
    EXPECT_NE(stats_text.find("polish"), std::string::npos);
    EXPECT_TRUE(r.writeCsv("/tmp/gemini_dse_sched_records.csv",
                           "/tmp/gemini_dse_sched_rungs.csv"));
}

// ------------------------------------------------------------- reuse ---

TEST(Dse, MultiChainSaSharesThreadBudget)
{
    // SA chains inside the mapping engine and the candidate-level pool
    // must split one budget; the run stays deterministic and no worse
    // than single-chain per candidate.
    dnn::Graph model = dnn::zoo::tinyConvChain(2);
    DseAxes axes;
    axes.topsTarget = 1.0;
    axes.xCuts = {1, 2};
    axes.yCuts = {1};
    axes.dramGBpsPerTops = {2.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {512};
    axes.macsPerCore = {256};

    DseOptions opt;
    opt.models = {&model};
    opt.mapping.batch = 2;
    opt.mapping.sa.iterations = 40;
    opt.mapping.sa.chains = 2;
    opt.threads = 2;
    opt.maxCandidates = 4;

    const DseResult r1 = runDse(opt);
    const DseResult r2 = runDse(opt);
    ASSERT_FALSE(r1.records.empty());
    ASSERT_EQ(r1.records.size(), r2.records.size());
    EXPECT_EQ(r1.bestIndex, r2.bestIndex);
    for (std::size_t i = 0; i < r1.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.records[i].objective, r2.records[i].objective);
        EXPECT_EQ(r1.records[i].perModel.size(), 1u);
    }
}

TEST(JointReuse, ScalePreservesChipletDesign)
{
    const arch::ArchConfig base = arch::gArch72(); // 2 chiplets, 72 TOPs
    const arch::ArchConfig big = scaleArchToTops(base, 288.0);
    EXPECT_EQ(big.chipletCoresX(), base.chipletCoresX());
    EXPECT_EQ(big.chipletCoresY(), base.chipletCoresY());
    EXPECT_EQ(big.macsPerCore, base.macsPerCore);
    EXPECT_EQ(big.glbKiB, base.glbKiB);
    EXPECT_NEAR(big.tops(), 288.0, 288.0 * 0.15);
    // DRAM GB/s per TOPs preserved.
    EXPECT_NEAR(big.dramBwGBps / big.tops(),
                base.dramBwGBps / base.tops(), 1e-9);
}

TEST(JointReuse, ScaleDownToSingleChiplet)
{
    const arch::ArchConfig base = arch::gArch72();
    const arch::ArchConfig half = scaleArchToTops(base, 36.0);
    EXPECT_EQ(half.chipletCount(), 1);
    EXPECT_TRUE(half.validate().empty());
}

TEST(JointReuse, JointDseRanksByProduct)
{
    dnn::Graph model = dnn::zoo::tinyConvChain(2);
    DseAxes axes;
    axes.topsTarget = 1.0;
    axes.xCuts = {1, 2};
    axes.yCuts = {1};
    axes.dramGBpsPerTops = {2.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {512};
    axes.macsPerCore = {256};

    DseOptions opt;
    opt.models = {&model};
    opt.mapping.batch = 2;
    opt.mapping.sa.iterations = 40;
    opt.threads = 2;

    const auto cands = runJointDse(axes, {1.0, 2.0}, opt);
    ASSERT_GE(cands.size(), 2u);
    for (std::size_t i = 1; i < cands.size(); ++i) {
        if (cands[i - 1].feasible == cands[i].feasible)
            EXPECT_LE(cands[i - 1].objectiveProduct,
                      cands[i].objectiveProduct);
        ASSERT_EQ(cands[i].levels.size(), 2u);
    }
}

} // namespace
} // namespace gemini::dse
