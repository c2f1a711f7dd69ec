/**
 * @file
 * The Mapping Engine facade (Fig. 4 right half): model parsing is done by
 * dnn::Graph construction; this class chains the DP graph partitioner, the
 * stripe initial solution, the SA-based LP SPM exploration and the
 * evaluator, and reports energy/delay with full breakdowns. T-Map (the
 * Tangram baseline) is the same pipeline with the SA stage disabled.
 */

#ifndef GEMINI_MAPPING_ENGINE_HH
#define GEMINI_MAPPING_ENGINE_HH

#include <memory>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/arch/tech_params.hh"
#include "src/common/stop_token.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/graph.hh"
#include "src/eval/breakdown.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/graph_partition.hh"
#include "src/mapping/sa.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {

/** All knobs of one mapping run. */
struct MappingOptions
{
    std::int64_t batch = 64;

    /** Objective exponents (E^beta * D^gamma, Sec. V-A). */
    double beta = 1.0;
    double gamma = 1.0;

    /** false = stripe heuristic only (the T-Map baseline). */
    bool runSa = true;

    SaOptions sa;

    /**
     * Worker threads for SA chains (sa.chains). 0 or 1 = serial chains;
     * >= 2 runs chains over a pool of that size. The DSE driver pins it
     * to 1: its thread budget goes to candidate tasks, so the two levels
     * never oversubscribe the machine.
     */
    int saThreads = 0;

    /**
     * Entry bound of each of the analyzer's two fragment caches, tile and
     * flow (0 disables both). Every SA chain gets its own caches of this
     * size. Eviction never changes a result, only how often a fragment
     * is recomputed.
     */
    std::size_t analyzerCacheEntries = 2048;

    /**
     * Delta-evaluate SA proposals against resident per-group states
     * (O(changed layers) per move instead of O(group size); see
     * Analyzer::evaluateGroup). Bit-identical to the full-merge path;
     * off restores the full re-merge per proposal, kept so benchmarks
     * can measure the pre-delta engine in the same binary.
     */
    bool deltaEval = true;

    /** DP partitioner knobs. */
    int maxGroupLayers = 12;
    std::vector<std::int64_t> batchUnits; // empty = auto

    /**
     * Derive a closed-form analytical initial solution per layer group
     * (mapping::analyticSeed) and start SA from whichever of stripe /
     * analytic scores better per group. Off by default so existing runs
     * stay bit-identical; the DSE scheduler and benches enable it. The
     * comparison is per group (group contributions are additive in the
     * E and D sums), so the seed is never worse than plain stripe.
     */
    bool analyticSeed = false;

    arch::TechParams tech;

    /**
     * Cooperative cancellation, checked at *chain* granularity only (the
     * SA inner loop stays hook-free — a hard perf requirement). A run
     * observing the stop skips unstarted chains; whatever already ran is
     * kept, and with every chain skipped the result degrades to an
     * evaluation of the start mapping — always a valid MappingResult.
     * Default-constructed = never cancelled.
     */
    common::StopToken stop;
};

/** Outcome of a mapping run. */
struct MappingResult
{
    LpMapping mapping;
    std::vector<eval::EvalBreakdown> groups;
    eval::EvalBreakdown total;
    SaStats saStats; ///< zeros when runSa was false

    /**
     * True when MappingOptions::analyticSeed replaced at least one
     * group's stripe scheme with the closed-form analytical seed.
     */
    bool seededAnalytic = false;

    Seconds delay() const { return total.delay; }
    Joules energy() const { return total.totalEnergy(); }
};

/**
 * One engine per (graph, arch) pair. Reusable across runs; the intra-core
 * memoization cache persists, so mapping the same network repeatedly gets
 * cheaper. The DSE instead builds one throwaway engine per (candidate,
 * model) evaluation, which keeps its memory flat in the candidate count.
 * Not thread-safe — DSE tasks each construct their own engine.
 */
class MappingEngine
{
  public:
    MappingEngine(const dnn::Graph &graph, const arch::ArchConfig &arch,
                  MappingOptions options = {});

    /**
     * An engine whose tile searches go through `explorer`, which must
     * describe this architecture's core (MACs, GLB, frequency and tech)
     * and outlive the engine. Engines of one cohort share one explorer.
     */
    MappingEngine(const dnn::Graph &graph, const arch::ArchConfig &arch,
                  MappingOptions options, intracore::Explorer &explorer);

    /** Partition, build the initial LMS, optionally run SA, evaluate. */
    MappingResult run();

    /**
     * run() for every architecture of a cohort of fragment-identical ones
     * (see fragmentIdentical), mapping `graph` with `options` and tile
     * searches through `explorer`. The segment tables are built together
     * (see buildSegmentTables), through the first architecture's engine;
     * then each architecture's own engine runs the DP, seeds, optimizes
     * and evaluates, built and destroyed in turn, so one engine is alive
     * at a time. Result k is bit-identical to the run() of an engine on
     * cohort[k].
     */
    static std::vector<MappingResult>
    runCohort(const dnn::Graph &graph,
              const std::vector<arch::ArchConfig> &cohort,
              const MappingOptions &options, intracore::Explorer &explorer);

    /**
     * Resume optimization from a caller-supplied mapping instead of the
     * partitioner's initial LMS: the SA walk starts at `start` and the
     * returned mapping is never worse than it (the best-of-walk always
     * includes the initial state). With runSa disabled this degenerates to
     * evaluateMapping. The multi-fidelity DSE scheduler uses this to
     * warm-start each fidelity rung from the previous rung's best mapping.
     */
    MappingResult runFrom(const LpMapping &start);

    /** Evaluate a caller-supplied mapping without optimizing it. */
    MappingResult evaluateMapping(const LpMapping &mapping) const;

    /**
     * Re-analyze one group of a mapping (exposes the per-link traffic for
     * the Fig. 9 heatmaps).
     */
    GroupAnalysis analyzeGroup(const LpMapping &mapping,
                               std::size_t group) const;

    const noc::InterconnectModel &noc() const { return noc_; }
    const cost::CostStack &costStack() const { return costs_; }
    const eval::EnergyModel &energyModel() const { return costs_.energy(); }
    const arch::ArchConfig &arch() const { return arch_; }
    const MappingOptions &options() const { return options_; }
    intracore::Explorer &explorer() { return explorer_; }

    /**
     * Mutable access to the run knobs that are safe to retune between
     * runs (SA budget/seed/chains, runSa), so one engine can run a T-Map
     * and then SA, or a growing budget, with its memos warm. Objective
     * exponents are re-synced into the SA options at the start of every
     * run.
     */
    MappingOptions &mutableOptions() { return options_; }

  private:
    /** Shares `shared` when set, else owns an explorer of its own. */
    MappingEngine(const dnn::Graph &graph, const arch::ArchConfig &arch,
                  MappingOptions options, intracore::Explorer *shared);

    /** The partitioner's knobs, taken from options_. */
    PartitionOptions partitionOptions() const;
    /**
     * The rest of run() once the segment table is built: the DP and its
     * stripe LMS, the analytic seed, optional SA and evaluation.
     */
    MappingResult runFromTable(SegmentTable table);
    /** Shared tail of run()/runFrom(): optional SA + final evaluation. */
    void optimizeInto(MappingResult &result);
    /**
     * Replace groups of the partitioner's stripe mapping with the
     * closed-form analytical seed wherever it scores better, guarded by
     * a whole-mapping cost comparison so the start state never regresses
     * (see mapping::analyticSeedGroup). Sets result.seededAnalytic.
     */
    void applyAnalyticSeed(MappingResult &result);
    /**
     * Run sa.chains independent Metropolis chains from `result.mapping`
     * (serially or over a saThreads-wide pool) and keep the best-of-K
     * outcome. Each chain owns its Explorer/Analyzer (they memoize and are
     * not thread-safe); the NoC and energy models are shared, const-only.
     */
    void runSaChains(MappingResult &result);

    const dnn::Graph &graph_;
    arch::ArchConfig arch_;
    MappingOptions options_;
    noc::InterconnectModel noc_;
    std::unique_ptr<intracore::Explorer> ownedExplorer_; ///< null if shared
    intracore::Explorer &explorer_;
    cost::CostStack costs_;
    mutable Analyzer analyzer_;
    SaEngine sa_;
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_ENGINE_HH
