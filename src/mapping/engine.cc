#include "src/mapping/engine.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/common/thread_pool.hh"
#include "src/mapping/analytic_seed.hh"

namespace gemini::mapping {

MappingEngine::MappingEngine(const dnn::Graph &graph,
                             const arch::ArchConfig &arch,
                             MappingOptions options)
    : MappingEngine(graph, arch, nullptr, std::move(options), nullptr)
{
}

MappingEngine::MappingEngine(const dnn::Graph &graph,
                             const noc::InterconnectModel &noc,
                             MappingOptions options,
                             intracore::Explorer *explorer)
    : MappingEngine(graph, noc.config(), &noc, std::move(options), explorer)
{
}

MappingEngine::MappingEngine(const dnn::Graph &graph,
                             const arch::ArchConfig &arch,
                             const noc::InterconnectModel *noc,
                             MappingOptions options,
                             intracore::Explorer *explorer)
    : graph_(graph), arch_(arch), options_(std::move(options)),
      ownedNoc_(noc ? nullptr
                    : std::make_unique<const noc::InterconnectModel>(arch)),
      noc_(noc ? *noc : *ownedNoc_),
      ownedExplorer_(explorer ? nullptr
                              : std::make_unique<intracore::Explorer>(
                                    arch.macsPerCore, arch.glbBytes(),
                                    arch.freqGHz, options_.tech)),
      explorer_(explorer ? *explorer : *ownedExplorer_),
      costs_(arch, options_.tech),
      analyzer_(graph, arch, noc_, explorer_),
      sa_(graph, arch, analyzer_, costs_)
{
    GEMINI_ASSERT(explorer_.macsPerCore() == arch.macsPerCore &&
                      explorer_.glbBytes() == arch.glbBytes(),
                  "shared explorer describes another core");
    const std::string err = arch.validate();
    GEMINI_ASSERT(err.empty(), "invalid architecture: ", err);
    GEMINI_ASSERT(graph.finalized(), "graph must be finalized");
    // Keep exponents in sync between the partitioner and the SA engine.
    options_.sa.beta = options_.beta;
    options_.sa.gamma = options_.gamma;
    analyzer_.setCacheCapacity(options_.analyzerCacheEntries);
}

PartitionOptions
MappingEngine::partitionOptions() const
{
    PartitionOptions popt;
    popt.batch = options_.batch;
    popt.maxGroupLayers = options_.maxGroupLayers;
    popt.batchUnits = options_.batchUnits;
    popt.beta = options_.beta;
    popt.gamma = options_.gamma;
    return popt;
}

MappingResult
MappingEngine::run()
{
    return runFromTable(std::move(
        buildSegmentTables(graph_, arch_, analyzer_,
                           {GroupPricer(noc_, costs_)}, partitionOptions())
            .front()));
}

std::vector<MappingResult>
MappingEngine::runCohort(
    const dnn::Graph &graph,
    const std::vector<const noc::InterconnectModel *> &cohort,
    const MappingOptions &options, intracore::Explorer &explorer)
{
    GEMINI_ASSERT(!cohort.empty(), "a mapping cohort needs a member");
    auto lead = std::make_unique<MappingEngine>(graph, *cohort.front(),
                                                options, &explorer);
    std::vector<GroupPricer> pricers;
    pricers.reserve(cohort.size());
    pricers.emplace_back(lead->noc_, lead->costs_);
    for (std::size_t k = 1; k < cohort.size(); ++k) {
        GEMINI_ASSERT(fragmentIdentical(lead->noc_, *cohort[k]),
                      "cohort architectures must be fragment-identical");
        pricers.emplace_back(*cohort[k],
                             cost::CostStack(cohort[k]->config(),
                                             options.tech));
    }
    std::vector<SegmentTable> tables =
        buildSegmentTables(graph, lead->arch_, lead->analyzer_, pricers,
                           lead->partitionOptions());
    pricers.clear();

    std::vector<MappingResult> results;
    results.reserve(cohort.size());
    results.push_back(lead->runFromTable(std::move(tables.front())));
    lead.reset();
    for (std::size_t k = 1; k < cohort.size(); ++k) {
        MappingEngine engine(graph, *cohort[k], options, &explorer);
        results.push_back(engine.runFromTable(std::move(tables[k])));
    }
    return results;
}

MappingResult
MappingEngine::runFromTable(SegmentTable table)
{
    MappingResult result;
    result.mapping = partitionFromTable(graph_, arch_, analyzer_, costs_,
                                        table, partitionOptions());
    // Nothing after the DP reads the table: free it before the SA walk
    // (gpt2_medium's is about 0.5 MiB).
    table = {};
    const std::string err =
        checkMappingValid(graph_, arch_, result.mapping);
    GEMINI_ASSERT(err.empty(), "partitioner produced invalid mapping: ",
                  err);

    if (options_.analyticSeed)
        applyAnalyticSeed(result);

    optimizeInto(result);
    return result;
}

void
MappingEngine::applyAnalyticSeed(MappingResult &result)
{
    // Both seeds use the identical FD pattern (managed entries
    // interleaved), so ofmapDramOf lookups — the only cross-group
    // coupling — agree between the two mappings and per-group
    // breakdowns can be mixed freely.
    LpMapping analytic = result.mapping;
    for (std::size_t g = 0; g < analytic.groups.size(); ++g)
        analytic.groups[g] = analyticSeedGroup(
            graph_, arch_, options_.tech, result.mapping.groups[g].layers,
            result.mapping.groups[g].batchUnit, options_.batch);
    const std::string err = checkMappingValid(graph_, arch_, analytic);
    GEMINI_ASSERT(err.empty(), "analytic seed produced invalid mapping: ",
                  err);

    const std::vector<eval::EvalBreakdown> stripe_evals =
        sa_.evaluateAll(result.mapping);
    const std::vector<eval::EvalBreakdown> analytic_evals =
        sa_.evaluateAll(analytic);

    // Per-group greedy pick by penalized scalar contribution, then a
    // whole-mapping guard: the hybrid is adopted only if its full SA cost
    // does not exceed the stripe seed's, so the start state (and with it
    // SA's best-of-walk guarantee) never regresses.
    LpMapping hybrid = result.mapping;
    std::vector<eval::EvalBreakdown> hybrid_evals = stripe_evals;
    bool any_analytic = false;
    for (std::size_t g = 0; g < hybrid.groups.size(); ++g) {
        double se, sd, ae, ad;
        cost::CostStack::saContribution(stripe_evals[g], se, sd);
        cost::CostStack::saContribution(analytic_evals[g], ae, ad);
        const double s_cost = cost::CostStack::saScalar(
            se, sd, options_.beta, options_.gamma);
        const double a_cost = cost::CostStack::saScalar(
            ae, ad, options_.beta, options_.gamma);
        if (a_cost < s_cost) {
            hybrid.groups[g] = analytic.groups[g];
            hybrid_evals[g] = analytic_evals[g];
            any_analytic = true;
        }
    }
    if (!any_analytic)
        return;
    // Adopt the hybrid only on a clear analytical win: between two
    // near-equal starts, SA trajectory noise is percent-level, so a
    // marginally better seed can still land in a slightly worse basin.
    // Requiring a 2% whole-mapping improvement keeps near-ties on the
    // stripe trajectory and reserves the seed for candidates where the
    // closed-form model finds a genuinely better layout.
    constexpr double kSeedAdoptionMargin = 0.98;
    const double stripe_cost = cost::CostStack::saCost(
        stripe_evals, options_.beta, options_.gamma);
    const double hybrid_cost = cost::CostStack::saCost(
        hybrid_evals, options_.beta, options_.gamma);
    if (hybrid_cost <= kSeedAdoptionMargin * stripe_cost) {
        result.mapping = std::move(hybrid);
        result.seededAnalytic = true;
    }
}

MappingResult
MappingEngine::runFrom(const LpMapping &start)
{
    const std::string err = checkMappingValid(graph_, arch_, start);
    GEMINI_ASSERT(err.empty(), "cannot warm-start from invalid mapping: ",
                  err);

    MappingResult result;
    result.mapping = start;
    optimizeInto(result);
    return result;
}

void
MappingEngine::optimizeInto(MappingResult &result)
{
    // Callers may retune knobs between runs via mutableOptions(); keep the
    // SA exponents in sync with the engine-level objective either way.
    options_.sa.beta = options_.beta;
    options_.sa.gamma = options_.gamma;

    // A stop observed before any SA work degrades to a plain evaluation of
    // the start mapping — still a valid, reportable result.
    if (options_.runSa && !options_.stop.stopRequested()) {
        if (options_.sa.chains > 1) {
            runSaChains(result);
        } else {
            result.groups =
                sa_.optimize(result.mapping, options_.sa, &result.saStats);
        }
        const std::string err2 =
            checkMappingValid(graph_, arch_, result.mapping);
        GEMINI_ASSERT(err2.empty(), "SA produced invalid mapping: ", err2);
    } else {
        result.groups = sa_.evaluateAll(result.mapping);
    }
    for (const auto &g : result.groups)
        result.total += g;
}

void
MappingEngine::runSaChains(MappingResult &result)
{
    const int chains = options_.sa.chains;
    std::vector<LpMapping> maps(static_cast<std::size_t>(chains),
                                result.mapping);
    std::vector<std::vector<eval::EvalBreakdown>> evals(
        static_cast<std::size_t>(chains));
    std::vector<SaStats> stats(static_cast<std::size_t>(chains));
    // Chains skipped by a cancellation request (checked once per chain —
    // the SA inner loop never sees the token).
    std::vector<char> ran(static_cast<std::size_t>(chains), 0);

    auto chain_options_of = [&](std::size_t i) {
        SaOptions chain_options = options_.sa;
        chain_options.chains = 1;
        chain_options.seed =
            SaEngine::chainSeed(options_.sa.seed, static_cast<int>(i));
        return chain_options;
    };

    const std::size_t pool_threads = static_cast<std::size_t>(
        std::min(std::max(options_.saThreads, 0), chains));
    if (pool_threads > 1) {
        // Parallel chains: per-chain Explorer/Analyzer (both memoize and
        // are not thread-safe); the NoC and energy models are shared,
        // const-only. Caches are exact, so parallel and serial execution
        // produce bit-identical results.
        ThreadPool pool(pool_threads);
        pool.parallelFor(
            static_cast<std::size_t>(chains), [&](std::size_t i) {
                if (options_.stop.stopRequested())
                    return;
                intracore::Explorer explorer(arch_.macsPerCore,
                                             arch_.glbBytes(),
                                             arch_.freqGHz, options_.tech);
                Analyzer analyzer(graph_, arch_, noc_, explorer);
                analyzer.setCacheCapacity(options_.analyzerCacheEntries);
                SaEngine sa(graph_, arch_, analyzer, costs_);
                const SaOptions chain_options = chain_options_of(i);
                evals[i] = sa.optimize(maps[i], chain_options, &stats[i]);
                ran[i] = 1;
            });
    } else {
        // Serial chains share the engine's warm explorer and analyzer
        // cache: later chains re-analyze the shared initial mapping and
        // early-phase states for free.
        for (std::size_t i = 0; i < static_cast<std::size_t>(chains); ++i) {
            if (options_.stop.stopRequested())
                break;
            const SaOptions chain_options = chain_options_of(i);
            evals[i] = sa_.optimize(maps[i], chain_options, &stats[i]);
            ran[i] = 1;
        }
    }

    // Every chain can be skipped when the stop arrives right after the
    // optimizeInto check; fall back to evaluating the start mapping.
    if (std::find(ran.begin(), ran.end(), char(1)) == ran.end()) {
        result.groups = sa_.evaluateAll(result.mapping);
        return;
    }

    // Best-of-K selection over the chains that ran: strict < with
    // ascending index makes the pick deterministic regardless of which
    // thread finished first.
    std::size_t best = static_cast<std::size_t>(
        std::find(ran.begin(), ran.end(), char(1)) - ran.begin());
    double best_cost = stats[best].finalCost;
    for (std::size_t i = best + 1; i < static_cast<std::size_t>(chains);
         ++i) {
        if (ran[i] && stats[i].finalCost < best_cost) {
            best = i;
            best_cost = stats[i].finalCost;
        }
    }

    result.mapping = std::move(maps[best]);
    result.groups = std::move(evals[best]);
    SaStats merged;
    merged.initialCost = stats[best].initialCost;
    merged.finalCost = best_cost;
    merged.chains = chains;
    merged.bestChain = static_cast<int>(best);
    merged.bestIteration = stats[best].bestIteration;
    for (const SaStats &s : stats) {
        merged.proposed += s.proposed;
        merged.inapplicable += s.inapplicable;
        merged.accepted += s.accepted;
        merged.improved += s.improved;
        merged.itersRun += s.itersRun;
    }
    result.saStats = merged;
}

MappingResult
MappingEngine::evaluateMapping(const LpMapping &mapping) const
{
    const std::string err = checkMappingValid(graph_, arch_, mapping);
    GEMINI_ASSERT(err.empty(), "cannot evaluate invalid mapping: ", err);
    MappingResult result;
    result.mapping = mapping;
    result.groups = sa_.evaluateAll(mapping);
    for (const auto &g : result.groups)
        result.total += g;
    return result;
}

GroupAnalysis
MappingEngine::analyzeGroup(const LpMapping &mapping,
                            std::size_t group) const
{
    GEMINI_ASSERT(group < mapping.groups.size(), "group index out of range");
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };
    return analyzer_.analyzeGroup(mapping.groups[group], mapping.batch,
                                  lookup);
}

} // namespace gemini::mapping
