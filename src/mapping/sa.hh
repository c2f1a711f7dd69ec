/**
 * @file
 * The SA controller of the LP SPM exploration engine (Sec. V-B1): selects a
 * layer group with probability proportional to its (log-domain)
 * optimization-space size, applies one of the five operators, re-analyzes
 * the touched groups incrementally, and accepts by the Metropolis rule on
 * the E^beta * D^gamma objective.
 */

#ifndef GEMINI_MAPPING_SA_HH
#define GEMINI_MAPPING_SA_HH

#include <cstdint>
#include <vector>

#include "src/cost/cost_stack.hh"
#include "src/eval/breakdown.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/encoding.hh"

namespace gemini::mapping {

/** SA hyper-parameters and the optimization objective exponents. */
struct SaOptions
{
    int iterations = 4000;

    /** Initial/final relative temperatures of the geometric schedule. */
    double tStart = 0.2;
    double tEnd = 1e-3;

    /** Objective exponents: cost = E^beta * D^gamma (Sec. V-A). */
    double beta = 1.0;
    double gamma = 1.0;

    std::uint64_t seed = 0x5EEDBA5Eu;

    /**
     * Independent Metropolis chains run on the same initial mapping; the
     * best-of-K result is kept. Chain 0 uses `seed` verbatim (chains=1
     * therefore reproduces a plain single-chain run bit-for-bit); chain
     * i>0 derives its seed deterministically via SaEngine::chainSeed, so
     * results do not depend on thread scheduling. MappingEngine executes
     * chains over a thread pool bounded by MappingOptions::saThreads.
     */
    int chains = 1;

    /**
     * Basin hopping: after this many iterations without a new best, the
     * walk restarts from the best state found so far (the fragment caches
     * make re-walking a known neighbourhood nearly free). -1 picks
     * max(iterations/8, 64) automatically; 0 disables. Deterministic.
     */
    int reheatInterval = -1;

    /**
     * Operator enable mask (bit i enables OPi+1). All five by default;
     * the ablation bench switches classes off to measure each operator's
     * contribution. At least one bit must be set.
     */
    unsigned operatorMask = 0x1F;

    /**
     * Plateau-aware early termination: stop a chain after this many
     * consecutive iterations without a new global best. Distinct from
     * reheatInterval — basin hops restart the walk but do NOT reset this
     * counter, so a chain that keeps reheating without ever improving
     * still terminates. 0 (default) disables; the full `iterations`
     * budget is spent. SaStats::itersRun reports what actually ran.
     */
    int plateauWindow = 0;

    bool
    operatorEnabled(int op) const
    {
        return (operatorMask >> op) & 1u;
    }
};

/** Outcome statistics of one SA run (summed over chains when K > 1). */
struct SaStats
{
    int proposed = 0;    ///< operator draws
    int inapplicable = 0;///< draws that produced no valid transformation
    int accepted = 0;    ///< accepted moves (incl. uphill)
    int improved = 0;    ///< strictly-improving moves
    double initialCost = 0.0;
    double finalCost = 0.0; ///< best cost over all chains
    int chains = 1;         ///< chains that ran
    int bestChain = 0;      ///< chain whose mapping was kept

    /**
     * Iterations actually executed (summed over chains). Equals the
     * iteration budget unless SaOptions::plateauWindow cut a chain short.
     */
    std::int64_t itersRun = 0;

    /** Iteration index at which the kept chain last improved its best. */
    int bestIteration = 0;
};

/**
 * SA-based LP SPM optimizer over a complete LpMapping. Groups are
 * optimized jointly: every iteration perturbs one group but the objective
 * is the whole-DNN E^beta * D^gamma, including cross-group FD.OF coupling.
 */
class SaEngine
{
  public:
    SaEngine(const dnn::Graph &graph, const arch::ArchConfig &arch,
             Analyzer &analyzer, const cost::CostStack &costs);

    /**
     * Evaluate every group of a mapping (no optimization). Used for the
     * T-Map baseline and for final reporting.
     */
    std::vector<eval::EvalBreakdown>
    evaluateAll(const LpMapping &mapping) const;

    /** Optimize `mapping` in place; returns the final per-group evals. */
    std::vector<eval::EvalBreakdown> optimize(LpMapping &mapping,
                                              const SaOptions &options,
                                              SaStats *stats = nullptr);

    /**
     * Deterministic seed of chain `chain` derived from the base seed:
     * chain 0 returns `seed` unchanged (single-chain equivalence), later
     * chains get a splitmix64-style mix so their streams are independent.
     */
    static std::uint64_t chainSeed(std::uint64_t seed, int chain);

  private:
    eval::EvalBreakdown analyzeOne(const LpMapping &mapping,
                                   std::size_t group) const;

    const dnn::Graph &graph_;
    arch::ArchConfig arch_;
    Analyzer &analyzer_;
    const cost::CostStack &costs_;
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_SA_HH
