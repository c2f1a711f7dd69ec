/**
 * @file
 * The layered cost stack: one object that owns every cost model of the
 * co-exploration loop — unit energies (eval::EnergyModel), monetary cost
 * (cost::McEvaluator) and the scalar objectives built on top of both (the
 * SA mapping objective of Sec. V-A and the DSE objective
 * MC^alpha * E^beta * D^gamma with its workload-independent lower bound).
 *
 * Both the SA inner loop and the DSE driver price through this class, so a
 * new cost term — e.g. the per-topology NoP serialization energy of the
 * hierarchical backend — is added in exactly one place and is immediately
 * consistent between the mapping objective, the reported breakdowns and
 * the DSE pruning bound.
 */

#ifndef GEMINI_COST_COST_STACK_HH
#define GEMINI_COST_COST_STACK_HH

#include <cstdint>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/arch/tech_params.hh"
#include "src/cost/analytic_bound.hh"
#include "src/cost/mc_evaluator.hh"
#include "src/dnn/graph.hh"
#include "src/eval/breakdown.hh"
#include "src/eval/energy_model.hh"

namespace gemini::cost {

/**
 * Slack applied to the DSE objective lower bound before it is compared
 * against achieved objectives. Every term of the analytical bound is a
 * true mathematical floor, but the achieved side is assembled by long FP
 * folds (per-link seconds, per-group energy sums, log-space geomeans)
 * whose rounding depends on summation order, while the bound's own
 * shorter folds round differently: two exact real numbers within a few
 * ULPs of each other can land on either side after ~1e3-element folds
 * (relative error up to ~n * eps ~ 1e3 * 2^-52 ~ 2e-13, plus pow/exp
 * library slop). 0.1% headroom is ~9 orders of magnitude above that
 * worst case, cheap (it weakens the prune threshold negligibly), and
 * keeps the prune provably on the safe side of FP noise. The slack band
 * is asserted empty in tests/test_dse.cc (no evaluated record may score
 * inside [bound, bound / kBoundSlack)).
 */
inline constexpr double kBoundSlack = 0.999;

class CostStack
{
  public:
    explicit CostStack(const arch::ArchConfig &cfg,
                       const arch::TechParams &tech = {},
                       CostParams mc_params = {});

    const arch::ArchConfig &config() const { return energy_.config(); }
    const eval::EnergyModel &energy() const { return energy_; }
    const McEvaluator &mc() const { return mc_; }

    // ---- Layer 1: unit energies / timings (per-topology terms here) ----

    /** Energy of hop-weighted on-chip traffic. */
    Joules onChipJ(double bytes) const { return energy_.onChipJ(bytes); }

    /**
     * Energy of hop-weighted D2D traffic. Under the hierarchical NoP+NoC
     * topology the D2D links are the NoP gateway links, which pay the
     * additional serialization energy on top of the GRS channel.
     */
    Joules
    d2dJ(double bytes) const
    {
        return energy_.d2dJ(bytes) + nopSerJPerByte_ * bytes;
    }

    /** Energy of DRAM accesses. */
    Joules dramJ(double bytes) const { return energy_.dramJ(bytes); }

    /** Per-DRAM-stack bandwidth in bytes/second. */
    double dramStackBps() const { return energy_.dramStackBps(); }

    // ---- Layer 2: monetary cost ----

    /** Full MC evaluation of the bound architecture (computed on demand;
     * MC depends only on the architecture, never on the workload). */
    CostBreakdown mcBreakdown() const { return mc_.evaluate(config()); }

    // ---- Layer 3: scalar objectives ----

    /**
     * GLB-overflow-penalized SA mapping objective over per-group
     * breakdowns: (sum_g E_g p_g)^beta * (sum_g D_g p_g)^gamma with
     * p_g = (1 + overflow_g)^2 (Sec. V-A with the repo's soft feasibility
     * penalty).
     */
    static double saCost(const std::vector<eval::EvalBreakdown> &groups,
                         double beta, double gamma);

    /**
     * Penalized contribution of one group to the SA cost's E and D sums
     * (the incremental accumulator of the SA hot path re-derives only the
     * touched groups' contributions).
     */
    static void saContribution(const eval::EvalBreakdown &g, double &energy,
                               double &delay);

    /** Scalar SA cost from accumulated contribution sums. */
    static double saScalar(double energy, double delay, double beta,
                           double gamma);

    /** The DSE objective MC^alpha * E^beta * D^gamma. */
    static double dseObjective(double mc_total, double energy_geo,
                               double delay_geo, double alpha, double beta,
                               double gamma);

    /**
     * Workload-independent DSE objective lower bound of the bound
     * architecture, whose interconnect model is `noc`. MC is exact; the
     * delay/energy floors come from
     * cost::analyticLowerBound — a per-layer compute/DRAM/NoC model
     * folded over every feasible contiguous layer-group segmentation by
     * dynamic programming (provably <= every achievable evaluation on
     * all topology backends; see analytic_bound.hh and DESIGN.md
     * "Analytical bounds and seeding"). `maxGroupLayers` is the mapping
     * engine's segment-length cap (>= 1). `components`, when non-null,
     * receives the explanatory decomposition recorded per DseRecord. The
     * result is scaled by kBoundSlack (FP fold-order headroom). Returns 0
     * (trivial bound) for negative exponents, where the bound is not
     * monotone.
     */
    double dseObjectiveLowerBound(
        const noc::InterconnectModel &noc,
        const std::vector<const dnn::Graph *> &models, std::int64_t batch,
        double mc_total, double alpha, double beta, double gamma,
        int maxGroupLayers, BoundComponents *components = nullptr) const;

    /** The same bound over a model it builds of the bound architecture. */
    double
    dseObjectiveLowerBound(const std::vector<const dnn::Graph *> &models,
                           std::int64_t batch, double mc_total, double alpha,
                           double beta, double gamma, int maxGroupLayers,
                           BoundComponents *components = nullptr) const
    {
        return dseObjectiveLowerBound(noc::InterconnectModel(config()),
                                      models, batch, mc_total, alpha, beta,
                                      gamma, maxGroupLayers, components);
    }

  private:
    eval::EnergyModel energy_;
    McEvaluator mc_;
    double nopSerJPerByte_ = 0.0; ///< nonzero only for HierarchicalNop
};

} // namespace gemini::cost

#endif // GEMINI_COST_COST_STACK_HH
