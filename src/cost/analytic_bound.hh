/**
 * @file
 * Closed-form analytical lower bound on the achievable delay/energy of any
 * mapping of a model onto one architecture candidate (the screen-rung
 * prune oracle): a per-layer model folded over every feasible contiguous
 * layer-group segmentation by dynamic programming. Per segment the bound
 * takes the max of a compute roofline (every MAC/vector-op must execute
 * on the disjoint core groups), a DRAM roofline over the segment's
 * *compulsory* DRAM bytes (weights once, cross-segment and external
 * activations at their exact touched-element floor, forced ofmap
 * stores), and a NoC ingress roofline (every DRAM byte crosses a
 * DRAM-adjacent link of the candidate's topology). See DESIGN.md
 * "Analytical bounds and seeding" for the per-term soundness
 * obligations.
 */

#ifndef GEMINI_COST_ANALYTIC_BOUND_HH
#define GEMINI_COST_ANALYTIC_BOUND_HH

#include <cstdint>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/arch/tech_params.hh"
#include "src/dnn/graph.hh"

namespace gemini::cost {

/**
 * Explanatory decomposition of the bound (geomean across models): which
 * floor is binding tells *why* a candidate was pruned. `refetchBytes` is
 * the DRAM traffic the bound proves on top of the naive compulsory set
 * (weights + network outputs) — the GLB-capacity/segmentation-forced
 * refetch floor.
 */
struct BoundComponents
{
    double computeSeconds = 0.0; ///< whole-model compute roofline
    double dramSeconds = 0.0;    ///< bound bytes / aggregate DRAM BW
    double nocSeconds = 0.0;     ///< bound bytes / DRAM-adjacent link cut
    double refetchBytes = 0.0;   ///< bound bytes above weights + outputs
};

/** Per-model-geomean delay/energy floors plus their decomposition. */
struct AnalyticBoundResult
{
    double delayGeoSeconds = 0.0;
    double energyGeoJoules = 0.0;
    BoundComponents components;
};

/**
 * Compute the analytical delay/energy lower bound of `models` on `cfg`.
 *
 * @param maxGroupLayers  the mapping engine's DP segment-length cap
 *        (>= 1, asserted); any achievable grouping is a contiguous
 *        segmentation with segments of at most min(maxGroupLayers,
 *        coreCount) layers, which the bound's DP minimizes over.
 *
 * Guaranteed <= the delay/energy of every mapping the engine can emit on
 * any of the four topology backends (tests/test_analytic.cc property
 * test). Pure function of (cfg, tech, models, batch, maxGroupLayers);
 * workload geometry only — no search.
 */
AnalyticBoundResult
analyticLowerBound(const arch::ArchConfig &cfg,
                   const arch::TechParams &tech,
                   const std::vector<const dnn::Graph *> &models,
                   std::int64_t batch, int maxGroupLayers);

/**
 * Exact element count of the producer-ofmap region any consumer must read
 * for `layer`'s full output (per batch sample): the union of per-output
 * required inputs, computed axis-separably (channel extent x swept
 * per-row height intervals x swept per-column width intervals), clamped
 * to the producer shape. Strided kernels leave holes *between* request
 * boxes but never inside a single row/column projection, so this is a
 * sound floor on the coalesced DRAM requests the traffic compiler emits
 * (exposed for the soundness tests).
 */
double touchedInputVolume(const dnn::Graph &graph, LayerId layer,
                          std::size_t input_idx);

} // namespace gemini::cost

#endif // GEMINI_COST_ANALYTIC_BOUND_HH
