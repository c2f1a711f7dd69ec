/**
 * @file
 * DSE candidate enumeration from the Table I parameter lists: every
 * combination of XCut/YCut, DRAM bandwidth per TOPs, NoC bandwidth, D2D
 * ratio, GLB size and MAC count, with the core grid derived from the
 * computing-power target and invalid cut combinations discarded.
 */

#ifndef GEMINI_DSE_CANDIDATES_HH
#define GEMINI_DSE_CANDIDATES_HH

#include <string>
#include <vector>

#include "src/arch/arch_config.hh"

namespace gemini::dse {

/** The Table I axis lists for one computing-power target. */
struct DseAxes
{
    double topsTarget = 72.0;
    std::vector<int> xCuts{1, 2, 3, 6};
    std::vector<int> yCuts{1, 2, 3, 6};
    std::vector<double> dramGBpsPerTops{0.5, 1.0, 2.0};
    std::vector<double> nocGBps{8, 16, 32, 64, 128};
    std::vector<double> d2dRatio{0.25, 0.5, 1.0}; ///< D2D = ratio * NoC
    std::vector<int> glbKiB{256, 512, 1024, 2048, 4096, 8192};
    std::vector<int> macsPerCore{512, 1024, 2048, 4096, 8192};

    /**
     * Interconnect topologies to co-explore (a first-class candidate
     * axis). The paper fixes the topology per setup; listing several here
     * makes the DSE race mesh vs torus vs ring vs NoP hierarchy on equal
     * terms. withAllTopologies() fills the complete backend list.
     */
    std::vector<arch::Topology> topologies{arch::Topology::Mesh};

    /** The paper's three DSE setups (Table I). */
    static DseAxes paper72();
    static DseAxes paper128();
    static DseAxes paper512();

    /** This axis set widened to every interconnect backend. */
    DseAxes &withAllTopologies();
};

/**
 * The range of exact core counts (TOPS target over per-core TOPS at
 * 1 GHz) chooseCoreGrid accepts: at least one core within its ~15%
 * window, and a grid small enough to search.
 */
inline constexpr double kMinExactCores = 0.85;
inline constexpr double kMaxExactCores = 880.0;
static_assert(kMaxExactCores * 1.15 + 1.0 < arch::kMaxCoreCount,
              "every grid chooseCoreGrid can pick must pass "
              "ArchConfig::validate");

/**
 * Choose the core grid for a MAC count under a TOPS target: the candidate
 * core count within ~15% of the exact requirement whose near-square factor
 * pair admits the most valid (XCut, YCut) combinations (ties prefer the
 * closest count, then the squarest grid). This reproduces the paper's
 * "36 cores -> 6x6, 18 -> 6x3" arrangement rule. Every cut must be >= 1
 * and the exact core count within [kMinExactCores, kMaxExactCores].
 */
void chooseCoreGrid(double tops_target, int macs_per_core,
                    const std::vector<int> &x_cuts,
                    const std::vector<int> &y_cuts, int &x_cores,
                    int &y_cores);

/** Enumerate all valid candidates of one axis set. */
std::vector<arch::ArchConfig> enumerateCandidates(const DseAxes &axes);

/** Whether enumerateCandidates(axes) is non-empty, found cheaply. */
bool hasCandidates(const DseAxes &axes);

} // namespace gemini::dse

#endif // GEMINI_DSE_CANDIDATES_HH
