#include "src/dse/candidates.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.hh"

namespace gemini::dse {

DseAxes
DseAxes::paper72()
{
    DseAxes a;
    a.topsTarget = 72.0;
    a.xCuts = {1, 2, 3, 6};
    a.yCuts = {1, 2, 3, 6};
    return a;
}

DseAxes
DseAxes::paper128()
{
    DseAxes a;
    a.topsTarget = 128.0;
    a.xCuts = {1, 2, 4, 8};
    a.yCuts = {1, 2, 4, 8};
    return a;
}

DseAxes
DseAxes::paper512()
{
    DseAxes a = paper128();
    a.topsTarget = 512.0;
    return a;
}

DseAxes &
DseAxes::withAllTopologies()
{
    topologies.assign(std::begin(arch::kAllTopologies),
                      std::end(arch::kAllTopologies));
    return *this;
}

void
chooseCoreGrid(double tops_target, int macs_per_core,
               const std::vector<int> &x_cuts,
               const std::vector<int> &y_cuts, int &x_cores, int &y_cores)
{
    const double exact =
        tops_target * 1000.0 / (2.0 * macs_per_core); // at 1 GHz
    // A single core within the same ~15% tolerance the search window uses
    // is still a valid grid (e.g. 1 TOPs on 512-MAC cores -> exact 0.98).
    GEMINI_ASSERT(exact >= kMinExactCores && exact <= kMaxExactCores,
                  "TOPS target out of range for this MAC count");
    const int lo = std::max(1, static_cast<int>(std::floor(exact * 0.85)));
    const int hi = std::max(lo, static_cast<int>(std::ceil(exact * 1.15)));

    int best_x = 0, best_y = 0, best_cuts = -1;
    double best_dist = 0.0, best_aspect = 0.0;
    for (int cores = lo; cores <= hi; ++cores) {
        for (int x = 1; x * x <= cores; ++x) {
            if (cores % x)
                continue;
            const int y = cores / x;
            const double aspect = static_cast<double>(y) / x;
            if (aspect > 2.0 && cores > 2)
                continue; // keep the array near-square, as the paper does
            // Count the Table-I cut pairs this grid supports. The wider
            // dimension is the X axis (more chiplet columns than rows).
            int cuts = 0;
            for (int xc : x_cuts)
                for (int yc : y_cuts)
                    if (y % xc == 0 && x % yc == 0)
                        ++cuts;
            const double dist = std::abs(cores - exact);
            const bool better =
                cuts > best_cuts ||
                (cuts == best_cuts &&
                 (dist < best_dist - 1e-9 ||
                  (std::abs(dist - best_dist) <= 1e-9 &&
                   aspect < best_aspect)));
            if (better) {
                best_cuts = cuts;
                best_dist = dist;
                best_aspect = aspect;
                best_x = y; // wider dimension on X
                best_y = x;
            }
        }
    }
    GEMINI_ASSERT(best_cuts >= 0, "no core grid found for ", macs_per_core,
                  " MACs at ", tops_target, " TOPS");
    x_cores = best_x;
    y_cores = best_y;
}

namespace {

/**
 * Hand every valid candidate of an axis set, in enumeration order and
 * still unnamed, to `take`; stop early once it returns false.
 */
template <class Take>
void
visitCandidates(const DseAxes &axes, Take &&take)
{
    for (int macs : axes.macsPerCore) {
        int xc = 0, yc = 0;
        chooseCoreGrid(axes.topsTarget, macs, axes.xCuts, axes.yCuts, xc,
                       yc);
        for (int xcut : axes.xCuts) {
            if (xc % xcut)
                continue;
            for (int ycut : axes.yCuts) {
                if (yc % ycut)
                    continue;
                for (arch::Topology topology : axes.topologies) {
                    // The NoP hierarchy degenerates to the plain mesh on
                    // monolithic designs; skip the duplicates.
                    if (topology == arch::Topology::HierarchicalNop &&
                        xcut == 1 && ycut == 1)
                        continue;
                    for (double dram_per_tops : axes.dramGBpsPerTops) {
                        for (double noc : axes.nocGBps) {
                            for (double ratio : axes.d2dRatio) {
                                arch::ArchConfig cfg;
                                cfg.xCores = xc;
                                cfg.yCores = yc;
                                cfg.xCut = xcut;
                                cfg.yCut = ycut;
                                cfg.topology = topology;
                                cfg.nocBwGBps = noc;
                                cfg.d2dBwGBps = noc * ratio;
                                cfg.dramBwGBps =
                                    dram_per_tops * axes.topsTarget;
                                cfg.macsPerCore = macs;
                                for (int glb : axes.glbKiB) {
                                    cfg.glbKiB = glb;
                                    if (cfg.validate().empty() && !take(cfg))
                                        return;
                                }
                                // Monolithic candidates do not vary by
                                // D2D ratio; skip the duplicates.
                                if (xcut == 1 && ycut == 1)
                                    break;
                            }
                        }
                    }
                }
            }
        }
    }
}

} // namespace

std::vector<arch::ArchConfig>
enumerateCandidates(const DseAxes &axes)
{
    std::vector<arch::ArchConfig> out;
    visitCandidates(axes, [&](arch::ArchConfig cfg) {
        std::ostringstream name;
        name << "dse-" << axes.topsTarget << "T-" << out.size();
        cfg.name = name.str();
        out.push_back(std::move(cfg));
        return true;
    });
    return out;
}

bool
hasCandidates(const DseAxes &axes)
{
    bool any = false;
    visitCandidates(axes, [&](const arch::ArchConfig &) {
        any = true;
        return false;
    });
    return any;
}

} // namespace gemini::dse
