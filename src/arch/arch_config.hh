/**
 * @file
 * The configurable hardware template of Sec. III: a 2-D mesh (or folded
 * torus) of computing cores partitioned into chiplets by XCut/YCut, plus IO
 * chiplets carrying the DRAM controllers. Every parameter of Table I is a
 * field here.
 */

#ifndef GEMINI_ARCH_ARCH_CONFIG_HH
#define GEMINI_ARCH_ARCH_CONFIG_HH

#include <cstdint>
#include <string>
#include <utility>

#include "src/common/types.hh"

namespace gemini::arch {

/**
 * Interconnect topology of the hardware template. Mesh and folded torus
 * are the paper's scenarios (Sec. III, Sec. VI-B2); the concentrated ring
 * and the SIAM-style two-level NoP+NoC hierarchy are additional backends
 * behind the noc::InterconnectModel seam (see src/noc/topologies.hh).
 */
enum class Topology
{
    Mesh,
    FoldedTorus,
    /** Row-concentrated bidirectional ring: one ring stop per mesh row. */
    ConcentratedRing,
    /**
     * Two-level hierarchy: XY mesh inside each chiplet (NoC) plus an XY
     * mesh of chiplet gateway routers (NoP). Monolithic designs degrade
     * to the plain mesh.
     */
    HierarchicalNop,
};

/** All topology values, in declaration order (DSE axis enumeration). */
inline constexpr Topology kAllTopologies[] = {
    Topology::Mesh, Topology::FoldedTorus, Topology::ConcentratedRing,
    Topology::HierarchicalNop};

/** Name of each topology ("mesh", "folded-torus", ...), as on the wire. */
inline constexpr std::pair<Topology, const char *> kTopologyNames[] = {
    {Topology::Mesh, "mesh"},
    {Topology::FoldedTorus, "folded-torus"},
    {Topology::ConcentratedRing, "concentrated-ring"},
    {Topology::HierarchicalNop, "hierarchical-nop"}};

const char *topologyName(Topology t);

/**
 * Largest core grid validate() accepts: far above every preset (the
 * largest is 256 cores) and above the biggest grid the DSE enumerates
 * (dse::kMaxExactCores plus its 15% search window), and small enough that
 * coreCount() and every core id stay well inside `int`.
 */
inline constexpr int kMaxCoreCount = 1 << 16;

/**
 * Largest DRAM-stack count validate() accepts (presets use at most 8).
 * DRAM selectors are 16-bit (DramSel), and every core keeps a route to
 * every stack.
 */
inline constexpr int kMaxDramCount = 1 << 10;

/**
 * Caps on the per-core resources, frequency and bandwidths: far above every
 * preset and DSE axis, low enough that every rate derived from them is finite.
 */
inline constexpr int kMaxMacsPerCore = 1 << 20;
inline constexpr int kMaxGlbKiB = 1 << 24;
inline constexpr double kMaxFreqGHz = 100.0;
inline constexpr double kMaxBandwidthGBps = 1e6;

/**
 * Architecture parameters (Sec. III "Configurable Parameters").
 *
 * A configuration is usually written as the paper's tuple
 * (ChipletNum, CoreNum, DRAM_BW, NoC_BW, D2D_BW, GBUF/Core, MAC/Core);
 * toString() prints that form.
 */
struct ArchConfig
{
    std::string name = "custom";

    /** Cores in the X direction of the global mesh. */
    int xCores = 6;
    /** Cores in the Y direction of the global mesh. */
    int yCores = 6;
    /** Chiplet divisions along X (1 = no cut). */
    int xCut = 1;
    /** Chiplet divisions along Y. */
    int yCut = 1;

    Topology topology = Topology::Mesh;

    /** Per-link NoC bandwidth, GB/s, per direction. */
    double nocBwGBps = 32.0;
    /** Per-link D2D bandwidth, GB/s, per direction. */
    double d2dBwGBps = 16.0;
    /** Total DRAM bandwidth, GB/s, across all DRAM stacks. */
    double dramBwGBps = 144.0;
    /** Number of DRAM stacks / IO-chiplet controllers (paper's D). */
    int dramCount = 2;

    /** 8-bit MACs in the PE array of one core. */
    int macsPerCore = 1024;
    /** Global buffer per core, KiB. */
    int glbKiB = 2048;

    /** Operating frequency (the paper's default is 1 GHz). */
    double freqGHz = 1.0;

    // ------------------------------------------------------------------

    int coreCount() const { return xCores * yCores; }
    int chipletCount() const { return xCut * yCut; }

    /** Cores per chiplet along X/Y. */
    int chipletCoresX() const { return xCores / xCut; }
    int chipletCoresY() const { return yCores / yCut; }

    /** Peak throughput in TOPS (2 ops per MAC per cycle). */
    double
    tops() const
    {
        return 2.0 * coreCount() * macsPerCore * freqGHz / 1000.0;
    }

    /** Total on-package GLB capacity in bytes. */
    Bytes
    totalGlbBytes() const
    {
        return static_cast<Bytes>(coreCount()) * glbKiB * 1024;
    }

    /** GLB capacity of one core in bytes. */
    Bytes glbBytes() const { return static_cast<Bytes>(glbKiB) * 1024; }

    /**
     * D2D interfaces on one computing chiplet: one per perimeter core per
     * side (Sec. III places `cores-per-side` D2Ds on each of the 4 sides).
     * Monolithic designs have none.
     */
    int d2dPerChiplet() const;

    /** Total D2D interfaces over all computing chiplets. */
    int totalD2d() const { return chipletCount() == 1
                               ? 0 : d2dPerChiplet() * chipletCount(); }

    // Core coordinate helpers (row-major core ids).
    int coreX(CoreId id) const { return id % xCores; }
    int coreY(CoreId id) const { return id / xCores; }
    CoreId coreAt(int x, int y) const { return y * xCores + x; }

    /** Chiplet index (row-major over the cut grid) owning a core. */
    int
    chipletOf(CoreId id) const
    {
        const int cx = coreX(id) / chipletCoresX();
        const int cy = coreY(id) / chipletCoresY();
        return cy * xCut + cx;
    }

    /** True when the hop between two adjacent cores crosses a D2D link. */
    bool
    crossesChiplet(CoreId a, CoreId b) const
    {
        return chipletOf(a) != chipletOf(b);
    }

    /**
     * Validate parameter consistency (cuts divide the core grid; counts,
     * resources, frequency and bandwidths positive and within the kMax*
     * caps). Returns an error message or empty when valid — the DSE uses
     * this to discard invalid candidates exactly as the paper does ("XCut
     * and YCut must be a factor of the number of cores on edge; otherwise,
     * the candidate is deemed invalid").
     */
    std::string validate() const;

    /** The paper's 7-tuple form. */
    std::string toString() const;

    /** Equality over all architectural parameters (not the name). */
    bool operator==(const ArchConfig &o) const;
};

} // namespace gemini::arch

#endif // GEMINI_ARCH_ARCH_CONFIG_HH
