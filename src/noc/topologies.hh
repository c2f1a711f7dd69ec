/**
 * @file
 * Interconnect topology backends behind the noc::InterconnectModel seam.
 *
 * A backend is a small policy type with one obligation: walk the ordered
 * hop sequence of the route src -> dst (cores and DRAM pseudo-nodes) through
 * a statically-dispatched callback. The InterconnectModel visits the backend
 * exactly once, at construction, to build its dense route/kind tables; the
 * mapping hot path then replays precomputed spans and never touches a
 * backend again — adding a topology cannot slow the SA loop down.
 *
 * Backends:
 *  - Mesh: XY dimension-order routing (the paper's default template).
 *  - FoldedTorus: shortest-wrap dimension-order routing (Sec. VI-B2).
 *  - ConcentratedRing: one ring stop per mesh row at column 0; intra-row
 *    traffic moves along the row, inter-row traffic is concentrated through
 *    the bidirectional ring of row stops (shared-bus-like scenario).
 *  - HierarchicalNop: SIAM-style two-level network — an XY mesh inside each
 *    chiplet (NoC) plus an XY mesh of chiplet gateway routers (NoP); every
 *    cross-chiplet flow funnels through the gateways. Monolithic designs
 *    degrade to the plain mesh.
 *
 * DRAM attach: mesh, torus and ring keep the paper's scheme (DRAM d ports
 * on the west edge for even d, east for odd d, entering at the endpoint's
 * row). The hierarchy attaches DRAM to the gateway of the edge chiplet in
 * the endpoint's chiplet row instead (the IO die talks NoP, not NoC).
 */

#ifndef GEMINI_NOC_TOPOLOGIES_HH
#define GEMINI_NOC_TOPOLOGIES_HH

#include <variant>

#include "src/arch/arch_config.hh"
#include "src/common/logging.hh"
#include "src/common/types.hh"
#include "src/noc/traffic_map.hh"

namespace gemini::noc::topo {

// ---- Shared geometry helpers over one ArchConfig ---------------------------

inline bool
isDramNode(const arch::ArchConfig &cfg, NodeId n)
{
    return n >= cfg.coreCount();
}

inline int
dramOf(const arch::ArchConfig &cfg, NodeId n)
{
    return n - cfg.coreCount();
}

/** Edge column (0 or xCores-1) where a DRAM's ports sit (west/east). */
inline int
dramEdgeX(const arch::ArchConfig &cfg, int dram)
{
    return (dram % 2 == 0) ? 0 : cfg.xCores - 1;
}

/** One mesh step along a linear dimension. */
inline int
stepMesh(int from, int to)
{
    return from + (to > from ? 1 : -1);
}

/**
 * One shortest-wrap step around a ring; ties resolve to the increasing
 * direction for determinism (folded torus and ring stops both use this).
 */
inline int
stepRing(int from, int to, int extent)
{
    // The modular distances of two coordinates in [0, extent), without
    // a division per hop.
    const int fwd = to >= from ? to - from : to - from + extent;
    const int bwd = from >= to ? from - to : from - to + extent;
    if (fwd <= bwd)
        return from + 1 == extent ? 0 : from + 1;
    return from == 0 ? extent - 1 : from - 1;
}

/**
 * Shared skeleton of the edge-column DRAM attach: DRAM endpoints enter and
 * leave the fabric at the edge core on the destination's (resp. source's)
 * row, with the backend's core-to-core walk in between. CRTP: Derived
 * provides walkCoreToCore.
 */
template <typename Derived>
struct EdgeAttachBase
{
    template <typename Fn>
    void
    walkHops(const arch::ArchConfig &cfg, NodeId src, NodeId dst,
             Fn &&fn) const
    {
        if (src == dst)
            return;
        if (isDramNode(cfg, src) && isDramNode(cfg, dst)) {
            GEMINI_PANIC("DRAM-to-DRAM routes are not meaningful");
        }
        const auto &self = static_cast<const Derived &>(*this);
        if (isDramNode(cfg, src)) {
            const int dram = dramOf(cfg, src);
            const CoreId entry =
                cfg.coreAt(dramEdgeX(cfg, dram),
                           cfg.coreY(static_cast<CoreId>(dst)));
            fn(src, static_cast<NodeId>(entry));
            self.walkCoreToCore(cfg, entry, static_cast<CoreId>(dst), fn);
            return;
        }
        if (isDramNode(cfg, dst)) {
            const int dram = dramOf(cfg, dst);
            const CoreId exit =
                cfg.coreAt(dramEdgeX(cfg, dram),
                           cfg.coreY(static_cast<CoreId>(src)));
            self.walkCoreToCore(cfg, static_cast<CoreId>(src), exit, fn);
            fn(static_cast<NodeId>(exit), dst);
            return;
        }
        self.walkCoreToCore(cfg, static_cast<CoreId>(src),
                            static_cast<CoreId>(dst), fn);
    }
};

/** XY dimension-order routing on the plain mesh. */
struct Mesh : EdgeAttachBase<Mesh>
{
    template <typename Fn>
    void
    walkCoreToCore(const arch::ArchConfig &cfg, CoreId src, CoreId dst,
                   Fn &&fn) const
    {
        int x = cfg.coreX(src);
        int y = cfg.coreY(src);
        const int tx = cfg.coreX(dst);
        const int ty = cfg.coreY(dst);
        while (x != tx) {
            const int nx = stepMesh(x, tx);
            fn(static_cast<NodeId>(cfg.coreAt(x, y)),
               static_cast<NodeId>(cfg.coreAt(nx, y)));
            x = nx;
        }
        while (y != ty) {
            const int ny = stepMesh(y, ty);
            fn(static_cast<NodeId>(cfg.coreAt(x, y)),
               static_cast<NodeId>(cfg.coreAt(x, ny)));
            y = ny;
        }
    }
};

/** Shortest-wrap dimension-order routing on the folded torus. */
struct FoldedTorus : EdgeAttachBase<FoldedTorus>
{
    template <typename Fn>
    void
    walkCoreToCore(const arch::ArchConfig &cfg, CoreId src, CoreId dst,
                   Fn &&fn) const
    {
        int x = cfg.coreX(src);
        int y = cfg.coreY(src);
        const int tx = cfg.coreX(dst);
        const int ty = cfg.coreY(dst);
        while (x != tx) {
            const int nx = stepRing(x, tx, cfg.xCores);
            fn(static_cast<NodeId>(cfg.coreAt(x, y)),
               static_cast<NodeId>(cfg.coreAt(nx, y)));
            x = nx;
        }
        while (y != ty) {
            const int ny = stepRing(y, ty, cfg.yCores);
            fn(static_cast<NodeId>(cfg.coreAt(x, y)),
               static_cast<NodeId>(cfg.coreAt(x, ny)));
            y = ny;
        }
    }
};

/**
 * Row-concentrated bidirectional ring: the cores of row y share the ring
 * stop at (0, y). Same-row traffic moves along the row; cross-row traffic
 * walks to the source row's stop, rides the ring (shortest direction, ties
 * increasing), and fans back out along the destination row. DRAM keeps the
 * edge-column attach, so west-DRAM flows inject directly at the stops.
 */
struct ConcentratedRing : EdgeAttachBase<ConcentratedRing>
{
    template <typename Fn>
    void
    walkCoreToCore(const arch::ArchConfig &cfg, CoreId src, CoreId dst,
                   Fn &&fn) const
    {
        int x = cfg.coreX(src);
        int y = cfg.coreY(src);
        const int tx = cfg.coreX(dst);
        const int ty = cfg.coreY(dst);
        if (y == ty) { // pure row traffic never touches the ring
            while (x != tx) {
                const int nx = stepMesh(x, tx);
                fn(static_cast<NodeId>(cfg.coreAt(x, y)),
                   static_cast<NodeId>(cfg.coreAt(nx, y)));
                x = nx;
            }
            return;
        }
        while (x != 0) { // to this row's ring stop
            const int nx = stepMesh(x, 0);
            fn(static_cast<NodeId>(cfg.coreAt(x, y)),
               static_cast<NodeId>(cfg.coreAt(nx, y)));
            x = nx;
        }
        while (y != ty) { // around the ring of row stops
            const int ny = stepRing(y, ty, cfg.yCores);
            fn(static_cast<NodeId>(cfg.coreAt(0, y)),
               static_cast<NodeId>(cfg.coreAt(0, ny)));
            y = ny;
        }
        while (x != tx) { // fan out along the destination row
            const int nx = stepMesh(x, tx);
            fn(static_cast<NodeId>(cfg.coreAt(x, y)),
               static_cast<NodeId>(cfg.coreAt(nx, y)));
            x = nx;
        }
    }
};

/**
 * SIAM-style two-level NoP+NoC hierarchy. Every chiplet owns a gateway
 * router at its local north-west core; cross-chiplet routes run XY inside
 * the source chiplet to its gateway, XY across the chiplet grid gateway to
 * gateway (each hop one NoP link, classified D2D), and XY inside the
 * destination chiplet. DRAM attaches to the gateway of the edge chiplet in
 * the endpoint's chiplet row. Monolithic configs fall back to the mesh.
 */
struct HierarchicalNop
{
    /** Gateway core of a chiplet (row-major chiplet index). */
    static CoreId
    gateway(const arch::ArchConfig &cfg, int chiplet)
    {
        const int cx = chiplet % cfg.xCut;
        const int cy = chiplet / cfg.xCut;
        return cfg.coreAt(cx * cfg.chipletCoresX(),
                          cy * cfg.chipletCoresY());
    }

    template <typename Fn>
    void
    walkHops(const arch::ArchConfig &cfg, NodeId src, NodeId dst,
             Fn &&fn) const
    {
        if (cfg.chipletCount() == 1) {
            Mesh{}.walkHops(cfg, src, dst, fn);
            return;
        }
        if (src == dst)
            return;
        if (isDramNode(cfg, src) && isDramNode(cfg, dst)) {
            GEMINI_PANIC("DRAM-to-DRAM routes are not meaningful");
        }
        if (isDramNode(cfg, src)) {
            const int dram = dramOf(cfg, src);
            const int cdst = cfg.chipletOf(static_cast<CoreId>(dst));
            const int entry_chip =
                (cdst / cfg.xCut) * cfg.xCut + dramEdgeCx(cfg, dram);
            fn(src, static_cast<NodeId>(gateway(cfg, entry_chip)));
            walkNop(cfg, entry_chip, cdst, fn);
            walkLocal(cfg, gateway(cfg, cdst), static_cast<CoreId>(dst),
                      fn);
            return;
        }
        if (isDramNode(cfg, dst)) {
            const int dram = dramOf(cfg, dst);
            const int csrc = cfg.chipletOf(static_cast<CoreId>(src));
            const int exit_chip =
                (csrc / cfg.xCut) * cfg.xCut + dramEdgeCx(cfg, dram);
            walkLocal(cfg, static_cast<CoreId>(src), gateway(cfg, csrc),
                      fn);
            walkNop(cfg, csrc, exit_chip, fn);
            fn(static_cast<NodeId>(gateway(cfg, exit_chip)), dst);
            return;
        }
        const int csrc = cfg.chipletOf(static_cast<CoreId>(src));
        const int cdst = cfg.chipletOf(static_cast<CoreId>(dst));
        if (csrc == cdst) {
            walkLocal(cfg, static_cast<CoreId>(src),
                      static_cast<CoreId>(dst), fn);
            return;
        }
        walkLocal(cfg, static_cast<CoreId>(src), gateway(cfg, csrc), fn);
        walkNop(cfg, csrc, cdst, fn);
        walkLocal(cfg, gateway(cfg, cdst), static_cast<CoreId>(dst), fn);
    }

  private:
    /** Chiplet-grid edge column of a DRAM (west even, east odd). */
    static int
    dramEdgeCx(const arch::ArchConfig &cfg, int dram)
    {
        return (dram % 2 == 0) ? 0 : cfg.xCut - 1;
    }

    /** XY walk between two cores of the same chiplet. */
    template <typename Fn>
    static void
    walkLocal(const arch::ArchConfig &cfg, CoreId src, CoreId dst, Fn &&fn)
    {
        Mesh{}.walkCoreToCore(cfg, src, dst, fn);
    }

    /** XY walk over the chiplet grid, one NoP link per chiplet hop. */
    template <typename Fn>
    static void
    walkNop(const arch::ArchConfig &cfg, int from_chip, int to_chip,
            Fn &&fn)
    {
        int cx = from_chip % cfg.xCut;
        int cy = from_chip / cfg.xCut;
        const int tx = to_chip % cfg.xCut;
        const int ty = to_chip / cfg.xCut;
        while (cx != tx) {
            const int nx = stepMesh(cx, tx);
            fn(static_cast<NodeId>(gateway(cfg, cy * cfg.xCut + cx)),
               static_cast<NodeId>(gateway(cfg, cy * cfg.xCut + nx)));
            cx = nx;
        }
        while (cy != ty) {
            const int ny = stepMesh(cy, ty);
            fn(static_cast<NodeId>(gateway(cfg, cy * cfg.xCut + cx)),
               static_cast<NodeId>(gateway(cfg, ny * cfg.xCut + cx)));
            cy = ny;
        }
    }
};

/** Closed set of topology backends (static dispatch, no virtual calls). */
using Backend =
    std::variant<Mesh, FoldedTorus, ConcentratedRing, HierarchicalNop>;

/** Backend instance for an architecture's topology knob. */
inline Backend
makeBackend(const arch::ArchConfig &cfg)
{
    switch (cfg.topology) {
      case arch::Topology::Mesh: return Mesh{};
      case arch::Topology::FoldedTorus: return FoldedTorus{};
      case arch::Topology::ConcentratedRing: return ConcentratedRing{};
      case arch::Topology::HierarchicalNop: return HierarchicalNop{};
    }
    GEMINI_PANIC("unknown topology");
}

} // namespace gemini::noc::topo

#endif // GEMINI_NOC_TOPOLOGIES_HH
