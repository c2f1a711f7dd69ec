/**
 * @file
 * The interconnect seam of the evaluation stack: InterconnectModel owns the
 * dense route / link-classification / bandwidth tables every analysis query
 * reads, and builds them once at construction by statically dispatching
 * over the topology backends in src/noc/topologies.hh (mesh, folded torus,
 * concentrated ring, NoP+NoC hierarchy). The SA hot path only ever replays
 * precomputed route spans — no virtual calls, no per-hop dispatch, no
 * topology branches after construction.
 */

#ifndef GEMINI_NOC_INTERCONNECT_HH
#define GEMINI_NOC_INTERCONNECT_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/common/logging.hh"
#include "src/common/types.hh"
#include "src/noc/traffic_map.hh"

namespace gemini::noc {

/** Classification of a directed link for bandwidth/energy purposes. */
enum class LinkKind
{
    OnChip, ///< regular fabric link inside one chiplet
    D2D,    ///< crosses a chiplet boundary (incl. IO-attach and NoP links)
};

/** Aggregate statistics of a traffic map over a given interconnect. */
struct TrafficStats
{
    double onChipBytes = 0.0;  ///< hop-weighted on-chip bytes
    double d2dBytes = 0.0;     ///< hop-weighted D2D bytes
    double maxLinkSeconds = 0.0; ///< bottleneck link serialization time
    LinkKey maxLink = 0;       ///< the bottleneck link
};

/**
 * Routing and geometry over one ArchConfig. Node ids: cores 0..N-1
 * (row-major), then DRAM pseudo-nodes N..N+D-1. DRAM attach points are a
 * backend concern (see topologies.hh); the paper's scheme puts DRAM d on
 * the west edge for even d and the east edge for odd d, with one port per
 * row (the "DRAM controller connected to multiple routers").
 */
class InterconnectModel
{
  public:
    explicit InterconnectModel(const arch::ArchConfig &cfg);

    const arch::ArchConfig &config() const { return cfg_; }

    NodeId coreNode(CoreId core) const { return core; }
    NodeId dramNode(int dram) const;
    bool isDramNode(NodeId n) const { return n >= cfg_.coreCount(); }
    int dramOf(NodeId n) const;

    /** Number of mesh + DRAM nodes. */
    int nodeCount() const { return cfg_.coreCount() + cfg_.dramCount; }

    /**
     * Walk the hops of the route src -> dst in order, replaying the
     * precomputed span through a statically-dispatched callback (no
     * std::function, no per-hop indirect call).
     */
    template <typename Fn>
    void
    forEachHop(NodeId src, NodeId dst, Fn &&fn) const
    {
        for (LinkKey key : route(src, dst))
            fn(linkFrom(key), linkTo(key));
    }

    /** Number of hops (links) on the route src -> dst. */
    int
    hopCount(NodeId src, NodeId dst) const
    {
        return static_cast<int>(route(src, dst).size());
    }

    /** Accumulate `bytes` on every link of the route. */
    void unicast(TrafficMap &map, NodeId src, NodeId dst,
                 double bytes) const;

    /**
     * Accumulate `bytes` on the union of the routes src -> each dst (a
     * dimension-order multicast tree: shared prefixes are charged once).
     */
    void multicast(TrafficMap &map, NodeId src,
                   const std::vector<NodeId> &dsts, double bytes) const;

    /**
     * Hand the flat slot (linkSlot) of every link of the route src -> dst
     * to `emit(std::uint32_t)`, in hop order. Nothing is emitted for a
     * non-positive volume.
     */
    template <typename Emit>
    void
    unicastLinks(NodeId src, NodeId dst, double bytes, Emit &&emit) const
    {
        if (bytes <= 0.0)
            return;
        for (std::uint32_t slot : routeSlots(src, dst))
            emit(slot);
    }

    /**
     * Hand the flat slot of every link of the route union src -> each dst
     * to `emit(std::uint32_t)` exactly once, in first-touch (dst-major,
     * hop) order. Links are deduplicated through a generation-stamped
     * dense table (one stamp per flat link slot) instead of a per-call
     * sort or hash set: route unions of a wide multicast reach hundreds
     * of links. Every instantiation shares the calling thread's stamp
     * table, so concurrent SA chains never contend and a generation bump
     * makes reset free.
     */
    template <typename Emit>
    void
    multicastLinks(NodeId src, const std::vector<NodeId> &dsts, double bytes,
                   Emit &&emit) const
    {
        if (bytes <= 0.0 || dsts.empty())
            return;
        if (dsts.size() == 1) { // single destination: the route IS the union
            for (std::uint32_t slot : routeSlots(src, dsts[0]))
                emit(slot);
            return;
        }
        RouteUnionStamps &stamps = routeUnionStamps();
        const std::uint32_t gen =
            stamps.begin(static_cast<std::size_t>(nodeCount()) *
                         static_cast<std::size_t>(nodeCount()));
        for (NodeId dst : dsts) {
            for (std::uint32_t slot : routeSlots(src, dst)) {
                if (stamps.stamp[slot] != gen) {
                    stamps.stamp[slot] = gen;
                    emit(slot);
                }
            }
        }
    }

    /** Precomputed backend route src -> dst as packed link keys. */
    std::span<const LinkKey>
    route(NodeId src, NodeId dst) const
    {
        const RouteRef &ref = routeRef(src, dst);
        return {routeLinks_.data() + ref.offset, ref.length};
    }

    /**
     * The same route as flat link slots (linkSlot(from, to)): the form
     * the emission helpers replay, so the hot path indexes dense per-link
     * tables without decoding and re-multiplying every hop.
     */
    std::span<const std::uint32_t>
    routeSlots(NodeId src, NodeId dst) const
    {
        const RouteRef &ref = routeRef(src, dst);
        return {routeSlots_.data() + ref.offset, ref.length};
    }

    /** Kind of the directed link (a, b); a/b must be route neighbours. */
    LinkKind
    linkKind(NodeId a, NodeId b) const
    {
        return static_cast<LinkKind>(
            kindTable_[static_cast<std::size_t>(a) *
                           static_cast<std::size_t>(nodeCount()) +
                       static_cast<std::size_t>(b)]);
    }

    /** Peak bandwidth of the directed link in bytes/second. */
    double
    linkBandwidthBps(NodeId a, NodeId b) const
    {
        return linkKind(a, b) == LinkKind::D2D ? d2dBps_ : nocBps_;
    }

    /**
     * Flat index of the directed link (a, b) in the dense nodeCount^2
     * tables — the slot space the delta-evaluated group state and the
     * dense merge scratch share.
     */
    std::size_t
    linkSlot(NodeId a, NodeId b) const
    {
        return static_cast<std::size_t>(a) *
                   static_cast<std::size_t>(nodeCount()) +
               static_cast<std::size_t>(b);
    }

    /** Packed link key of a flat slot (inverse of linkSlot). */
    LinkKey
    linkAt(std::size_t slot) const
    {
        const auto n = static_cast<std::size_t>(nodeCount());
        return makeLink(static_cast<NodeId>(slot / n),
                        static_cast<NodeId>(slot % n));
    }

    /** linkKind by flat slot (same dense table, no div/mod round trip). */
    LinkKind
    linkKindAt(std::size_t slot) const
    {
        return static_cast<LinkKind>(kindTable_[slot]);
    }

    /** linkBandwidthBps by flat slot. */
    double
    linkBandwidthAt(std::size_t slot) const
    {
        return linkKindAt(slot) == LinkKind::D2D ? d2dBps_ : nocBps_;
    }

    /**
     * The two bandwidth constants behind linkBandwidthAt, for batched
     * (SIMD) seconds computation over packed kind bytes: every link's
     * bandwidth is one of exactly these two values.
     */
    double nocBandwidthBps() const { return nocBps_; }
    double d2dBandwidthBps() const { return d2dBps_; }

    /** Aggregate per-kind bytes and the bottleneck link time. */
    TrafficStats summarize(const TrafficMap &map) const;

    /** "(x,y)" or "DRAM#d" label for heatmap exports. */
    std::string nodeLabel(NodeId n) const;

  private:
    /** One route's span in the route arenas. */
    struct RouteRef
    {
        std::uint32_t offset = 0;
        std::uint32_t length = 0;
    };

    /** Per-thread dense stamp table behind multicastLinks' route union. */
    struct RouteUnionStamps
    {
        std::vector<std::uint32_t> stamp;
        std::uint32_t gen = 0;

        /** Open a new union over `slots` link slots; returns its stamp. */
        std::uint32_t
        begin(std::size_t slots)
        {
            if (stamp.size() < slots) {
                stamp.assign(slots, 0);
                gen = 0;
            }
            if (++gen == 0) { // stamp wrap: start a fresh epoch
                std::fill(stamp.begin(), stamp.end(), 0u);
                gen = 1;
            }
            return gen;
        }
    };

    /** The calling thread's stamp table (one per thread, not per model). */
    static RouteUnionStamps &routeUnionStamps();

    /** Span of the route src -> dst in both route arenas. */
    const RouteRef &
    routeRef(NodeId src, NodeId dst) const
    {
        if (isDramNode(src) && isDramNode(dst) && src != dst) {
            GEMINI_PANIC("DRAM-to-DRAM routes are not meaningful");
        }
        return routes_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(nodeCount()) +
                       static_cast<std::size_t>(dst)];
    }

    /** Uncached link classification (used to build the dense table). */
    LinkKind computeLinkKind(NodeId a, NodeId b) const;

    /** Fill routes_ and both arenas by walking every pair via `backend`. */
    template <typename Backend>
    void buildRoutes(const Backend &backend);

    arch::ArchConfig cfg_;

    /**
     * Dense per-(from, to) link classification, built once: summarize()
     * touches every link of every analysis, so the integer div/mod chain
     * behind computeLinkKind must not run per link per call.
     */
    std::vector<std::uint8_t> kindTable_;
    double nocBps_ = 0.0;
    double d2dBps_ = 0.0;

    /**
     * Dense route table: every (src, dst) pair's hop sequence, flattened
     * into two parallel arenas (packed keys and flat slots) that share
     * one RouteRef. Traffic accumulation replays the slot spans instead
     * of re-deriving routes hop by hop (the single hottest loop of the SA
     * mapper). DRAM-to-DRAM pairs, which have no meaningful route, hold
     * an empty span.
     */
    std::vector<RouteRef> routes_;
    std::vector<LinkKey> routeLinks_;
    std::vector<std::uint32_t> routeSlots_; ///< routeLinks_ as linkSlot
};

} // namespace gemini::noc

#endif // GEMINI_NOC_INTERCONNECT_HH
