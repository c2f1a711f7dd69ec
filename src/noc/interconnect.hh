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

/**
 * Dense id of a directed link that some route uses (see
 * InterconnectModel::linkCount).
 */
using LinkId = std::uint32_t;

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

    NodeId
    dramNode(int dram) const
    {
        GEMINI_ASSERT(dram >= 0 && dram < cfg_.dramCount, "bad dram id ",
                      dram);
        return cfg_.coreCount() + dram;
    }

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
        for (LinkId id : route(src, dst))
            fn(linkFrom(linkAt(id)), linkTo(linkAt(id)));
    }

    /** Number of hops (links) on the route src -> dst. */
    int
    hopCount(NodeId src, NodeId dst) const
    {
        return static_cast<int>(route(src, dst).size());
    }

    /**
     * Hand the link id of every link of the route src -> dst to
     * `emit(LinkId)`, in hop order. Nothing is emitted for a non-positive
     * volume.
     */
    template <typename Emit>
    void
    unicastLinks(NodeId src, NodeId dst, double bytes, Emit &&emit) const
    {
        if (bytes <= 0.0)
            return;
        for (LinkId id : route(src, dst))
            emit(id);
    }

    /**
     * Hand the link id of every link of the route union src -> each dst
     * to `emit(LinkId)` exactly once, in first-touch (dst-major, hop)
     * order. Links are deduplicated through a generation-stamped dense
     * table (one stamp per link id) instead of a per-call sort or hash
     * set: route unions of a wide multicast reach hundreds of links.
     * Every instantiation shares the calling thread's stamp table, so
     * concurrent SA chains never contend and a generation bump makes
     * reset free.
     *
     * Routes are prefix-closed (for every node v on route(s, d),
     * route(s, v) is that route's prefix up to v; tests/test_interconnect.cc
     * holds every backend to it), so the already-stamped links of a
     * destination's route always form a prefix: each route is scanned
     * backward to its last stamped link and only the new suffix is
     * stamped and emitted, in hop order.
     */
    template <typename Emit>
    void
    multicastLinks(NodeId src, const std::vector<NodeId> &dsts, double bytes,
                   Emit &&emit) const
    {
        if (bytes <= 0.0 || dsts.empty())
            return;
        RouteUnionStamps &stamps = routeUnionStamps();
        const std::uint32_t gen = stamps.begin(linkCount());
        for (NodeId dst : dsts) {
            const std::span<const LinkId> hops = route(src, dst);
            std::size_t first_new = hops.size();
            while (first_new > 0 && stamps.stamp[hops[first_new - 1]] != gen)
                --first_new;
            for (LinkId id : hops.subspan(first_new)) {
                stamps.stamp[id] = gen;
                emit(id);
            }
        }
    }

    /**
     * The routes dramNode(0) -> core, ..., dramNode(D-1) -> core
     * concatenated in DRAM order (D = dramCount): the hop sequence of one
     * DRAM-interleaved read. The route arena lays these routes out
     * back to back, so this is one span of it, not a copy.
     */
    std::span<const LinkId>
    routesFromAllDrams(CoreId core) const
    {
        const NodeId dram0 = cfg_.coreCount();
        return arenaRun(routeRef(dram0, core),
                        routeRef(dram0 + cfg_.dramCount - 1, core));
    }

    /**
     * The routes core -> dramNode(0), ..., core -> dramNode(D-1)
     * concatenated in DRAM order: the hop sequence of one
     * DRAM-interleaved write, likewise one span of the route arena.
     */
    std::span<const LinkId>
    routesToAllDrams(CoreId core) const
    {
        const NodeId dram0 = cfg_.coreCount();
        return arenaRun(routeRef(core, dram0),
                        routeRef(core, dram0 + cfg_.dramCount - 1));
    }

    /**
     * Precomputed backend route src -> dst as link ids, in hop order
     * (linkAt decodes a hop): the form the emission helpers replay, so
     * the hot path indexes compact per-link tables without decoding.
     */
    std::span<const LinkId>
    route(NodeId src, NodeId dst) const
    {
        const RouteRef &ref = routeRef(src, dst);
        return {routeIds_.data() + ref.offset, ref.length};
    }

    /**
     * Kind of the directed link (a, b), classified from the geometry.
     * Hot paths hold link ids and read linkKindAt instead.
     */
    LinkKind linkKind(NodeId a, NodeId b) const;

    /** Peak bandwidth of the directed link in bytes/second. */
    double
    linkBandwidthBps(NodeId a, NodeId b) const
    {
        return linkKind(a, b) == LinkKind::D2D ? d2dBps_ : nocBps_;
    }

    /**
     * Number of distinct directed links on any route: link ids are
     * 0..linkCount()-1, numbered in ascending (from * nodeCount() + to)
     * order, so ascending id order is ascending link-key order.
     */
    std::size_t linkCount() const { return linkKeys_.size(); }

    /** Packed link key of a link id. */
    LinkKey linkAt(LinkId id) const { return linkKeys_[id]; }

    /** linkKind by link id (one byte per link, built once). */
    LinkKind
    linkKindAt(LinkId id) const
    {
        return static_cast<LinkKind>(linkKinds_[id]);
    }

    /** linkBandwidthBps by link id. */
    double
    linkBandwidthAt(LinkId id) const
    {
        return linkKindAt(id) == LinkKind::D2D ? d2dBps_ : nocBps_;
    }

    /**
     * The two bandwidth constants behind linkBandwidthAt, for batched
     * (SIMD) seconds computation over packed kind bytes: every link's
     * bandwidth is one of exactly these two values.
     */
    double nocBandwidthBps() const { return nocBps_; }
    double d2dBandwidthBps() const { return d2dBps_; }

    /**
     * Whether `other` has byte-identical route and link-id tables: every
     * route replays the same link ids and every id names the same link.
     * Link kinds and bandwidths may still differ (a mesh cut moves only
     * the kinds).
     */
    bool sameRoutes(const InterconnectModel &other) const;

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

        /** Open a new union over `links` link ids; returns its stamp. */
        std::uint32_t
        begin(std::size_t links)
        {
            if (stamp.size() < links) {
                stamp.assign(links, 0);
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

    /** The arena from `first`'s span through `last`'s, which follows it. */
    std::span<const LinkId>
    arenaRun(const RouteRef &first, const RouteRef &last) const
    {
        return {routeIds_.data() + first.offset,
                last.offset + last.length - first.offset};
    }

    /** Span of the route src -> dst in the route arena. */
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

    /**
     * Fill routes_ and the route arena (in the order described at
     * routes_) by walking every pair via `backend`; routeIds_ holds flat
     * slots (from * nodeCount() + to) until numberLinks rewrites them.
     * Marks every slot a route uses in `used`.
     */
    template <typename Backend>
    void buildRoutes(const Backend &backend, std::vector<std::uint64_t> &used);

    /**
     * Give every used slot its link id, the slot's rank among used slots
     * (one ascending bitmap scan, no sort), and rewrite routeIds_ from
     * slots to ids in one pass.
     */
    void numberLinks(const std::vector<std::uint64_t> &used);

    arch::ArchConfig cfg_;
    double nocBps_ = 0.0;
    double d2dBps_ = 0.0;

    /**
     * Dense route table: every (src, dst) pair's hop sequence as link
     * ids, flattened into one arena. Traffic accumulation replays the id
     * spans instead of re-deriving routes hop by hop (the single hottest
     * loop of the SA mapper). DRAM-to-DRAM pairs, which have no
     * meaningful route, hold an empty span. routes_ is indexed
     * src * nodeCount() + dst; the arena holds the core-sourced routes
     * in that order (so core -> DRAM 0..D-1 sit back to back) and then
     * the DRAM-sourced ones destination-major (DRAM 0..D-1 -> core back
     * to back), which is what makes routesFromAllDrams and
     * routesToAllDrams single spans.
     */
    std::vector<RouteRef> routes_;
    std::vector<LinkId> routeIds_;

    /**
     * Per-link-id tables. Only links some route uses get an id — a few
     * thousand even on the 264-node grid, against nodeCount^2 slots — so
     * every per-link structure indexed by id stays cache-resident.
     */
    std::vector<LinkKey> linkKeys_;
    std::vector<std::uint8_t> linkKinds_; ///< LinkKind per id
};

} // namespace gemini::noc

#endif // GEMINI_NOC_INTERCONNECT_HH
