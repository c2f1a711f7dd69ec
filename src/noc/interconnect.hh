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
#include <cstddef>
#include <cstdint>
#include <memory>
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

/**
 * Largest InterconnectModel::predictTableBytes a spec's inline grid may
 * need. Every DSE candidate stays below it: their grids are near-square
 * with 2 DRAMs, and the largest such tables (a 32x32 NoP hierarchy of
 * 1x2-core chiplets) hold 43.5 MiB. Thin grids with many DRAMs reach it
 * first: a 276x2 mesh with 8 DRAMs needs 63.5 MiB, 277x2 64.1 MiB.
 */
inline constexpr std::size_t kMaxRouteTableBytes = std::size_t{64} << 20;

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
     * DRAM-interleaved read, stored once per core in the run arena.
     */
    std::span<const LinkId>
    routesFromAllDrams(CoreId core) const
    {
        return dramRun(2 * static_cast<std::size_t>(core));
    }

    /**
     * The routes core -> dramNode(0), ..., core -> dramNode(D-1)
     * concatenated in DRAM order: the hop sequence of one
     * DRAM-interleaved write, likewise one span of the run arena.
     */
    std::span<const LinkId>
    routesToAllDrams(CoreId core) const
    {
        return dramRun(2 * static_cast<std::size_t>(core) + 1);
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
     * The two bandwidth constants behind linkBandwidthAt, for callers
     * that already hold a link's kind: every link's bandwidth is one of
     * exactly these two values.
     */
    double nocBandwidthBps() const { return nocBps_; }
    double d2dBandwidthBps() const { return d2dBps_; }

    /**
     * Whether `other` routes alike: every route replays the same link-id
     * sequence and every id names the same link, however the arenas lay
     * them out. Link kinds and bandwidths may still differ (a mesh cut
     * moves only the kinds).
     */
    bool sameRoutes(const InterconnectModel &other) const;

    /**
     * Bytes held by the route, run and link tables: the n^2 route refs,
     * the shared-prefix arena, the DRAM-interleaved run arena and the
     * per-link keys and kinds (n = nodeCount()).
     */
    std::size_t tableBytes() const;

    /**
     * tableBytes() of a model of `cfg`, counted by one walk of every
     * route without building any table (O(n) scratch plus a bitmap of
     * n^2 bits). `cfg` must pass ArchConfig::validate.
     */
    static std::size_t predictTableBytes(const arch::ArchConfig &cfg);

    /** Aggregate per-kind bytes and the bottleneck link time. */
    TrafficStats summarize(const TrafficMap &map) const;

    /** "(x,y)" or "DRAM#d" label for heatmap exports. */
    std::string nodeLabel(NodeId n) const;

  private:
    /** One route's span in the shared-prefix arena. */
    struct RouteRef
    {
        std::uint32_t offset = 0;
        std::uint32_t length = 0;
    };

    /** Sizes of the arenas and link tables, from the counting walk. */
    struct TableCounts
    {
        std::size_t sharedHops = 0; ///< routeIds_ entries
        std::size_t runHops = 0;    ///< runIds_ entries
        std::size_t links = 0;      ///< distinct links some route uses
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

    /** Run `run` of the run arena (core c: 2c reads, 2c + 1 writes). */
    std::span<const LinkId>
    dramRun(std::size_t run) const
    {
        return {runIds_.data() + runStart_[run],
                runStart_[run + 1] - runStart_[run]};
    }

    /** Span of the route src -> dst in the shared-prefix arena. */
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
     * Walk every route of `cfg` via `backend` once, source by source,
     * marking each link in `used` (one bit per from * n + to slot). A
     * route is stored whole only if it ends at a leaf: a node inside no
     * other route from the same source. Every other route must be the
     * prefix of the first leaf route (in destination order) that passes
     * its destination; this is checked hop by hop against the walk.
     * Hands `on_source(src, len, leaf, stamp)` the hop count of every
     * route from src (len[dst]) and its leaves (leaf[dst] == stamp).
     */
    template <typename Backend, typename OnSource>
    static TableCounts countTables(const arch::ArchConfig &cfg,
                                   const Backend &backend,
                                   std::vector<std::uint64_t> &used,
                                   OnSource &&on_source);

    /**
     * Size every table once from countTables, walk each source's leaf
     * routes again to store them in the shared-prefix arena, point every
     * other route at the prefix countTables checked it against, then
     * copy the DRAM-interleaved runs into the run arena.
     */
    template <typename Backend>
    void buildRoutes(const Backend &backend);

    /**
     * Give every used slot its link id, the slot's rank among used slots
     * (one ascending bitmap scan, no sort), and return the slot -> id
     * table (written only at used slots).
     */
    std::unique_ptr<LinkId[]>
    numberLinks(const std::vector<std::uint64_t> &used, std::size_t links);

    arch::ArchConfig cfg_;
    double nocBps_ = 0.0;
    double d2dBps_ = 0.0;

    /**
     * Route table, indexed src * nodeCount() + dst: each route's span in
     * the shared-prefix arena routeIds_. From each source, only the
     * routes to leaves (nodes inside no other route from that source:
     * on a mesh, the top and bottom rows and the DRAMs) are stored;
     * every other route is the prefix of a stored one that passes its
     * destination, so route(s, d) is still one contiguous span of link
     * ids in hop order. DRAM-to-DRAM pairs, which have no meaningful
     * route, hold an empty span. On a 32x32 mesh this stores about 13x
     * fewer hops than one span per pair.
     */
    std::vector<RouteRef> routes_;
    std::vector<LinkId> routeIds_;

    /**
     * Run arena: for each core c, the routes DRAM 0..D-1 -> c back to
     * back (run 2c), then c -> DRAM 0..D-1 (run 2c + 1), so
     * routesFromAllDrams and routesToAllDrams are single spans. Run r is
     * runIds_[runStart_[r], runStart_[r + 1]).
     */
    std::vector<LinkId> runIds_;
    std::vector<std::uint32_t> runStart_;

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
