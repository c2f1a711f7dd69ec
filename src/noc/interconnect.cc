#include "src/noc/interconnect.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <sstream>
#include <variant>

#include "src/common/logging.hh"
#include "src/noc/topologies.hh"

namespace gemini::noc {

template <typename Backend, typename OnSource>
InterconnectModel::TableCounts
InterconnectModel::countTables(const arch::ArchConfig &cfg,
                               const Backend &backend,
                               std::vector<std::uint64_t> &used,
                               OnSource &&on_source)
{
    const std::size_t cores = static_cast<std::size_t>(cfg.coreCount());
    const std::size_t n = cores + static_cast<std::size_t>(cfg.dramCount);
    // One source's routes back to back, as the nodes each hop enters.
    // A contiguous route from a is fixed by these: hop h leaves the node
    // hop h - 1 entered (a for h = 0).
    std::vector<std::uint32_t> hops;
    std::vector<std::uint32_t> start(n), len(n), leaf(n, 0);
    std::vector<std::uint32_t> interior(n, 0), placed(n, 0);
    TableCounts counts;
    for (std::size_t a = 0; a < n; ++a) {
        const auto stamp = static_cast<std::uint32_t>(a + 1);
        hops.clear();
        for (std::size_t b = 0; b < n; ++b) {
            start[b] = static_cast<std::uint32_t>(hops.size());
            if (a < cores || b < cores) {
                auto at = static_cast<NodeId>(a);
                bool contiguous = true;
                backend.walkHops(
                    cfg, static_cast<NodeId>(a), static_cast<NodeId>(b),
                    [&](NodeId from, NodeId to) {
                        contiguous &= from == at;
                        at = to;
                        interior[static_cast<std::size_t>(from)] = stamp;
                        const std::size_t slot =
                            static_cast<std::size_t>(from) * n +
                            static_cast<std::size_t>(to);
                        used[slot >> 6] |= std::uint64_t{1} << (slot & 63);
                        hops.push_back(static_cast<std::uint32_t>(to));
                    });
                GEMINI_ASSERT(contiguous && at == static_cast<NodeId>(b),
                              "route ", a, " -> ", b, " is not a walk from ",
                              a, " to ", b);
            }
            len[b] = static_cast<std::uint32_t>(hops.size()) - start[b];
        }
        // Point every node of a leaf route at that route's prefix, and
        // check that its own route is exactly that prefix.
        for (std::size_t b = 0; b < n; ++b) {
            if (len[b] == 0 || interior[b] == stamp)
                continue;
            leaf[b] = stamp;
            counts.sharedHops += len[b];
            const std::uint32_t *route = hops.data() + start[b];
            for (std::uint32_t h = 0; h < len[b]; ++h) {
                const std::size_t v = route[h];
                if (placed[v] == stamp)
                    continue;
                placed[v] = stamp;
                // v's own route must be exactly this prefix.
                const std::uint32_t *own = hops.data() + start[v];
                std::uint32_t diff = len[v] ^ (h + 1);
                if (diff == 0)
                    for (std::uint32_t k = 0; k <= h; ++k)
                        diff |= own[k] ^ route[k];
                GEMINI_ASSERT(diff == 0, "route ", a, " -> ", v,
                              " is not prefix-closed: it differs from "
                              "the route ", a, " -> ", b, " up to ", v);
            }
        }
        for (std::size_t b = 0; b < n; ++b) {
            GEMINI_ASSERT(len[b] == 0 || placed[b] == stamp, "route ", a,
                          " -> ", b, " lies on no stored route");
            // Core sources write to every DRAM, DRAM sources read into
            // every core: each such route lands in exactly one run.
            if ((a < cores) != (b < cores))
                counts.runHops += len[b];
        }
        on_source(a, len, leaf, stamp);
    }
    for (const std::uint64_t word : used)
        counts.links += static_cast<std::size_t>(std::popcount(word));
    return counts;
}

template <typename Backend>
void
InterconnectModel::buildRoutes(const Backend &backend)
{
    const std::size_t n = static_cast<std::size_t>(nodeCount());
    const std::size_t cores = static_cast<std::size_t>(cfg_.coreCount());
    // A leaf route is marked by the top bit of its length until placed.
    constexpr std::uint32_t kLeaf = std::uint32_t{1} << 31;
    routes_.resize(n * n);
    std::vector<std::uint64_t> used((n * n + 63) / 64, 0);
    const TableCounts counts = countTables(
        cfg_, backend, used,
        [&](std::size_t a, const std::vector<std::uint32_t> &len,
            const std::vector<std::uint32_t> &leaf, std::uint32_t stamp) {
            RouteRef *row = routes_.data() + a * n;
            for (std::size_t b = 0; b < n; ++b)
                row[b].length = len[b] | (leaf[b] == stamp ? kLeaf : 0u);
        });
    constexpr std::size_t kMaxOffset =
        std::numeric_limits<std::uint32_t>::max();
    GEMINI_ASSERT(counts.sharedHops <= kMaxOffset &&
                      counts.runHops <= kMaxOffset,
                  "InterconnectModel: route arenas overflow 32-bit offsets");
    const std::unique_ptr<LinkId[]> id_of = numberLinks(used, counts.links);

    // Store the leaf routes and point every node on one at its prefix,
    // in the order countTables checked them.
    routeIds_.resize(counts.sharedHops);
    std::vector<std::uint32_t> placed(n, 0);
    std::size_t cursor = 0;
    for (std::size_t a = 0; a < n; ++a) {
        const auto stamp = static_cast<std::uint32_t>(a + 1);
        RouteRef *row = routes_.data() + a * n;
        for (std::size_t b = 0; b < n; ++b) {
            if ((row[b].length & kLeaf) == 0)
                continue;
            row[b].length &= ~kLeaf;
            const auto first = static_cast<std::uint32_t>(cursor);
            backend.walkHops(
                cfg_, static_cast<NodeId>(a), static_cast<NodeId>(b),
                [&](NodeId from, NodeId to) {
                    const auto v = static_cast<std::size_t>(to);
                    routeIds_[cursor++] =
                        id_of[static_cast<std::size_t>(from) * n + v];
                    if (placed[v] != stamp) {
                        placed[v] = stamp;
                        row[v].offset = first;
                    }
                });
        }
    }
    GEMINI_ASSERT(cursor == routeIds_.size(), "shared arena miscounted");

    runIds_.resize(counts.runHops);
    runStart_.resize(2 * cores + 1);
    cursor = 0;
    const auto append = [&](NodeId src, NodeId dst) {
        for (const LinkId id : route(src, dst))
            runIds_[cursor++] = id;
    };
    for (std::size_t c = 0; c < cores; ++c) {
        const auto core = static_cast<NodeId>(c);
        runStart_[2 * c] = static_cast<std::uint32_t>(cursor);
        for (int d = 0; d < cfg_.dramCount; ++d)
            append(dramNode(d), core);
        runStart_[2 * c + 1] = static_cast<std::uint32_t>(cursor);
        for (int d = 0; d < cfg_.dramCount; ++d)
            append(core, dramNode(d));
    }
    runStart_[2 * cores] = static_cast<std::uint32_t>(cursor);
    GEMINI_ASSERT(cursor == runIds_.size(), "run arena miscounted");
}

std::unique_ptr<LinkId[]>
InterconnectModel::numberLinks(const std::vector<std::uint64_t> &used,
                               std::size_t links)
{
    const std::size_t n = static_cast<std::size_t>(nodeCount());
    // Slot -> id, written and read only at used slots: the rest of the
    // table stays uninitialized (and mostly never faulted in).
    auto id_of = std::make_unique_for_overwrite<LinkId[]>(n * n);
    linkKeys_.reserve(links);
    linkKinds_.reserve(links);
    for (std::size_t w = 0; w < used.size(); ++w) {
        for (std::uint64_t bits = used[w]; bits != 0; bits &= bits - 1) {
            const std::size_t slot =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            const auto from = static_cast<NodeId>(slot / n);
            const auto to = static_cast<NodeId>(slot % n);
            id_of[slot] = static_cast<LinkId>(linkKeys_.size());
            linkKeys_.push_back(makeLink(from, to));
            linkKinds_.push_back(
                static_cast<std::uint8_t>(linkKind(from, to)));
        }
    }
    return id_of;
}

InterconnectModel::InterconnectModel(const arch::ArchConfig &cfg) : cfg_(cfg)
{
    const std::string err = cfg.validate();
    GEMINI_ASSERT(err.empty(), "invalid arch for InterconnectModel: ", err);

    const std::size_t n = static_cast<std::size_t>(nodeCount());
    GEMINI_ASSERT(n * n <= std::numeric_limits<std::uint32_t>::max(),
                  "InterconnectModel: ", n, " nodes overflow 32-bit slots");
    nocBps_ = cfg_.nocBwGBps * 1.0e9;
    d2dBps_ = cfg_.d2dBwGBps * 1.0e9;

    // The only backend dispatch of the model's lifetime: build the route
    // tables once; every later query replays spans.
    std::visit([&](const auto &backend) { buildRoutes(backend); },
               topo::makeBackend(cfg_));
}

std::size_t
InterconnectModel::predictTableBytes(const arch::ArchConfig &cfg)
{
    const std::string err = cfg.validate();
    GEMINI_ASSERT(err.empty(), "invalid arch for predictTableBytes: ", err);
    const std::size_t cores = static_cast<std::size_t>(cfg.coreCount());
    const std::size_t n = cores + static_cast<std::size_t>(cfg.dramCount);
    std::vector<std::uint64_t> used((n * n + 63) / 64, 0);
    const TableCounts counts = std::visit(
        [&](const auto &backend) {
            return countTables(cfg, backend, used,
                               [](std::size_t, const auto &, const auto &,
                                  std::uint32_t) {});
        },
        topo::makeBackend(cfg));
    return n * n * sizeof(RouteRef) +
           (counts.sharedHops + counts.runHops) * sizeof(LinkId) +
           (2 * cores + 1) * sizeof(std::uint32_t) +
           counts.links * (sizeof(LinkKey) + sizeof(std::uint8_t));
}

std::size_t
InterconnectModel::tableBytes() const
{
    return routes_.size() * sizeof(RouteRef) +
           (routeIds_.size() + runIds_.size()) * sizeof(LinkId) +
           runStart_.size() * sizeof(std::uint32_t) +
           linkKeys_.size() * sizeof(LinkKey) +
           linkKinds_.size() * sizeof(std::uint8_t);
}

int
InterconnectModel::dramOf(NodeId n) const
{
    GEMINI_ASSERT(isDramNode(n), "node ", n, " is not a DRAM node");
    return n - cfg_.coreCount();
}

InterconnectModel::RouteUnionStamps &
InterconnectModel::routeUnionStamps()
{
    static thread_local RouteUnionStamps stamps;
    return stamps;
}

bool
InterconnectModel::sameRoutes(const InterconnectModel &other) const
{
    if (nodeCount() != other.nodeCount() ||
        cfg_.coreCount() != other.cfg_.coreCount() ||
        linkKeys_ != other.linkKeys_)
        return false;
    for (NodeId s = 0; s < nodeCount(); ++s)
        for (NodeId d = 0; d < nodeCount(); ++d)
            if (!(isDramNode(s) && isDramNode(d)) &&
                !std::ranges::equal(route(s, d), other.route(s, d)))
                return false;
    return true;
}

LinkKind
InterconnectModel::linkKind(NodeId a, NodeId b) const
{
    if (isDramNode(a) || isDramNode(b)) {
        // IO chiplets are separate dies, so their fabric attach links are
        // D2D on multi-chiplet designs; a monolithic chip integrates the
        // DRAM PHY on-die.
        return cfg_.chipletCount() > 1 ? LinkKind::D2D : LinkKind::OnChip;
    }
    return cfg_.crossesChiplet(static_cast<CoreId>(a),
                               static_cast<CoreId>(b))
               ? LinkKind::D2D
               : LinkKind::OnChip;
}

TrafficStats
InterconnectModel::summarize(const TrafficMap &map) const
{
    TrafficStats stats;
    for (const auto &[key, bytes] : map.links()) {
        const bool d2d =
            linkKind(linkFrom(key), linkTo(key)) == LinkKind::D2D;
        (d2d ? stats.d2dBytes : stats.onChipBytes) += bytes;
        const double secs = bytes / (d2d ? d2dBps_ : nocBps_);
        if (secs > stats.maxLinkSeconds) {
            stats.maxLinkSeconds = secs;
            stats.maxLink = key;
        }
    }
    return stats;
}

std::string
InterconnectModel::nodeLabel(NodeId n) const
{
    std::ostringstream oss;
    if (isDramNode(n)) {
        oss << "DRAM#" << dramOf(n) + 1;
    } else {
        oss << "(" << cfg_.coreX(static_cast<CoreId>(n)) << ","
            << cfg_.coreY(static_cast<CoreId>(n)) << ")";
    }
    return oss.str();
}

} // namespace gemini::noc
