#include "src/noc/interconnect.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <variant>

#include "src/common/logging.hh"
#include "src/noc/topologies.hh"

namespace gemini::noc {

template <typename Backend>
void
InterconnectModel::buildRoutes(const Backend &backend)
{
    const std::size_t n = static_cast<std::size_t>(nodeCount());
    routes_.resize(n * n);
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            RouteRef &ref = routes_[a * n + b];
            ref.offset = static_cast<std::uint32_t>(routeLinks_.size());
            if (isDramNode(static_cast<NodeId>(a)) &&
                isDramNode(static_cast<NodeId>(b)))
                continue; // no meaningful route; empty span
            backend.walkHops(cfg_, static_cast<NodeId>(a),
                             static_cast<NodeId>(b),
                             [this](NodeId from, NodeId to) {
                                 routeLinks_.push_back(makeLink(from, to));
                                 routeSlots_.push_back(
                                     static_cast<std::uint32_t>(
                                         linkSlot(from, to)));
                             });
            ref.length = static_cast<std::uint32_t>(routeLinks_.size()) -
                         ref.offset;
        }
    }
}

InterconnectModel::InterconnectModel(const arch::ArchConfig &cfg) : cfg_(cfg)
{
    const std::string err = cfg.validate();
    GEMINI_ASSERT(err.empty(), "invalid arch for InterconnectModel: ", err);

    const std::size_t n = static_cast<std::size_t>(nodeCount());
    GEMINI_ASSERT(n * n <= std::numeric_limits<std::uint32_t>::max(),
                  "InterconnectModel: ", n, " nodes overflow 32-bit slots");
    kindTable_.resize(n * n);
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b)
            kindTable_[a * n + b] = static_cast<std::uint8_t>(
                computeLinkKind(static_cast<NodeId>(a),
                                static_cast<NodeId>(b)));
    nocBps_ = cfg_.nocBwGBps * 1.0e9;
    d2dBps_ = cfg_.d2dBwGBps * 1.0e9;

    // The only backend dispatch of the model's lifetime: build the dense
    // route arena once; every later query replays spans.
    std::visit([this](const auto &backend) { buildRoutes(backend); },
               topo::makeBackend(cfg_));
}

NodeId
InterconnectModel::dramNode(int dram) const
{
    GEMINI_ASSERT(dram >= 0 && dram < cfg_.dramCount, "bad dram id ", dram);
    return cfg_.coreCount() + dram;
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

void
InterconnectModel::unicast(TrafficMap &map, NodeId src, NodeId dst,
                           double bytes) const
{
    unicastLinks(src, dst, bytes, [&](std::uint32_t slot) {
        map.addLink(linkAt(slot), bytes);
    });
}

void
InterconnectModel::multicast(TrafficMap &map, NodeId src,
                             const std::vector<NodeId> &dsts,
                             double bytes) const
{
    // Union of the backend's unicast paths: shared prefixes (the trunk,
    // the DRAM injection link, the NoP gateway funnel) are charged exactly
    // once, which models a multicast-capable router tree.
    multicastLinks(src, dsts, bytes, [&](std::uint32_t slot) {
        map.addLink(linkAt(slot), bytes);
    });
}

LinkKind
InterconnectModel::computeLinkKind(NodeId a, NodeId b) const
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
        const NodeId a = linkFrom(key);
        const NodeId b = linkTo(key);
        if (linkKind(a, b) == LinkKind::D2D)
            stats.d2dBytes += bytes;
        else
            stats.onChipBytes += bytes;
        const double secs = bytes / linkBandwidthBps(a, b);
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
