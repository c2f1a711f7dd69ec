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

template <typename Backend>
void
InterconnectModel::buildRoutes(const Backend &backend,
                               std::vector<std::uint64_t> &used)
{
    const std::size_t n = static_cast<std::size_t>(nodeCount());
    const std::size_t cores = static_cast<std::size_t>(cfg_.coreCount());
    routes_.resize(n * n);
    auto build = [&](std::size_t a, std::size_t b) {
        RouteRef &ref = routes_[a * n + b];
        ref.offset = static_cast<std::uint32_t>(routeIds_.size());
        if (a >= cores && b >= cores)
            return; // no meaningful route; empty span
        backend.walkHops(
            cfg_, static_cast<NodeId>(a), static_cast<NodeId>(b),
            [&](NodeId from, NodeId to) {
                const auto slot = static_cast<std::uint32_t>(
                    static_cast<std::size_t>(from) * n +
                    static_cast<std::size_t>(to));
                routeIds_.push_back(slot);
                used[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            });
        ref.length =
            static_cast<std::uint32_t>(routeIds_.size()) - ref.offset;
    };
    for (std::size_t a = 0; a < cores; ++a)
        for (std::size_t b = 0; b < n; ++b)
            build(a, b);
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t a = cores; a < n; ++a)
            build(a, b);
}

void
InterconnectModel::numberLinks(const std::vector<std::uint64_t> &used)
{
    const std::size_t n = static_cast<std::size_t>(nodeCount());
    // Slot -> id, written and read only at used slots: the rest of the
    // table stays uninitialized (and mostly never faulted in).
    const auto id_of = std::make_unique_for_overwrite<LinkId[]>(n * n);
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
    for (LinkId &hop : routeIds_)
        hop = id_of[hop];
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

    // The only backend dispatch of the model's lifetime: build the dense
    // route arena once; every later query replays spans.
    std::vector<std::uint64_t> used((n * n + 63) / 64, 0);
    std::visit([&](const auto &backend) { buildRoutes(backend, used); },
               topo::makeBackend(cfg_));
    numberLinks(used);
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
    return nodeCount() == other.nodeCount() &&
           std::equal(routes_.begin(), routes_.end(), other.routes_.begin(),
                      other.routes_.end(),
                      [](const RouteRef &a, const RouteRef &b) {
                          return a.offset == b.offset &&
                                 a.length == b.length;
                      }) &&
           routeIds_ == other.routeIds_ && linkKeys_ == other.linkKeys_;
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
