#include "src/mapping/graph_partition.hh"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"
#include "src/mapping/stripe.hh"

namespace gemini::mapping {

std::vector<std::int64_t>
defaultBatchUnits(std::int64_t batch)
{
    std::vector<std::int64_t> units;
    for (std::int64_t d : divisorsOf(batch)) {
        if (d <= 16)
            units.push_back(d);
    }
    if (units.empty())
        units.push_back(1);
    return units;
}

namespace {

/**
 * The stripe mapping of segment [first, first + len) with one batch unit.
 * Every cross-group DRAM source is read interleaved during partitioning
 * (the stripe heuristic's own default, see interleavedRead), which is exact
 * for T-Map and a sound starting point for the SA refinement.
 */
LayerGroupMapping
stripeSegment(const dnn::Graph &graph, const arch::ArchConfig &arch,
              std::size_t first, std::size_t len, std::int64_t batch_unit)
{
    std::vector<LayerId> layers(len);
    for (std::size_t i = 0; i < len; ++i)
        layers[i] = static_cast<LayerId>(first + i);
    return stripeMapping(graph, arch, layers, batch_unit);
}

DramSel
interleavedRead(LayerId)
{
    return kDramInterleaved;
}

SegmentCost
costOf(const eval::EvalBreakdown &bd)
{
    return {bd.totalEnergy(), bd.delay, bd.glbOverflow};
}

/**
 * Additive DP surrogate of the multiplicative objective E^beta * D^gamma.
 * The true objective is a product of whole-network sums, which no additive
 * DP can represent exactly; to first order, minimizing
 * beta * E/E_ref + gamma * D/D_ref (with reference totals from a
 * layer-sequential pre-pass) minimizes the product. GLB overflow applies
 * the same quadratic penalty the SA cost uses.
 */
double
segmentScore(const SegmentCost &c, double e_ref, double d_ref, double beta,
             double gamma)
{
    const double penalty = (1.0 + c.glbOverflow) * (1.0 + c.glbOverflow);
    return beta * c.energy * penalty / e_ref +
           gamma * c.delay * penalty / d_ref;
}

/**
 * Write into `sig` everything the stripe evaluation reads of segment
 * [first, first + len) beyond the batch and its batch unit. Per layer, in
 * order: the geometry stripeMapping and the analyzer stages read, isOutput
 * and whether a consumer lies outside the segment (together FD.OF, see
 * needsOfmapDram), then per input its position inside the segment or, for
 * an outside producer, the shape the traffic compiler clamps DRAM reads
 * to. No input at all marks the external network input. Absolute layer
 * ids are left out, so repeated blocks share one signature.
 */
void
segmentSignature(const dnn::Graph &graph, std::size_t first, std::size_t len,
                 FragmentKey &sig)
{
    const auto begin = static_cast<LayerId>(first);
    const auto end = static_cast<LayerId>(first + len);
    sig.words.clear();
    sig.words.push_back(static_cast<std::int64_t>(len));
    for (LayerId id = begin; id < end; ++id) {
        const dnn::Layer &l = graph.layer(id);
        sig.words.insert(sig.words.end(),
                         {static_cast<std::int64_t>(l.kind), l.k, l.h, l.w,
                          l.c, l.ih, l.iw, l.r, l.s, l.strideH, l.strideW,
                          l.padH, l.padW, l.groups, l.heads, l.transposeB,
                          l.isOutput});
        const std::vector<LayerId> &consumers = graph.consumers(id);
        sig.words.push_back(std::any_of(consumers.begin(), consumers.end(),
                                        [end](LayerId c) { return c >= end; }));
        sig.words.push_back(
            static_cast<std::int64_t>(l.inputChannels.size()));
        sig.words.insert(sig.words.end(), l.inputChannels.begin(),
                         l.inputChannels.end());
        sig.words.push_back(static_cast<std::int64_t>(l.inputs.size()));
        for (LayerId in : l.inputs) {
            if (in >= begin) {
                sig.words.push_back(in - begin);
            } else {
                std::int64_t c, h, w;
                graph.producerShape(in, c, h, w);
                sig.words.insert(sig.words.end(), {-1, c, h, w});
            }
        }
    }
}

} // namespace

std::vector<SegmentTable>
buildSegmentTables(const dnn::Graph &graph, const arch::ArchConfig &arch,
                   const Analyzer &analyzer,
                   const std::vector<GroupPricer> &pricers,
                   const PartitionOptions &options)
{
    GEMINI_ASSERT(graph.finalized(), "graph must be finalized");
    GEMINI_ASSERT(options.batch >= 1, "batch must be positive");
    const std::int64_t batch = options.batch;
    const std::size_t max_len = static_cast<std::size_t>(
        std::max(1, std::min(options.maxGroupLayers, arch.coreCount())));
    const std::vector<std::int64_t> units =
        options.batchUnits.empty() ? defaultBatchUnits(batch)
                                   : options.batchUnits;
    const std::size_t n = graph.size();
    std::vector<SegmentTable> tables(pricers.size());
    for (SegmentTable &table : tables) {
        table.maxLen = max_len;
        table.units = units;
        table.refs.resize(n);
        table.segs.resize(n * max_len * units.size());
        table.firstOf.resize(n * max_len);
    }

    // Segment-major: each distinct (signature, batch unit) stripe group is
    // built and gathered once, then priced for every member, so only one
    // gathered group is live at a time.
    const OfmapDramLookup lookup = interleavedRead;
    GatheredGroup gathered;
    const auto gather = [&](std::size_t first, std::size_t len,
                            std::int64_t unit) {
        analyzer.gatherGroup(stripeSegment(graph, arch, first, len, unit),
                             batch, lookup, gathered);
    };

    std::unordered_map<FragmentKey, std::size_t, FragmentKeyHash> classes;
    FragmentKey sig;
    for (std::size_t end = 1; end <= n; ++end) {
        for (std::size_t len = 1; len <= std::min(max_len, end); ++len) {
            const std::size_t seg = tables.front().index(end, len);
            segmentSignature(graph, end - len, len, sig);
            const auto [it, fresh] = classes.try_emplace(sig, seg);
            const std::size_t src = it->second;
            for (SegmentTable &table : tables) {
                table.firstOf[seg] = src;
                if (fresh)
                    continue;
                std::copy_n(&table.segs[src * units.size()], units.size(),
                            &table.segs[seg * units.size()]);
                if (len == 1)
                    table.refs[end - 1] = table.refs[src / max_len];
            }
            if (!fresh)
                continue;
            // A layer's reference is its len-1 segment with the first
            // batch unit: one gather fills both.
            if (len == 1) {
                gather(end - 1, 1, units.front());
                for (std::size_t k = 0; k < pricers.size(); ++k)
                    tables[k].refs[end - 1] =
                        costOf(pricers[k].price(gathered));
            }
            for (std::size_t u = 0; u < units.size(); ++u) {
                if (batch % units[u] != 0)
                    continue;
                const bool is_ref = len == 1 && units[u] == units.front();
                if (!is_ref)
                    gather(end - len, len, units[u]);
                for (std::size_t k = 0; k < pricers.size(); ++k)
                    tables[k].segs[seg * units.size() + u] =
                        is_ref ? tables[k].refs[end - 1]
                               : costOf(pricers[k].price(gathered));
            }
        }
    }
    return tables;
}

LpMapping
partitionFromTable(const dnn::Graph &graph, const arch::ArchConfig &arch,
                   const Analyzer &analyzer, const cost::CostStack &costs,
                   const SegmentTable &table, const PartitionOptions &options)
{
    const std::size_t n = graph.size();
    const std::size_t max_len = table.maxLen;
    const std::vector<std::int64_t> &units = table.units;

    // Layer-sequential reference totals that normalize the additive DP
    // surrogate (see segmentScore), summed in layer order.
    double e_ref = 0.0, d_ref = 0.0;
    for (const SegmentCost &r : table.refs) {
        e_ref += r.energy;
        d_ref += r.delay;
    }
    GEMINI_ASSERT(e_ref > 0.0 && d_ref > 0.0, "degenerate reference costs");

    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> best(n + 1, kInf);
    std::vector<std::size_t> cut(n + 1, 0);        // segment start
    std::vector<std::int64_t> unit_at(n + 1, 1);   // chosen batch unit
    best[0] = 0.0;

    for (std::size_t end = 1; end <= n; ++end) {
        for (std::size_t len = 1;
             len <= std::min(max_len, end); ++len) {
            const std::size_t start = end - len;
            if (best[start] == kInf)
                continue;
            for (std::size_t u = 0; u < units.size(); ++u) {
                const std::int64_t bu = units[u];
                if (options.batch % bu != 0)
                    continue;
                const double seg =
                    segmentScore(table.at(end, len, u), e_ref, d_ref,
                                 options.beta, options.gamma);
                const double total = best[start] + seg;
                if (total < best[end]) {
                    best[end] = total;
                    cut[end] = start;
                    unit_at[end] = bu;
                }
            }
        }
    }
    GEMINI_ASSERT(best[n] < kInf, "graph partition DP found no solution");

    // Reconstruct the chosen segments front-to-back.
    std::vector<std::pair<std::size_t, std::size_t>> segments; // [start,end)
    std::vector<std::int64_t> seg_units;
    for (std::size_t end = n; end > 0;) {
        const std::size_t start = cut[end];
        segments.emplace_back(start, end);
        seg_units.push_back(unit_at[end]);
        end = start;
    }
    std::reverse(segments.begin(), segments.end());
    std::reverse(seg_units.begin(), seg_units.end());

    LpMapping mapping;
    mapping.batch = options.batch;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        LayerGroupMapping group = stripeSegment(
            graph, arch, segments[s].first,
            segments[s].second - segments[s].first, seg_units[s]);
        analyzer.evaluateGroup(group, options.batch, interleavedRead, costs);
        mapping.groups.push_back(std::move(group));
    }
    return mapping;
}

LpMapping
partitionGraph(const dnn::Graph &graph, const arch::ArchConfig &arch,
               Analyzer &analyzer, const cost::CostStack &costs,
               const PartitionOptions &options)
{
    const std::vector<SegmentTable> tables = buildSegmentTables(
        graph, arch, analyzer, {GroupPricer(analyzer.noc(), costs)},
        options);
    return partitionFromTable(graph, arch, analyzer, costs, tables.front(),
                              options);
}

} // namespace gemini::mapping
