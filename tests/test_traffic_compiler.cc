/**
 * @file
 * Differential test of the traffic compiler against a reference written
 * here from the model's definition: every producer piece is tested
 * against every consumer piece (no index lookup), identical requests
 * group through an ordered map, and every flow walks its routes hop by
 * hop (forEachHop), dedupes its multicast union with its own set, loops
 * over the DRAM stacks of an interleaved access itself and adds into a
 * TrafficMap: none of the compiler's emission helpers (multicastLinks,
 * the interleaved spans) takes part.
 * Random schemes over conv-style and transformer graphs, every topology
 * backend, a monolithic hierarchy, three DRAM stacks, the 256-core large
 * grid and a sparse 32x32 mesh, uneven splits, batch-split partitions and
 * interleaved/pinned DRAM selectors must give bit-equal per-link bytes in
 * ascending link-key order (link ids decoded through linkAt), the same
 * link count, DRAM bytes and GLB overflow; a compile that throws midway
 * must not leak into the next. The DenseLinkAccumulator every link merge
 * goes through is checked here too: its ascending drain and its overflow
 * guard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/arch/presets.hh"
#include "src/common/math_util.hh"
#include "src/common/rng.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/traffic_compiler.hh"
#include "src/noc/interconnect.hh"

using namespace gemini;
using mapping::LayerGroupMapping;
using mapping::LayerTiles;
using mapping::MappingScheme;
using mapping::WorkRegion;
using noc::LinkKey;
using noc::NodeId;

namespace {

/**
 * Conv-style graph with uneven spatial dims: strided/padded and
 * asymmetric convs, depthwise and grouped convs, pooling, a 3-input
 * eltwise, a concat of differently-sized producers and an upsample.
 */
dnn::Graph
convGraph()
{
    dnn::GraphBuilder b("compiler_diff", 8, 17, 15);
    const LayerId c1 = b.conv("c1", dnn::GraphBuilder::kInput, 12, 3, 2, 1);
    const LayerId dw = b.depthwise("dw", c1, 3, 1, 1);
    const LayerId c2 = b.conv("c2", dw, 16, 3, 1, 1, 1, 0);
    const LayerId c3 = b.conv("c3", dw, 16, 1, 1, 0);
    const LayerId p = b.pool("p", c1, 3, 1, 1);
    const LayerId pw = b.pointwise("pw", p, 16);
    const LayerId e3 = b.eltwise("e3", {c2, pw, c3});
    const LayerId cat = b.concat("cat", {e3, c1, pw});
    const LayerId up = b.upsample("up", cat, 2);
    b.conv("gc", up, 22, 3, 2, 1, 2);
    return b.finish();
}

/** Flows as the reference computes them. */
struct RefFlows
{
    noc::TrafficMap map;
    std::vector<double> dramBytes;
    double glbOverflow = 0.0;
};

class Reference
{
  public:
    Reference(const dnn::Graph &graph, const arch::ArchConfig &arch,
              const noc::InterconnectModel &noc)
        : graph_(graph), arch_(arch), noc_(noc)
    {
    }

    RefFlows
    compile(const LayerGroupMapping &group, std::size_t li,
            const std::vector<const LayerTiles *> &tiles,
            std::int64_t num_units,
            const mapping::OfmapDramLookup &ofmap_dram_of)
    {
        RefFlows out;
        out.dramBytes.assign(static_cast<std::size_t>(arch_.dramCount), 0.0);
        const dnn::Layer &layer = graph_.layer(group.layers[li]);
        const MappingScheme &ms = group.schemes[li];
        const std::span<const WorkRegion> mine = tiles[li]->regions;
        const std::size_t n = mine.size();
        std::vector<double> input_bytes(n, 0.0);
        auto node_of = [&](std::size_t i) {
            return noc_.coreNode(ms.coreGroup[i]);
        };

        const std::size_t n_inputs =
            std::max<std::size_t>(layer.inputs.size(), 1);
        for (std::size_t j = 0; j < n_inputs; ++j) {
            const bool external = layer.inputs.empty();
            const LayerId producer = external ? -1 : layer.inputs[j];
            const int pi = external ? -1 : group.indexOf(producer);
            if (pi >= 0) {
                const auto ps = static_cast<std::size_t>(pi);
                const std::span<const WorkRegion> theirs = tiles[ps]->regions;
                const MappingScheme &pms = group.schemes[ps];
                for (std::size_t a = 0; a < theirs.size(); ++a) {
                    const WorkRegion &pp = theirs[a];
                    Requests requests;
                    for (std::size_t i = 0; i < n; ++i) {
                        const WorkRegion &cp = mine[i];
                        const std::int64_t b0 = std::max(cp.b0, pp.b0);
                        const std::int64_t b1 = std::min(cp.b1, pp.b1);
                        const dnn::Region ov =
                            layer.requiredInput(j, cp.region)
                                .intersect(pp.region);
                        if (b1 <= b0 || ov.empty() ||
                            ms.coreGroup[i] == pms.coreGroup[a])
                            continue;
                        auto &req = requests[keyOf(ov, b0, b1)];
                        req.first = static_cast<double>(ov.volume() *
                                                        (b1 - b0));
                        req.second.push_back(node_of(i));
                    }
                    for (auto &[key, req] : requests)
                        multicast(out, noc_.coreNode(pms.coreGroup[a]),
                                  req.second, req.first);
                }
                const dnn::Layer &pl = graph_.layer(producer);
                for (std::size_t i = 0; i < n; ++i) {
                    const dnn::Region ov =
                        layer.requiredInput(j, mine[i].region)
                            .clampTo(pl.k, pl.h, pl.w);
                    input_bytes[i] += static_cast<double>(
                        ov.volume() * (mine[i].b1 - mine[i].b0));
                }
            } else {
                const DramSel src =
                    external ? ms.fd.ifmap : ofmap_dram_of(producer);
                std::int64_t pc, ph, pw;
                graph_.producerShape(producer, pc, ph, pw);
                Requests requests;
                for (std::size_t i = 0; i < n; ++i) {
                    const dnn::Region rq =
                        layer.requiredInput(j, mine[i].region)
                            .clampTo(pc, ph, pw);
                    if (rq.empty())
                        continue;
                    const double bytes = static_cast<double>(
                        rq.volume() * (mine[i].b1 - mine[i].b0));
                    input_bytes[i] += bytes;
                    auto &req = requests[keyOf(rq, mine[i].b0, mine[i].b1)];
                    req.first = bytes;
                    req.second.push_back(node_of(i));
                }
                for (auto &[key, req] : requests)
                    dramRead(out, src, req.first, req.second);
            }
        }

        if (layer.hasWeights()) {
            Requests requests;
            bool resident = true;
            for (std::size_t i = 0; i < n; ++i) {
                const std::int64_t klen = mine[i].region.channels();
                const double wbytes =
                    static_cast<double>(klen * (layer.c / layer.groups) *
                                        layer.r * layer.s) +
                    4.0 * klen;
                auto &req =
                    requests[Key{mine[i].region.c0, 0, 0, 0, 0, 0, 0, 0}];
                req.first = wbytes;
                req.second.push_back(node_of(i));
                if (wbytes + 2.0 * (input_bytes[i] +
                                    static_cast<double>(mine[i].volume())) >
                    static_cast<double>(arch_.glbBytes()))
                    resident = false;
            }
            const double factor =
                resident ? 1.0 / static_cast<double>(num_units) : 1.0;
            for (auto &[key, req] : requests)
                dramRead(out, ms.fd.weight, req.first * factor, req.second);
        }

        if (ms.fd.ofmap != kDramUnmanaged) {
            for (std::size_t i = 0; i < n; ++i)
                dramWrite(out, ms.fd.ofmap,
                          static_cast<double>(mine[i].volume()), node_of(i));
        }

        for (std::size_t i = 0; i < n; ++i) {
            double need = 2.0 * (input_bytes[i] +
                                 static_cast<double>(mine[i].volume()));
            if (layer.hasWeights()) {
                const std::int64_t klen = mine[i].region.channels();
                need += std::min(
                    static_cast<double>(klen * (layer.c / layer.groups) *
                                        layer.r * layer.s),
                    static_cast<double>(arch_.glbBytes()) / 4);
            }
            out.glbOverflow = std::max(
                out.glbOverflow,
                need / static_cast<double>(arch_.glbBytes()) - 1.0);
        }
        return out;
    }

  private:
    using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t>;
    /** Requests grouped by key: (bytes, destination nodes). */
    using Requests = std::map<Key, std::pair<double, std::vector<NodeId>>>;

    static Key
    keyOf(const dnn::Region &r, std::int64_t b0, std::int64_t b1)
    {
        return {r.c0, r.c1, r.h0, r.h1, r.w0, r.w1, b0, b1};
    }

    /**
     * One multicast tree: walks every destination's route hop by hop and
     * charges each link of the union once. A single destination is the
     * unicast route.
     */
    void
    multicast(RefFlows &out, NodeId src, const std::vector<NodeId> &dsts,
              double bytes)
    {
        if (bytes <= 0.0)
            return;
        std::unordered_set<LinkKey> tree;
        for (NodeId dst : dsts) {
            noc_.forEachHop(src, dst, [&](NodeId a, NodeId b) {
                const LinkKey key = noc::makeLink(a, b);
                if (tree.insert(key).second)
                    out.map.addLink(key, bytes);
            });
        }
    }

    /** One DRAM-side flow per stack a selector covers, in DRAM order. */
    template <typename Fn>
    void
    forEachDram(RefFlows &out, DramSel sel, double bytes, const Fn &fn)
    {
        if (bytes <= 0.0)
            return;
        const bool all = sel == kDramInterleaved;
        const double share = all ? bytes / arch_.dramCount : bytes;
        for (int d = all ? 0 : sel - 1; d < (all ? arch_.dramCount : sel);
             ++d) {
            fn(noc_.dramNode(d), share);
            out.dramBytes[static_cast<std::size_t>(d)] += share;
        }
    }

    void
    dramRead(RefFlows &out, DramSel sel, double bytes,
             const std::vector<NodeId> &dsts)
    {
        if (dsts.empty())
            return;
        forEachDram(out, sel, bytes, [&](NodeId dram, double share) {
            multicast(out, dram, dsts, share);
        });
    }

    void
    dramWrite(RefFlows &out, DramSel sel, double bytes, NodeId src)
    {
        forEachDram(out, sel, bytes, [&](NodeId dram, double share) {
            multicast(out, src, {dram}, share);
        });
    }

    const dnn::Graph &graph_;
    const arch::ArchConfig &arch_;
    const noc::InterconnectModel &noc_;
};

/** A random DRAM selector: interleaved or pinned to one stack. */
DramSel
randomDram(const arch::ArchConfig &arch, Rng &rng)
{
    return static_cast<DramSel>(rng.nextRange(0, arch.dramCount));
}

/**
 * A random group over a contiguous window of `graph`: random piece
 * counts and partitions (uneven chunkOf splits, batch splits when the
 * batch unit allows), random core groups (possibly shared between
 * layers, which exercises the local-read skip) and random selectors.
 */
LayerGroupMapping
randomGroup(const dnn::Graph &graph, const arch::ArchConfig &arch,
            std::int64_t max_pieces, Rng &rng)
{
    LayerGroupMapping group;
    const auto n = static_cast<std::int64_t>(graph.size());
    const std::int64_t len = rng.nextRange(1, std::min<std::int64_t>(n, 8));
    const std::int64_t first = rng.nextRange(0, n - len);
    group.batchUnit = std::int64_t{1} << rng.nextRange(0, 2);
    std::vector<CoreId> cores(static_cast<std::size_t>(arch.coreCount()));
    for (std::size_t c = 0; c < cores.size(); ++c)
        cores[c] = static_cast<CoreId>(c);
    for (std::int64_t id = first; id < first + len; ++id) {
        const dnn::Layer &layer = graph.layer(static_cast<LayerId>(id));
        MappingScheme ms;
        ms.part.h = 0;
        while (ms.part.count() == 0)
            ms.part = mapping::randomPartition(
                rng.nextRange(1, std::min<std::int64_t>(max_pieces,
                                                        arch.coreCount())),
                layer.h, layer.w, group.batchUnit, layer.k, {}, rng);
        rng.shuffle(cores);
        ms.coreGroup.assign(cores.begin(), cores.begin() + ms.part.count());
        ms.fd.ifmap = randomDram(arch, rng);
        ms.fd.weight = randomDram(arch, rng);
        ms.fd.ofmap =
            rng.nextBool(0.5) ? kDramUnmanaged : randomDram(arch, rng);
        group.layers.push_back(static_cast<LayerId>(id));
        group.schemes.push_back(std::move(ms));
    }
    return group;
}

/** Tiles as the tiling stage lays them out (regions only). */
LayerTiles
tilesOf(const dnn::Layer &layer, const MappingScheme &ms,
        std::int64_t batch_unit, common::BumpArena &payload)
{
    const auto regions = payload.allocSpan<WorkRegion>(
        static_cast<std::size_t>(ms.part.count()));
    for (std::int64_t nid = 0; nid < ms.part.count(); ++nid)
        regions[static_cast<std::size_t>(nid)] = mapping::workRegionOf(
            layer, ms.part, batch_unit, mapping::workIndexOf(ms.part, nid));
    LayerTiles out;
    out.regions = regions;
    return out;
}

/**
 * Compile `trials` random groups on `arch` and diff every layer; the
 * longest link list compiled goes to `longest` when given.
 */
void
diffAgainstReference(const dnn::Graph &graph, const arch::ArchConfig &arch,
                     std::int64_t max_pieces, int trials, std::uint64_t seed,
                     std::size_t *longest = nullptr)
{
    const noc::InterconnectModel noc(arch);
    const mapping::TrafficCompiler compiler(graph, arch, noc);
    Reference reference(graph, arch, noc);
    Rng rng(seed);
    std::size_t in_group_inputs = 0;
    for (int trial = 0; trial < trials; ++trial) {
        const LayerGroupMapping group =
            randomGroup(graph, arch, max_pieces, rng);
        common::BumpArena payload;
        std::vector<LayerTiles> tiles;
        for (std::size_t li = 0; li < group.layers.size(); ++li)
            tiles.push_back(tilesOf(graph.layer(group.layers[li]),
                                    group.schemes[li], group.batchUnit,
                                    payload));
        std::vector<const LayerTiles *> tile_ptrs;
        for (const LayerTiles &t : tiles)
            tile_ptrs.push_back(&t);
        std::map<LayerId, DramSel> outside;
        const mapping::OfmapDramLookup lookup = [&](LayerId producer) {
            auto [it, fresh] = outside.try_emplace(producer, 0);
            if (fresh)
                it->second = randomDram(arch, rng);
            return it->second;
        };
        const std::int64_t num_units = rng.nextRange(1, 4);

        // One fragment refilled for every layer: a compile must overwrite
        // whatever the previous one left in it.
        mapping::LayerFlows got;
        for (std::size_t li = 0; li < group.layers.size(); ++li) {
            for (LayerId in : graph.layer(group.layers[li]).inputs)
                in_group_inputs += group.indexOf(in) >= 0 ? 1 : 0;
            compiler.compile(group, li, tile_ptrs, num_units, lookup, got,
                             payload);
            const RefFlows want =
                reference.compile(group, li, tile_ptrs, num_units, lookup);
            const std::string where = arch.name + " trial " +
                                      std::to_string(trial) + " layer " +
                                      graph.layer(group.layers[li]).name;
            // Ascending link id is ascending link key.
            const std::map<LinkKey, double> sorted(
                want.map.links().begin(), want.map.links().end());
            ASSERT_EQ(got.links.size(), sorted.size()) << where;
            std::size_t e = 0;
            for (const auto &[key, bytes] : sorted) {
                ASSERT_EQ(noc.linkAt(got.links[e].first), key)
                    << where << " link #" << e;
                ASSERT_EQ(got.links[e].second, bytes)
                    << where << " link #" << e;
                ++e;
            }
            if (longest != nullptr)
                *longest = std::max(*longest, got.links.size());
            ASSERT_EQ(got.dramBytes.size(), want.dramBytes.size()) << where;
            for (std::size_t d = 0; d < want.dramBytes.size(); ++d)
                ASSERT_EQ(got.dramBytes[d], want.dramBytes[d])
                    << where << " DRAM " << d;
            ASSERT_EQ(got.glbOverflow, want.glbOverflow) << where;
        }
    }
    EXPECT_GT(in_group_inputs, 0u) << "no in-group flow was exercised";
}

arch::ArchConfig
smallArch(arch::Topology topology)
{
    arch::ArchConfig cfg = arch::gArch72(); // 6x6, 2 chiplets, 2 DRAMs
    cfg.name = "diff72";
    cfg.topology = topology;
    return cfg;
}

const arch::Topology kTopologies[] = {
    arch::Topology::Mesh, arch::Topology::FoldedTorus,
    arch::Topology::ConcentratedRing, arch::Topology::HierarchicalNop};

} // namespace

TEST(ChunkIndexOf, InvertsChunkOf)
{
    // The ChunkGrid lookups the compiler's overlap boxes use, against
    // chunkOf: every position maps to its chunk, and every range (halo
    // overhang included) spans exactly the chunks it intersects.
    for (std::int64_t total = 1; total <= 40; ++total) {
        for (std::int64_t parts = 1; parts <= total; ++parts) {
            const ChunkGrid grid(total, parts);
            for (std::int64_t idx = 0; idx < parts; ++idx) {
                const ChunkRange r = chunkOf(total, parts, idx);
                for (std::int64_t pos = r.offset; pos < r.offset + r.length;
                     ++pos)
                    ASSERT_EQ(grid.indexOf(pos), idx)
                        << total << "/" << parts << " @" << pos;
            }
            for (std::int64_t lo = -2; lo <= total + 1; ++lo) {
                for (std::int64_t hi = lo; hi <= total + 2; ++hi) {
                    std::int64_t first = parts, last = 0;
                    for (std::int64_t idx = 0; idx < parts; ++idx) {
                        const ChunkRange r = chunkOf(total, parts, idx);
                        if (lo < hi && r.offset < hi &&
                            lo < r.offset + r.length) {
                            first = std::min(first, idx);
                            last = idx + 1;
                        }
                    }
                    const auto [got_first, got_last] = grid.span(lo, hi);
                    if (last == 0) { // no chunk meets [lo, hi)
                        ASSERT_GE(got_first, got_last)
                            << total << "/" << parts << " [" << lo << ","
                            << hi << ")";
                        continue;
                    }
                    ASSERT_EQ(got_first, first)
                        << total << "/" << parts << " [" << lo << "," << hi
                        << ")";
                    ASSERT_EQ(got_last, last)
                        << total << "/" << parts << " [" << lo << "," << hi
                        << ")";
                }
            }
        }
    }
}

TEST(TrafficCompilerDiff, ConvGraphEveryTopology)
{
    const dnn::Graph graph = convGraph();
    std::uint64_t seed = 0xC0117u;
    for (arch::Topology topology : kTopologies)
        diffAgainstReference(graph, smallArch(topology), 36, 40, ++seed);
}

TEST(TrafficCompilerDiff, TransformerEveryTopology)
{
    const dnn::Graph graph = dnn::zoo::tinyTransformer(24, 32, 4, 1);
    std::uint64_t seed = 0x7F0u;
    for (arch::Topology topology : kTopologies)
        diffAgainstReference(graph, smallArch(topology), 36, 40, ++seed);
}

TEST(TrafficCompilerDiff, MonolithicHierarchyFallsBackToMesh)
{
    arch::ArchConfig arch = smallArch(arch::Topology::HierarchicalNop);
    arch.name = "mono_nop";
    arch.xCut = 1;
    arch.yCut = 1;
    diffAgainstReference(convGraph(), arch, 36, 40, 0x404Eu);
    diffAgainstReference(dnn::zoo::tinyTransformer(24, 32, 4, 1), arch, 36,
                         40, 0x404Fu);
}

TEST(TrafficCompilerDiff, ThreeDramsEveryTopology)
{
    // Interleaved shares of a third are not dyadic, so every per-link
    // sum is sensitive to its fold order.
    std::uint64_t seed = 0xD3A0u;
    for (arch::Topology topology : kTopologies) {
        arch::ArchConfig arch = smallArch(topology);
        arch.name = "dram3";
        arch.dramCount = 3;
        diffAgainstReference(convGraph(), arch, 36, 40, ++seed);
        diffAgainstReference(dnn::zoo::tinyTransformer(24, 32, 4, 1), arch,
                             36, 40, ++seed);
    }
}

TEST(TrafficCompilerDiff, LargeGrid)
{
    const arch::ArchConfig arch = arch::largeGridArch();
    diffAgainstReference(convGraph(), arch, 128, 12, 0x1A46Eu);
    diffAgainstReference(dnn::zoo::tinyTransformer(24, 32, 4, 1), arch, 128,
                         12, 0x1A46Fu);
}

TEST(TrafficCompilerDiff, SparseLargeGrid)
{
    // A small graph on a 32x32 mesh: every compile touches a small
    // fraction of the links, so the ascending drain skips long runs of
    // untouched ids.
    arch::ArchConfig arch = smallArch(arch::Topology::Mesh);
    arch.name = "sparse1024";
    arch.xCores = arch.yCores = 32;
    arch.xCut = arch.yCut = 2;
    std::size_t longest = 0;
    diffAgainstReference(convGraph(), arch, 8, 12, 0x5A45u, &longest);
    diffAgainstReference(dnn::zoo::tinyTransformer(24, 32, 4, 1), arch, 8,
                         12, 0x5A46u, &longest);
    EXPECT_GT(longest, 0u);
    EXPECT_LT(longest, noc::InterconnectModel(arch).linkCount() / 4);
}

TEST(TrafficCompilerThrow, NextCompileMatchesAFreshCompiler)
{
    // The eltwise e3 alone in its group: all three of its inputs come
    // from other groups, so the first input's DRAM reads have added route
    // hops when the second input's lookup throws.
    const dnn::Graph graph = convGraph();
    const arch::ArchConfig arch = smallArch(arch::Topology::Mesh);
    const noc::InterconnectModel noc(arch);
    LayerGroupMapping group;
    for (LayerId id = 0; static_cast<std::size_t>(id) < graph.size(); ++id)
        if (graph.layer(id).name == "e3")
            group.layers.push_back(id);
    ASSERT_EQ(group.layers.size(), 1u);
    MappingScheme ms;
    ms.part.h = 2;
    ms.part.k = 2;
    ms.coreGroup = {0, 7, 20, 35};
    ms.fd.ifmap = ms.fd.weight = 1;
    ms.fd.ofmap = kDramInterleaved;
    group.schemes.push_back(ms);
    common::BumpArena payload;
    const LayerTiles tiles = tilesOf(graph.layer(group.layers[0]),
                                     group.schemes[0], group.batchUnit,
                                     payload);
    const std::vector<const LayerTiles *> tile_ptrs{&tiles};
    int lookups = 0;
    const mapping::OfmapDramLookup throwing = [&](LayerId) -> DramSel {
        if (++lookups == 2)
            throw std::runtime_error("lookup failed");
        return 1;
    };
    const mapping::OfmapDramLookup pinned = [](LayerId) -> DramSel {
        return 1;
    };

    const mapping::TrafficCompiler compiler(graph, arch, noc);
    mapping::LayerFlows got;
    EXPECT_THROW(compiler.compile(group, 0, tile_ptrs, 2, throwing, got,
                                  payload),
                 std::runtime_error);
    ASSERT_EQ(lookups, 2);
    compiler.compile(group, 0, tile_ptrs, 2, pinned, got, payload);

    const mapping::TrafficCompiler fresh(graph, arch, noc);
    mapping::LayerFlows want;
    fresh.compile(group, 0, tile_ptrs, 2, pinned, want, payload);
    ASSERT_FALSE(want.links.empty());
    ASSERT_EQ(got.links.size(), want.links.size());
    for (std::size_t e = 0; e < want.links.size(); ++e) {
        ASSERT_EQ(got.links[e].first, want.links[e].first) << "#" << e;
        ASSERT_EQ(got.links[e].second, want.links[e].second) << "#" << e;
    }
    ASSERT_EQ(got.dramBytes.size(), want.dramBytes.size());
    for (std::size_t d = 0; d < want.dramBytes.size(); ++d)
        EXPECT_EQ(got.dramBytes[d], want.dramBytes[d]) << "DRAM " << d;
    EXPECT_EQ(got.glbOverflow, want.glbOverflow);
}

namespace {

TEST(DenseLinkAccumulatorDrain, MatchesOrderedMapReference)
{
    // Random add sequences with repeated ids, each round ending in the
    // ascending drain, all on one accumulator; some rounds add nothing,
    // and a matching-size reset between rounds changes nothing. Sums
    // accumulate in add order on both sides, so ids, bytes and the count
    // are bit-equal to an ordered-map accumulation.
    Rng rng(0xD7A1Dull);
    mapping::DenseLinkAccumulator acc;
    for (const std::size_t links :
         {1u, 2u, 63u, 64u, 65u, 127u, 129u, 700u, 1024u, 2011u}) {
        acc.reset(links);
        for (int round = 0; round < 24; ++round) {
            std::map<noc::LinkId, double> sums;
            const std::int64_t adds = rng.nextRange(
                0, 3 * static_cast<std::int64_t>(links));
            for (std::int64_t a = 0; a < adds; ++a) {
                // Few distinct ids per round in some rounds, so repeats
                // and long untouched runs both occur.
                const std::int64_t span =
                    round % 2 ? static_cast<std::int64_t>(links)
                              : std::min<std::int64_t>(
                                    static_cast<std::int64_t>(links), 5);
                const auto id = static_cast<noc::LinkId>(
                    (rng.nextInt(span) * 37) %
                    static_cast<std::int64_t>(links));
                const double bytes = 0.5 + rng.nextDouble() * 1.0e6;
                sums[id] += bytes;
                acc.add(id, bytes);
            }
            if (round % 3 == 2)
                acc.reset(links);
            std::vector<std::pair<noc::LinkId, double>> got;
            const auto collect = [&](noc::LinkId id, double bytes) {
                got.emplace_back(id, bytes);
            };
            ASSERT_EQ(acc.drain(collect), sums.size()) << links;
            ASSERT_EQ(got.size(), sums.size()) << links;
            std::size_t e = 0;
            for (const auto &[id, bytes] : sums) {
                ASSERT_EQ(got[e].first, id) << links << " #" << e;
                ASSERT_EQ(got[e].second, bytes) << links << " #" << e;
                ++e;
            }
            // The drain left the table empty.
            got.clear();
            ASSERT_EQ(acc.drain(collect), 0u) << links;
            ASSERT_TRUE(got.empty()) << links;
        }
    }
}

TEST(DenseLinkAccumulatorGuard, RejectsLinkCountsBeyondTheIdSpace)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    mapping::DenseLinkAccumulator acc;
    EXPECT_DEATH(
        acc.reset(mapping::DenseLinkAccumulator::kMaxLinks + 1),
        "dense-table limit");
}

TEST(DenseLinkAccumulatorGuard, TableIsSizedByLinkCount)
{
    // Every 32-bit link id must be addressable, and the table of the
    // largest preset grid is its link count, not nodeCount^2.
    static_assert(mapping::DenseLinkAccumulator::kMaxLinks ==
                      std::size_t{1} << 32,
                  "link ids are 32-bit");
    const noc::InterconnectModel noc(arch::largeGridArch());
    const std::size_t n = static_cast<std::size_t>(noc.nodeCount());
    ASSERT_LT(noc.linkCount(), n * n / 16);
    mapping::DenseLinkAccumulator acc;
    acc.reset(noc.linkCount());
    const auto last = static_cast<noc::LinkId>(noc.linkCount() - 1);
    acc.add(last, 123.0);
    bool seen = false;
    acc.drain([&](noc::LinkId id, double bytes) {
        seen = true;
        EXPECT_EQ(id, last);
        EXPECT_EQ(bytes, 123.0);
    });
    EXPECT_TRUE(seen);
}

} // namespace
