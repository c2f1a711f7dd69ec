#include "src/mapping/traffic_compiler.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <tuple>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"

namespace gemini::mapping {

namespace {

/**
 * Key for grouping identical data requests into one multicast: (c0, c1,
 * h0, h1, w0, w1, b0, b1), ordered lexicographically.
 */
struct RegionKey
{
    std::array<std::int64_t, 8> v;

    bool operator==(const RegionKey &) const = default;

    bool
    operator<(const RegionKey &o) const
    {
        for (std::size_t i = 0; i < v.size(); ++i)
            if (v[i] != o.v[i])
                return v[i] < o.v[i];
        return false;
    }
};

RegionKey
keyOf(const dnn::Region &r, std::int64_t b0, std::int64_t b1)
{
    return {{r.c0, r.c1, r.h0, r.h1, r.w0, r.w1, b0, b1}};
}

/**
 * One pending flow: a requested region (or weight k-chunk) plus the core
 * that wants it. Identical keys coalesce into a single multicast; a flat
 * sort-and-group replaces the per-call std::map of the original analyzer
 * (this loop runs millions of times per SA run).
 */
struct FlowRequest
{
    RegionKey key;
    double bytes = 0.0; ///< identical for every request with the same key
    noc::NodeId node = 0;
};

/**
 * Index box [lo, hi) per partition dimension: the producer pieces whose
 * region and batch slice can overlap one consumer's request.
 */
struct PieceBox
{
    std::int64_t h0, h1, w0, w1, b0, b1, k0, k1;

    bool
    empty() const
    {
        return h1 <= h0 || w1 <= w0 || b1 <= b0 || k1 <= k0;
    }
};

/**
 * The chunk grids of one producer's workRegionOf pieces (`producer` split
 * by `part`, `batch_unit` samples), one per partition dimension.
 */
struct PieceGrid
{
    ChunkGrid h, w, b, k;

    PieceGrid(const dnn::Layer &producer, const Partition &part,
              std::int64_t batch_unit)
        : h(producer.h, part.h), w(producer.w, part.w),
          b(batch_unit, part.b), k(producer.k, part.k)
    {
    }

    /**
     * The pieces that can overlap a consumer requesting region `rq` over
     * samples [b0, b1). Region overlap is per-dimension interval overlap,
     * so the box holds exactly the overlapping pieces.
     */
    PieceBox
    overlapBox(const dnn::Region &rq, std::int64_t b0, std::int64_t b1) const
    {
        PieceBox box;
        std::tie(box.h0, box.h1) = h.span(rq.h0, rq.h1);
        std::tie(box.w0, box.w1) = w.span(rq.w0, rq.w1);
        std::tie(box.b0, box.b1) = b.span(b0, b1);
        std::tie(box.k0, box.k1) = k.span(rq.c0, rq.c1);
        return box;
    }
};

/** Visit the piece ids (correspondence-rule nids) of `box`. */
template <typename Fn>
void
forEachPiece(const PieceBox &box, const Partition &part, const Fn &fn)
{
    if (box.empty())
        return;
    for (std::int64_t h = box.h0; h < box.h1; ++h)
        for (std::int64_t w = box.w0; w < box.w1; ++w)
            for (std::int64_t b = box.b0; b < box.b1; ++b)
                for (std::int64_t k = box.k0; k < box.k1; ++k)
                    fn(static_cast<std::size_t>(
                        ((h * part.w + w) * part.b + b) * part.k + k));
}

/**
 * Sort requests by key and emit once per distinct key, in ascending key
 * order (the order the std::map-based original used): that order sets
 * which flow adds to a shared link first. A multicast's destinations stay
 * in request order, since its tree adds the same bytes exactly once to
 * each link of the route union whatever the order. Singleton groups — the
 * common case, since partition pieces mostly request distinct regions —
 * take emit_one, which skips the destination-vector machinery entirely.
 */
template <typename EmitOneFn, typename EmitManyFn>
void
emitGrouped(std::vector<FlowRequest> &requests,
            std::vector<noc::NodeId> &dsts_scratch,
            const EmitOneFn &emit_one, const EmitManyFn &emit_many)
{
    if (requests.empty())
        return;
    if (requests.size() == 1) {
        emit_one(requests[0].bytes, requests[0].node);
        return;
    }
    const auto by_key = [](const FlowRequest &a, const FlowRequest &b) {
        return a.key < b.key;
    };
    // Most request lists already arrive in key order (pieces enumerate
    // the partition grid in ascending region order).
    if (!std::is_sorted(requests.begin(), requests.end(), by_key))
        std::sort(requests.begin(), requests.end(), by_key);
    std::size_t i = 0;
    while (i < requests.size()) {
        std::size_t j = i + 1;
        while (j < requests.size() && requests[j].key == requests[i].key)
            ++j;
        if (j == i + 1) {
            emit_one(requests[i].bytes, requests[i].node);
        } else {
            dsts_scratch.clear();
            for (std::size_t k = i; k < j; ++k)
                dsts_scratch.push_back(requests[k].node);
            emit_many(requests[i].bytes, dsts_scratch);
        }
        i = j;
    }
}

} // namespace

void
TrafficCompiler::appendKey(FragmentKey &key, const dnn::Graph &graph,
                           const LayerGroupMapping &group, std::size_t li,
                           std::int64_t batch,
                           const OfmapDramLookup &ofmap_dram_of)
{
    const LayerId id = group.layers[li];
    const MappingScheme &ms = group.schemes[li];
    key.words.push_back(batch);
    key.words.push_back(group.batchUnit);
    key.words.push_back(id);
    key.words.push_back(ms.part.h);
    key.words.push_back(ms.part.w);
    key.words.push_back(ms.part.b);
    key.words.push_back(ms.part.k);
    key.words.push_back(ms.fd.ifmap);
    key.words.push_back(ms.fd.weight);
    key.words.push_back(ms.fd.ofmap);
    key.words.push_back(static_cast<std::int64_t>(ms.coreGroup.size()));
    for (CoreId core : ms.coreGroup)
        key.words.push_back(core);
    for (LayerId producer : graph.layer(id).inputs) {
        const int pi = group.indexOf(producer);
        if (pi >= 0) {
            // In-group flows depend on the producer's Part + CG.
            const MappingScheme &pms =
                group.schemes[static_cast<std::size_t>(pi)];
            key.words.push_back(1);
            key.words.push_back(producer);
            key.words.push_back(pms.part.h);
            key.words.push_back(pms.part.w);
            key.words.push_back(pms.part.b);
            key.words.push_back(pms.part.k);
            key.words.push_back(
                static_cast<std::int64_t>(pms.coreGroup.size()));
            for (CoreId core : pms.coreGroup)
                key.words.push_back(core);
        } else {
            key.words.push_back(0);
            key.words.push_back(~static_cast<std::int64_t>(producer));
            key.words.push_back(ofmap_dram_of(producer));
        }
    }
}

TrafficCompiler::TrafficCompiler(const dnn::Graph &graph,
                                 const arch::ArchConfig &arch,
                                 const noc::InterconnectModel &noc)
    : graph_(graph), arch_(arch), noc_(noc)
{
    merge_.reset(noc_.linkCount());
}

std::uint64_t
TrafficCompiler::allocEvents() const
{
    return arena_.allocEvents();
}

void
TrafficCompiler::compile(const LayerGroupMapping &group, std::size_t li,
                         const std::vector<const LayerTiles *> &tiles,
                         std::int64_t num_units,
                         const OfmapDramLookup &ofmap_dram_of,
                         LayerFlows &flows, common::BumpArena &payload) const
{
    flows.dramBytes.assign(arch_.dramCount, 0.0);
    flows.glbOverflow = 0.0;

    // Every route hop adds straight into the dense per-link scratch, in
    // emission order: per-link sums are those of the emitted hop sequence.
    // The scratch is empty between compiles; one that unwinds midway
    // drains it on the way out.
    struct DrainOnUnwind
    {
        DenseLinkAccumulator *merge;
        ~DrainOnUnwind()
        {
            if (merge != nullptr)
                merge->drain([](noc::LinkId, double) {});
        }
    } guard{&merge_};
    arena_.reset();
    auto unicast = [&](noc::NodeId src, noc::NodeId dst, double bytes) {
        noc_.unicastLinks(src, dst, bytes,
                          [&](noc::LinkId id) { merge_.add(id, bytes); });
    };
    auto multicast = [&](noc::NodeId src,
                         const std::vector<noc::NodeId> &dsts,
                         double bytes) {
        noc_.multicastLinks(src, dsts, bytes,
                            [&](noc::LinkId id) { merge_.add(id, bytes); });
    };

    const LayerId layer_id = group.layers[li];
    const dnn::Layer &layer = graph_.layer(layer_id);
    const MappingScheme &ms = group.schemes[li];
    const LayerTiles &mine = *tiles[li];
    const std::size_t n_pieces = mine.regions.size();

    // ---- Helpers for DRAM-sourced / DRAM-bound flows --------------------
    auto dram_read = [&](DramSel sel, double bytes,
                         const std::vector<noc::NodeId> &dsts) {
        if (bytes <= 0.0 || dsts.empty())
            return;
        if (sel == kDramInterleaved) {
            const double share = bytes / arch_.dramCount;
            for (int d = 0; d < arch_.dramCount; ++d) {
                multicast(noc_.dramNode(d), dsts, share);
                flows.dramBytes[d] += share;
            }
        } else {
            GEMINI_ASSERT(sel >= 1 && sel <= arch_.dramCount,
                          "bad DRAM selector ", sel);
            multicast(noc_.dramNode(sel - 1), dsts, bytes);
            flows.dramBytes[sel - 1] += bytes;
        }
    };
    // An interleaved single-endpoint access walks the one arena span that
    // concatenates its per-DRAM routes in DRAM order: the hop sequence of
    // a per-DRAM loop of unicasts, without a route lookup per DRAM.
    auto interleaved = [&](std::span<const noc::LinkId> hops, double bytes) {
        const double share = bytes / arch_.dramCount;
        for (noc::LinkId id : hops)
            merge_.add(id, share);
        for (double &dram_bytes : flows.dramBytes)
            dram_bytes += share;
    };
    // Single-destination DRAM read: the route span IS the multicast tree.
    auto dram_read_one = [&](DramSel sel, double bytes, noc::NodeId dst) {
        if (bytes <= 0.0)
            return;
        if (sel == kDramInterleaved) {
            interleaved(noc_.routesFromAllDrams(dst), bytes);
        } else {
            GEMINI_ASSERT(sel >= 1 && sel <= arch_.dramCount,
                          "bad DRAM selector ", sel);
            unicast(noc_.dramNode(sel - 1), dst, bytes);
            flows.dramBytes[sel - 1] += bytes;
        }
    };
    auto dram_write = [&](DramSel sel, double bytes, CoreId src) {
        if (bytes <= 0.0)
            return;
        if (sel == kDramInterleaved) {
            interleaved(noc_.routesToAllDrams(src), bytes);
        } else {
            GEMINI_ASSERT(sel >= 1 && sel <= arch_.dramCount,
                          "bad DRAM selector ", sel);
            unicast(noc_.coreNode(src), noc_.dramNode(sel - 1), bytes);
            flows.dramBytes[sel - 1] += bytes;
        }
    };

    static thread_local std::vector<FlowRequest> requests;
    static thread_local std::vector<noc::NodeId> dsts_scratch;
    static thread_local std::vector<dnn::Region> required_scratch;
    const std::span<double> input_bytes =
        arena_.allocSpan<double>(n_pieces);
    std::fill(input_bytes.begin(), input_bytes.end(), 0.0);

    // ---- Activation flows (in-group NoC + cross-group/external DRAM) ----
    const std::size_t n_inputs = std::max<std::size_t>(
        layer.inputs.size(), 1); // external input counts as one
    for (std::size_t j = 0; j < n_inputs; ++j) {
        const bool external = layer.inputs.empty();
        const LayerId producer = external ? -1 : layer.inputs[j];
        const int pi = external ? -1 : group.indexOf(producer);

        if (pi >= 0) {
            // In-group dependency: the destination cores fetch the
            // overlap of their required region with each producer piece;
            // identical requests from one source multicast. Producer
            // pieces form a workRegionOf grid, so inverting chunkOf gives
            // each consumer the index box of the pieces it overlaps
            // (computed once per consumer, read by both CSR passes); the
            // consumers are bucketed per producer piece (CSR, ascending
            // consumer order) instead of testing every pair.
            const LayerTiles &theirs =
                *tiles[static_cast<std::size_t>(pi)];
            const MappingScheme &pms =
                group.schemes[static_cast<std::size_t>(pi)];
            const dnn::Layer &player = graph_.layer(producer);
            const std::size_t n_theirs = theirs.regions.size();
            GEMINI_ASSERT(static_cast<std::int64_t>(n_theirs) ==
                              pms.part.count(),
                          "producer tiles do not match its partition");
            required_scratch.clear();
            const std::span<PieceBox> boxes =
                arena_.allocSpan<PieceBox>(n_pieces);
            const PieceGrid grid(player, pms.part, group.batchUnit);
            for (std::size_t i = 0; i < n_pieces; ++i) {
                const WorkRegion &cp = mine.regions[i];
                required_scratch.push_back(
                    layer.requiredInput(j, cp.region));
                boxes[i] = grid.overlapBox(required_scratch[i], cp.b0,
                                           cp.b1);
            }
            const std::span<std::uint32_t> bucket_end =
                arena_.allocSpan<std::uint32_t>(n_theirs + 1);
            std::fill(bucket_end.begin(), bucket_end.end(), 0u);
            for (std::size_t i = 0; i < n_pieces; ++i)
                forEachPiece(boxes[i], pms.part,
                             [&](std::size_t a) { ++bucket_end[a + 1]; });
            for (std::size_t a = 0; a < n_theirs; ++a)
                bucket_end[a + 1] += bucket_end[a];
            const std::span<std::uint32_t> bucket =
                arena_.allocSpan<std::uint32_t>(bucket_end[n_theirs]);
            // Fill pass: bucket_end[a] walks from piece a's start to its
            // end, which is where piece a + 1 starts.
            for (std::size_t i = 0; i < n_pieces; ++i)
                forEachPiece(boxes[i], pms.part, [&](std::size_t a) {
                    bucket[bucket_end[a]++] = static_cast<std::uint32_t>(i);
                });
            std::uint32_t first = 0;
            for (std::size_t a = 0; a < n_theirs; ++a) {
                const WorkRegion &pp = theirs.regions[a];
                const CoreId pcore = pms.coreGroup[a];
                const std::uint32_t last = bucket_end[a];
                requests.clear();
                for (std::uint32_t e = first; e < last; ++e) {
                    const std::size_t i = bucket[e];
                    const WorkRegion &cp = mine.regions[i];
                    const std::int64_t b0 = std::max(cp.b0, pp.b0);
                    const std::int64_t b1 = std::min(cp.b1, pp.b1);
                    if (b1 <= b0)
                        continue;
                    const dnn::Region ov =
                        required_scratch[i].intersect(pp.region);
                    if (ov.empty())
                        continue;
                    const double bytes =
                        static_cast<double>(ov.volume() * (b1 - b0));
                    if (ms.coreGroup[i] == pcore)
                        continue; // local GLB read
                    requests.push_back({keyOf(ov, b0, b1), bytes,
                                        noc_.coreNode(ms.coreGroup[i])});
                }
                first = last;
                emitGrouped(
                    requests, dsts_scratch,
                    [&](double bytes, noc::NodeId dst) {
                        unicast(noc_.coreNode(pcore), dst, bytes);
                    },
                    [&](double bytes, const std::vector<noc::NodeId> &dsts) {
                        multicast(noc_.coreNode(pcore), dsts, bytes);
                    });
            }
            // Consumers still buffer the full required region.
            const dnn::Region pfull = dnn::Region::full(
                graph_.layer(producer).k, graph_.layer(producer).h,
                graph_.layer(producer).w);
            for (std::size_t i = 0; i < n_pieces; ++i) {
                const WorkRegion &cp = mine.regions[i];
                const dnn::Region ov =
                    required_scratch[i].intersect(pfull);
                input_bytes[i] += static_cast<double>(
                    ov.volume() * (cp.b1 - cp.b0));
            }
        } else {
            // External input or a producer mapped in another group:
            // read from DRAM; identical regions share one multicast.
            const DramSel src =
                external ? ms.fd.ifmap : ofmap_dram_of(producer);
            std::int64_t pc, ph, pw;
            graph_.producerShape(producer, pc, ph, pw);
            requests.clear();
            for (std::size_t i = 0; i < n_pieces; ++i) {
                const WorkRegion &cp = mine.regions[i];
                dnn::Region rq = layer.requiredInput(j, cp.region);
                rq = rq.clampTo(pc, ph, pw);
                if (rq.empty())
                    continue;
                const double bytes = static_cast<double>(
                    rq.volume() * (cp.b1 - cp.b0));
                input_bytes[i] += bytes;
                requests.push_back({keyOf(rq, cp.b0, cp.b1), bytes,
                                    noc_.coreNode(ms.coreGroup[i])});
            }
            emitGrouped(
                requests, dsts_scratch,
                [&](double bytes, noc::NodeId dst) {
                    dram_read_one(src, bytes, dst);
                },
                [&](double bytes, const std::vector<noc::NodeId> &dsts) {
                    dram_read(src, bytes, dsts);
                });
        }
    }

    // ---- Weights (multicast per k-slice, amortized if resident) ---------
    if (layer.hasWeights()) {
        // Cores sharing the same k-chunk receive identical weight slices.
        requests.clear();
        const std::span<double> weight_bytes_of =
            arena_.allocSpan<double>(n_pieces);
        std::fill(weight_bytes_of.begin(), weight_bytes_of.end(), 0.0);
        for (std::size_t i = 0; i < n_pieces; ++i) {
            const WorkRegion &p = mine.regions[i];
            const std::int64_t klen = p.region.channels();
            const double wbytes =
                static_cast<double>(klen * (layer.c / layer.groups) *
                                    layer.r * layer.s) +
                4.0 * klen; // 32-bit bias/scale per output channel
            weight_bytes_of[i] = wbytes;
            requests.push_back({RegionKey{{p.region.c0, 0, 0, 0, 0, 0, 0, 0}},
                                wbytes, noc_.coreNode(ms.coreGroup[i])});
        }

        // Residency: if the slice plus double-buffered activations fits in
        // the GLB, weights load once per group execution (amortized over
        // the batch units); otherwise they re-stream every unit.
        bool resident = true;
        for (std::size_t i = 0; i < n_pieces; ++i) {
            const WorkRegion &p = mine.regions[i];
            const double need =
                weight_bytes_of[i] +
                2.0 * (input_bytes[i] +
                       static_cast<double>(p.volume()));
            if (need > static_cast<double>(arch_.glbBytes()))
                resident = false;
        }
        const double factor =
            resident ? 1.0 / static_cast<double>(num_units) : 1.0;
        emitGrouped(
            requests, dsts_scratch,
            [&](double bytes, noc::NodeId dst) {
                dram_read_one(ms.fd.weight, bytes * factor, dst);
            },
            [&](double bytes, const std::vector<noc::NodeId> &dsts) {
                dram_read(ms.fd.weight, bytes * factor, dsts);
            });
    }

    // ---- Managed ofmap stores -------------------------------------------
    if (ms.fd.ofmap != kDramUnmanaged) {
        for (std::size_t i = 0; i < n_pieces; ++i)
            dram_write(ms.fd.ofmap,
                       static_cast<double>(mine.regions[i].volume()),
                       ms.coreGroup[i]);
    }

    // ---- GLB pressure -----------------------------------------------------
    for (std::size_t i = 0; i < n_pieces; ++i) {
        const WorkRegion &p = mine.regions[i];
        // Double-buffered input/output tiles; weights checked above.
        double need =
            2.0 * (input_bytes[i] + static_cast<double>(p.volume()));
        if (layer.hasWeights()) {
            const std::int64_t klen = p.region.channels();
            const double wbytes = static_cast<double>(
                klen * (layer.c / layer.groups) * layer.r * layer.s);
            // Streaming weights still need a staging buffer slice.
            need += std::min(wbytes,
                             static_cast<double>(arch_.glbBytes()) / 4);
        }
        const double ratio =
            need / static_cast<double>(arch_.glbBytes()) - 1.0;
        flows.glbOverflow = std::max(flows.glbOverflow, ratio);
    }

    // Drain the merged links in ascending link-id order into scratch;
    // the drain's count sizes the payload copy.
    using Link = std::pair<noc::LinkId, double>;
    Link *const drained = arena_.allocSpan<Link>(noc_.linkCount()).data();
    Link *next = drained;
    const std::size_t n = merge_.drain([&](noc::LinkId id, double bytes) {
        std::construct_at(next++, id, bytes);
    });
    guard.merge = nullptr;
    flows.links = payload.copySpan(std::span<const Link>(drained, n));
}

} // namespace gemini::mapping
