#include "src/mapping/analytic_seed.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"
#include "src/mapping/stripe.hh"

namespace gemini::mapping {

namespace {

/**
 * [start, end) extent of piece `i` when a dimension of `total` elements
 * is split into `parts` approximately equal chunks (first total % parts
 * chunks one element longer — the WorkRegion rule).
 */
inline void
pieceSlice(std::int64_t total, std::int64_t parts, std::int64_t i,
           std::int64_t &start, std::int64_t &end)
{
    const std::int64_t q = total / parts;
    const std::int64_t r = total % parts;
    start = i * q + std::min(i, r);
    end = start + q + (i < r ? 1 : 0);
}

} // namespace

double
analyticPartitionScore(const dnn::Graph &graph, LayerId layer,
                       const Partition &part, std::int64_t batch_unit,
                       std::int64_t batch, const arch::ArchConfig &arch,
                       const arch::TechParams &tech)
{
    const dnn::Layer &l = graph.layer(layer);
    const std::int64_t units =
        std::max<std::int64_t>(1, batch / std::max<std::int64_t>(
                                              1, batch_unit));

    // ---- Input reads: exact halo-aware per-piece request volumes. ----
    // Every (h, w) piece issues its clamped bounding-box request per
    // input; the k split replicates the read (each k-piece needs the same
    // receptive field), the b split tiles the batch without overlap.
    // This mirrors the traffic compiler's activation accounting, so the
    // score ranks candidates by the bytes the evaluator will charge.
    double input_elems = 0.0; // per sample
    double in_tile_elems = 0.0; // largest per-piece request (GLB model)
    const std::size_t n_inputs = std::max<std::size_t>(
        1, l.inputs.size()); // external input counts as one source
    for (std::size_t idx = 0; idx < n_inputs; ++idx) {
        const LayerId producer =
            l.inputs.empty() ? -1 : l.inputs[idx];
        std::int64_t pc = 0, ph = 0, pw = 0;
        graph.producerShape(producer, pc, ph, pw);
        for (std::int64_t hi = 0; hi < part.h; ++hi) {
            std::int64_t h0, h1;
            pieceSlice(l.h, part.h, hi, h0, h1);
            for (std::int64_t wi = 0; wi < part.w; ++wi) {
                std::int64_t w0, w1;
                pieceSlice(l.w, part.w, wi, w0, w1);
                const dnn::Region rq =
                    l.requiredInput(idx, {0, l.k, h0, h1, w0, w1})
                        .clampTo(pc, ph, pw);
                const double v =
                    static_cast<double>(std::max<std::int64_t>(
                        0, rq.volume()));
                input_elems += v;
                in_tile_elems = std::max(in_tile_elems, v);
            }
        }
    }
    input_elems *= static_cast<double>(part.k); // k-split replication

    // ---- Weights: stream once iff the per-core tile fits the GLB. ----
    // Residency rule mirrored from the traffic compiler: a core holds its
    // weight chunk plus double-buffered input and output tiles.
    std::int64_t out0, out1;
    pieceSlice(l.k, part.k, 0, out0, out1); // largest k chunk is piece 0
    const double k_frac =
        static_cast<double>(out1 - out0) / static_cast<double>(l.k);
    const double wchunk =
        static_cast<double>(l.weightBytes()) * k_frac;
    std::int64_t oh0, oh1, ow0, ow1, ob0, ob1;
    pieceSlice(l.h, part.h, 0, oh0, oh1);
    pieceSlice(l.w, part.w, 0, ow0, ow1);
    pieceSlice(batch_unit, part.b, 0, ob0, ob1);
    const double out_tile =
        static_cast<double>((out1 - out0) * (oh1 - oh0) * (ow1 - ow0)) *
        static_cast<double>(ob1 - ob0);
    const double footprint =
        wchunk + 2.0 * (in_tile_elems * static_cast<double>(ob1 - ob0) +
                        out_tile);
    const bool resident =
        footprint <= static_cast<double>(arch.glbBytes());
    // Per-unit weight bytes: amortized over all units when resident,
    // refetched every unit otherwise.
    const double weight_per_unit =
        static_cast<double>(l.weightBytes()) *
        (resident ? 1.0 / static_cast<double>(units) : 1.0);

    // ---- Compute roofline of the largest piece. ----
    const double piece_frac =
        k_frac *
        (static_cast<double>(oh1 - oh0) / static_cast<double>(l.h)) *
        (static_cast<double>(ow1 - ow0) / static_cast<double>(l.w)) *
        (static_cast<double>(ob1 - ob0) /
         static_cast<double>(batch_unit));
    const double macs_piece =
        static_cast<double>(l.macsPerSample()) *
        static_cast<double>(batch_unit) * piece_frac;
    const double vec_piece =
        static_cast<double>(l.vectorOpsPerSample()) *
        static_cast<double>(batch_unit) * piece_frac;
    const double vec_lanes = std::max(
        1.0, static_cast<double>(arch.macsPerCore) /
                 std::max(1.0, static_cast<double>(tech.vecLaneDivisor)));
    const double cycles =
        std::max(macs_piece / static_cast<double>(arch.macsPerCore),
                 vec_piece / vec_lanes);
    const double compute_seconds = cycles / (arch.freqGHz * 1e9);

    const double dram_bps = std::max(1.0, arch.dramBwGBps * 1e9);
    const double dram_bytes_per_unit =
        input_elems * static_cast<double>(batch_unit) + weight_per_unit;
    return dram_bytes_per_unit / dram_bps + compute_seconds;
}

LayerGroupMapping
analyticSeedGroup(const dnn::Graph &graph, const arch::ArchConfig &arch,
                  const arch::TechParams &tech,
                  const std::vector<LayerId> &layers,
                  std::int64_t batch_unit, std::int64_t batch)
{
    GEMINI_ASSERT(!layers.empty(), "analyticSeedGroup needs layers");
    GEMINI_ASSERT(static_cast<int>(layers.size()) <= arch.coreCount(),
                  "more layers than cores in one group");
    LayerGroupMapping group;
    group.layers = layers;
    group.batchUnit = batch_unit;
    const std::int64_t m = arch.coreCount();
    const std::size_t n = layers.size();

    // FLOP-proportional core allocation (same rule as the stripe seed, so
    // the two seeds differ only in how each layer's cores are shaped).
    std::vector<double> work(n);
    double total_work = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const dnn::Layer &l = graph.layer(layers[i]);
        work[i] = std::max<double>(
            static_cast<double>(l.macsPerSample()) +
                16.0 * static_cast<double>(l.vectorOpsPerSample()),
            1.0);
        total_work += work[i];
    }
    std::vector<std::int64_t> alloc(n, 1);
    std::int64_t used = static_cast<std::int64_t>(n);
    while (used < m) {
        std::size_t pick = 0;
        double best_deficit = -1e300;
        for (std::size_t i = 0; i < n; ++i) {
            const double deficit =
                work[i] / total_work * m - static_cast<double>(alloc[i]);
            if (deficit > best_deficit) {
                best_deficit = deficit;
                pick = i;
            }
        }
        ++alloc[pick];
        ++used;
    }

    std::int64_t next_core = 0;
    group.schemes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const dnn::Layer &l = graph.layer(layers[i]);
        MappingScheme &ms = group.schemes[i];
        alloc[i] =
            largestFeasibleCores(alloc[i], l.h, l.w, batch_unit, l.k);
        bool feasible = false;
        double best_score = std::numeric_limits<double>::infinity();
        Partition best_part;
        forEachFactorization4(
            alloc[i], {l.h, l.w, batch_unit, l.k}, [&](const Factor4 &f) {
                feasible = true;
                const Partition p{f[0], f[1], f[2], f[3]};
                const double s = analyticPartitionScore(
                    graph, layers[i], p, batch_unit, batch, arch, tech);
                if (s < best_score) {
                    best_score = s;
                    best_part = p;
                }
                return true;
            });
        GEMINI_ASSERT(feasible,
                      "largestFeasibleCores returned infeasible count");
        ms.part = best_part;
        ms.coreGroup.resize(static_cast<std::size_t>(alloc[i]));
        std::iota(ms.coreGroup.begin(), ms.coreGroup.end(),
                  static_cast<CoreId>(next_core));
        next_core += alloc[i];

        ms.fd.ifmap = graph.readsExternalInput(layers[i])
                          ? kDramInterleaved
                          : kDramUnmanaged;
        ms.fd.weight = l.hasWeights() ? kDramInterleaved : kDramUnmanaged;
        ms.fd.ofmap = needsOfmapDram(graph, group, layers[i])
                          ? kDramInterleaved
                          : kDramUnmanaged;
    }
    return group;
}

} // namespace gemini::mapping
