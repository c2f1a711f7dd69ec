#include "src/cost/analytic_bound.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.hh"
#include "src/noc/interconnect.hh"

namespace gemini::cost {

namespace {

/** Total length of the union of half-open intervals (sorted in place). */
double
sweepUnionLength(std::vector<std::pair<std::int64_t, std::int64_t>> &iv)
{
    if (iv.empty())
        return 0.0;
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    std::int64_t lo = iv[0].first, hi = iv[0].second;
    for (const auto &[a, b] : iv) {
        if (a > hi) {
            total += static_cast<double>(hi - lo);
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    total += static_cast<double>(hi - lo);
    return total;
}

/** One cross-segment activation dependency and its DRAM-read floor. */
struct Edge
{
    int producer = -1; ///< topological index of the producer layer
    double touched = 0.0; ///< exact per-sample element floor of the read
};

/** Arch-independent per-layer facts the segmentation DP folds over. */
struct LayerProfile
{
    double computeSeconds = 0.0; ///< batch-total compute-floor seconds
    double weightBytes = 0.0;
    double ofmapVolume = 0.0; ///< elements per batch sample
    double extTouched = 0.0;  ///< per-sample external-input read floor
    int maxConsumer = -1;     ///< last topological consumer, -1 = none
    bool isOutput = false;
    std::vector<Edge> edges;
};

/**
 * Aggregate bandwidth of the DRAM-adjacent directed link cut: the first
 * link of every DRAM->core route plus the last link of every core->DRAM
 * route, each distinct link counted once. Every DRAM byte crosses at
 * least one link of this cut (reads cross their multicast tree's first
 * hop, writes their route's last hop), so by the weighted mediant
 * inequality the bottleneck-link time of any compiled traffic map is at
 * least total-DRAM-bytes / this sum.
 */
double
dramIngressCutBps(const arch::ArchConfig &cfg)
{
    const noc::InterconnectModel noc(cfg);
    std::vector<noc::LinkId> links;
    links.reserve(static_cast<std::size_t>(cfg.dramCount) * 2);
    for (int d = 0; d < cfg.dramCount; ++d) {
        const noc::NodeId dram = noc.dramNode(d);
        for (int core = 0; core < cfg.coreCount(); ++core) {
            const auto in = noc.route(dram, core);
            if (!in.empty())
                links.push_back(in.front());
            const auto out = noc.route(core, dram);
            if (!out.empty())
                links.push_back(out.back());
        }
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    double bps = 0.0;
    for (const noc::LinkId id : links)
        bps += noc.linkBandwidthAt(id);
    return bps;
}

/** Per-model floors plus the byte totals behind them. */
struct ModelBound
{
    double delaySeconds = 0.0;
    double energyJoules = 0.0;
    double computeSeconds = 0.0; ///< whole-model compute roofline
    double boundBytes = 0.0;     ///< DRAM bytes along the DP-optimal path
    double refetchBytes = 0.0;   ///< boundBytes above weights + outputs
};

ModelBound
boundOneModel(const arch::ArchConfig &cfg, const arch::TechParams &tech,
              const dnn::Graph &g, std::int64_t batch, int maxGroupLayers,
              double cut_bps)
{
    const int n = static_cast<int>(g.size());
    const double b = static_cast<double>(batch);
    const double core_rate = static_cast<double>(cfg.coreCount()) *
                             cfg.freqGHz * 1e9;
    const double vec_lanes = std::max(
        1, cfg.macsPerCore / std::max(1, tech.vecLaneDivisor));
    const double dram_bps = cfg.dramBwGBps * 1e9;

    std::vector<LayerProfile> prof(static_cast<std::size_t>(n));
    double total_macs = 0.0, total_vec = 0.0, out_volume = 0.0;
    for (int i = 0; i < n; ++i) {
        const dnn::Layer &l = g.layers()[static_cast<std::size_t>(i)];
        LayerProfile &p = prof[static_cast<std::size_t>(i)];
        const double macs = static_cast<double>(l.macsPerSample());
        const double vec = static_cast<double>(l.vectorOpsPerSample());
        total_macs += macs;
        total_vec += vec;
        // Every MAC runs on an array with utilization <= 1 and every
        // vector op on the vector lanes; core groups within a layer
        // group are disjoint, so folding per-layer floors over the full
        // core count (mediant inequality) bounds the group stage time.
        p.computeSeconds =
            b * std::max(macs / cfg.macsPerCore, vec / vec_lanes) /
            core_rate;
        p.weightBytes = static_cast<double>(l.weightBytes());
        p.ofmapVolume = static_cast<double>(l.ofmapVolume());
        p.isOutput = l.isOutput;
        if (l.isOutput)
            out_volume += p.ofmapVolume;
        for (const LayerId c : g.consumers(i))
            p.maxConsumer = std::max(p.maxConsumer, static_cast<int>(c));
        if (l.inputs.empty()) {
            p.extTouched = touchedInputVolume(g, i, 0);
        } else {
            for (std::size_t j = 0; j < l.inputs.size(); ++j)
                p.edges.push_back({static_cast<int>(l.inputs[j]),
                                   touchedInputVolume(g, i, j)});
        }
    }

    const double compulsory =
        static_cast<double>(g.totalWeightBytes()) + b * out_volume;
    const double compute_floor =
        b * std::max(total_macs / cfg.macsPerCore, total_vec / vec_lanes) /
        core_rate;

    ModelBound mb;
    mb.computeSeconds = compute_floor;
    mb.energyJoules =
        b * (total_macs * tech.macJ + total_vec * tech.vecOpJ);
    // Any achievable grouping is a contiguous topological segmentation
    // with segments of at most L layers (the partitioner's DP cap, also
    // bounded by the core count since per-layer core groups are disjoint
    // and non-empty; the SA operators never change group membership).
    const int L = std::max(1, std::min(maxGroupLayers, cfg.coreCount()));

    // Compulsory DRAM bytes of segment [j, i): weights stream at least
    // once per group execution; activations produced before the segment
    // (or externally) are read at their exact touched-element floor per
    // batch sample; ofmaps consumed after the segment (or leaving the
    // network) are stored exactly once per sample.
    auto segment_bytes = [&](int j, int i) {
        double bytes = 0.0;
        for (int l = j; l < i; ++l) {
            const LayerProfile &p = prof[static_cast<std::size_t>(l)];
            bytes += p.weightBytes + b * p.extTouched;
            for (const Edge &e : p.edges)
                if (e.producer < j)
                    bytes += b * e.touched;
            if (p.isOutput || p.maxConsumer >= i)
                bytes += b * p.ofmapVolume;
        }
        return bytes;
    };

    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dp_delay(static_cast<std::size_t>(n) + 1, inf);
    std::vector<double> dp_bytes(static_cast<std::size_t>(n) + 1, inf);
    std::vector<int> parent(static_cast<std::size_t>(n) + 1, -1);
    std::vector<double> pref_cw(static_cast<std::size_t>(n) + 1, 0.0);
    for (int i = 0; i < n; ++i)
        pref_cw[static_cast<std::size_t>(i) + 1] =
            pref_cw[static_cast<std::size_t>(i)] +
            prof[static_cast<std::size_t>(i)].computeSeconds;
    dp_delay[0] = 0.0;
    dp_bytes[0] = 0.0;
    for (int i = 1; i <= n; ++i) {
        for (int j = std::max(0, i - L); j < i; ++j) {
            const double bytes = segment_bytes(j, i);
            const double c_seg = pref_cw[static_cast<std::size_t>(i)] -
                                 pref_cw[static_cast<std::size_t>(j)];
            const double d_seg = bytes / dram_bps;
            const double n_seg = cut_bps > 0.0 ? bytes / cut_bps : 0.0;
            const double seg = std::max({c_seg, d_seg, n_seg});
            if (dp_delay[static_cast<std::size_t>(j)] + seg <
                dp_delay[static_cast<std::size_t>(i)]) {
                dp_delay[static_cast<std::size_t>(i)] =
                    dp_delay[static_cast<std::size_t>(j)] + seg;
                parent[static_cast<std::size_t>(i)] = j;
            }
            dp_bytes[static_cast<std::size_t>(i)] =
                std::min(dp_bytes[static_cast<std::size_t>(i)],
                         dp_bytes[static_cast<std::size_t>(j)] + bytes);
        }
    }

    // Reconstruct the delay-optimal segmentation's byte total for the
    // explanatory components.
    double path_bytes = 0.0;
    for (int i = n; i > 0; i = parent[static_cast<std::size_t>(i)])
        path_bytes += segment_bytes(parent[static_cast<std::size_t>(i)], i);

    const double bytes_lb =
        std::max(dp_bytes[static_cast<std::size_t>(n)], compulsory);
    mb.boundBytes = path_bytes;
    mb.refetchBytes = std::max(0.0, path_bytes - compulsory);
    mb.delaySeconds =
        std::max({dp_delay[static_cast<std::size_t>(n)], compute_floor,
                  compulsory / dram_bps});
    mb.energyJoules += bytes_lb * tech.dramJPerByte;
    return mb;
}

/** log of x guarded against zero floors (geomean accumulation). */
double
safeLog(double x)
{
    return std::log(std::max(x, 1e-300));
}

} // namespace

double
touchedInputVolume(const dnn::Graph &graph, LayerId layer,
                   std::size_t input_idx)
{
    const dnn::Layer &l = graph.layer(layer);
    const LayerId producer =
        l.inputs.empty() ? -1 : l.inputs[input_idx];
    std::int64_t pc = 0, ph = 0, pw = 0;
    graph.producerShape(producer, pc, ph, pw);
    const dnn::Region out = dnn::Region::full(l.k, l.h, l.w);
    const dnn::Region box =
        l.requiredInput(input_idx, out).clampTo(pc, ph, pw);
    if (box.empty())
        return 0.0;
    // Per-output projections are axis-separable for every layer kind, so
    // the touched set is exactly (channel extent) x (union of per-row
    // height needs) x (union of per-column width needs). The full-region
    // bounding box alone would overcount: stride > kernel leaves holes
    // between rows/columns that no request ever reads.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    iv.reserve(static_cast<std::size_t>(l.h));
    for (std::int64_t oh = 0; oh < l.h; ++oh) {
        const dnn::Region r =
            l.requiredInput(input_idx, {0, l.k, oh, oh + 1, 0, l.w})
                .clampTo(pc, ph, pw);
        if (!r.empty())
            iv.emplace_back(r.h0, r.h1);
    }
    const double h_len = sweepUnionLength(iv);
    iv.clear();
    for (std::int64_t ow = 0; ow < l.w; ++ow) {
        const dnn::Region r =
            l.requiredInput(input_idx, {0, l.k, 0, l.h, ow, ow + 1})
                .clampTo(pc, ph, pw);
        if (!r.empty())
            iv.emplace_back(r.w0, r.w1);
    }
    const double w_len = sweepUnionLength(iv);
    return static_cast<double>(box.channels()) * h_len * w_len;
}

AnalyticBoundResult
analyticLowerBound(const arch::ArchConfig &cfg,
                   const arch::TechParams &tech,
                   const std::vector<const dnn::Graph *> &models,
                   std::int64_t batch, int maxGroupLayers)
{
    GEMINI_ASSERT(maxGroupLayers >= 1, "maxGroupLayers must be >= 1");
    AnalyticBoundResult r;
    if (models.empty())
        return r;
    const double cut_bps = dramIngressCutBps(cfg);
    const double dram_bps = cfg.dramBwGBps * 1e9;
    double log_delay = 0.0, log_energy = 0.0;
    double log_compute = 0.0, log_dram = 0.0, log_noc = 0.0;
    double log_refetch = 0.0;
    for (const dnn::Graph *g : models) {
        const ModelBound mb =
            boundOneModel(cfg, tech, *g, batch, maxGroupLayers, cut_bps);
        log_delay += safeLog(mb.delaySeconds);
        log_energy += safeLog(mb.energyJoules);
        log_compute += safeLog(mb.computeSeconds);
        log_dram += safeLog(mb.boundBytes / dram_bps);
        log_noc += safeLog(cut_bps > 0.0 ? mb.boundBytes / cut_bps : 0.0);
        log_refetch += safeLog(mb.refetchBytes);
    }
    const double n = static_cast<double>(models.size());
    r.delayGeoSeconds = std::exp(log_delay / n);
    r.energyGeoJoules = std::exp(log_energy / n);
    r.components.computeSeconds = std::exp(log_compute / n);
    r.components.dramSeconds = std::exp(log_dram / n);
    r.components.nocSeconds = std::exp(log_noc / n);
    r.components.refetchBytes = std::exp(log_refetch / n);
    return r;
}

} // namespace gemini::cost
