#include "src/intracore/explorer.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"

namespace gemini::intracore {

const char *
loopOrderName(LoopOrder o)
{
    switch (o) {
      case LoopOrder::OutputStationary: return "output-stationary";
      case LoopOrder::WeightStationary: return "weight-stationary";
      case LoopOrder::InputStationary: return "input-stationary";
    }
    return "?";
}

Explorer::Explorer(int macs_per_core, std::int64_t glb_bytes, double freq_ghz,
                   const arch::TechParams &tech)
    : macsPerCore_(macs_per_core), glbBytes_(glb_bytes), freqGhz_(freq_ghz),
      tech_(tech)
{
    GEMINI_ASSERT(macs_per_core > 0 && glb_bytes > 0 && freq_ghz > 0,
                  "bad core parameters");
    lanesC_ = std::min(tech_.lanesC, macs_per_core);
    lanesK_ = std::max(1, macs_per_core / lanesC_);
    wbufBytes_ = tech_.wbufBytesPerMac * macs_per_core;
    ibufBytes_ = tech_.ibufBytesPerMac * macs_per_core;
    abufBytes_ = tech_.abufBytesPerMac * macs_per_core;
    glbBytesPerCycle_ = tech_.glbBytesPerCyclePerMac * macs_per_core;
    vecLanes_ = std::max(1.0, static_cast<double>(macs_per_core) /
                                  tech_.vecLaneDivisor);
    cache_.reserve(4096, std::tuple_size_v<TileKey>);
    cache_.setGrowable(true);
}

Explorer::TileKey
Explorer::keyOf(const Tile &tile)
{
    return {tile.b,
            tile.k,
            tile.h,
            tile.w,
            tile.cPerGroup,
            tile.r,
            tile.s,
            tile.strideH,
            tile.strideW,
            tile.macWork ? 1 : 0,
            std::bit_cast<std::int64_t>(tile.vecOpFactor),
            0 /* layout version */};
}

const CoreCost &
Explorer::evaluate(const Tile &tile)
{
    const TileKey key = keyOf(tile);
    std::size_t slot = 0;
    if (const CoreCost *hit = cache_.find(key, slot)) {
        ++hits_;
        return *hit;
    }
    ++misses_;
    CoreCost cost = tile.macWork ? search(tile) : evalVectorTile(tile);
    return cache_.insertAt(slot, key, cost);
}

void
Explorer::absorb(const Explorer &other)
{
    GEMINI_ASSERT(macsPerCore_ == other.macsPerCore_ &&
                      glbBytes_ == other.glbBytes_ &&
                      freqGhz_ == other.freqGhz_,
                  "cannot absorb a memo from a different core config");
    other.cache_.forEach(
        [this](common::FlatWordTable<CoreCost>::Words key,
               const CoreCost &cost) {
            std::size_t slot = 0;
            if (cache_.find(key, slot) == nullptr)
                cache_.insertAt(slot, key, cost);
        });
}

CoreCost
Explorer::evalVectorTile(const Tile &tile) const
{
    CoreCost cost;
    cost.macs = 0;
    cost.vecOps = tile.vecOps();
    // Read every operand element, write every output element once.
    cost.glbBytes =
        (tile.vecOpFactor + 1.0) * static_cast<double>(tile.outVolume());
    cost.bufBytes = 0.0;
    const double vec_cycles = cost.vecOps / vecLanes_;
    const double mem_cycles = cost.glbBytes / glbBytesPerCycle_;
    cost.cycles = std::max(vec_cycles, mem_cycles);
    cost.energyJ = cost.vecOps * tech_.vecOpJ +
                   cost.glbBytes * tech_.glbJPerByte;
    return cost;
}

namespace {

/** Longest ladder: 32 powers of four below any int64 dim, `natural`, dim. */
constexpr std::size_t kMaxLadder = 34;

/** One tiling dimension's candidate ladder, ascending and duplicate-free. */
struct Ladder
{
    std::array<std::int64_t, kMaxLadder> v{};
    std::size_t n = 0;

    const std::int64_t *begin() const { return v.data(); }
    const std::int64_t *end() const { return v.data() + n; }
};

/**
 * Geometric candidate ladder for one tiling dimension: powers of four below
 * the dimension, the hardware-natural lane count, and the dimension itself.
 */
Ladder
tileCandidates(std::int64_t dim, std::int64_t natural)
{
    Ladder out;
    // The step stops at dim instead of overflowing past it.
    for (std::int64_t v = 1; v < dim; v = v > dim / 4 ? dim : v * 4)
        out.v[out.n++] = v;
    if (natural > 1 && natural < dim)
        out.v[out.n++] = natural;
    out.v[out.n++] = dim;
    std::sort(out.v.begin(), out.v.begin() + out.n);
    out.n = static_cast<std::size_t>(
        std::unique(out.v.begin(), out.v.begin() + out.n) - out.v.begin());
    return out;
}

} // namespace

bool
Explorer::evalScheme(const Tile &t, std::int64_t tk, std::int64_t tc,
                     std::int64_t th, std::int64_t tw, LoopOrder order,
                     CoreCost &out) const
{
    // Operand footprints for one buffered tile (double-buffered weight and
    // ifmap streams; psums live in the accumulator buffer).
    const double weight_tile =
        static_cast<double>(tk) * tc * t.r * t.s;
    const double ifmap_tile =
        static_cast<double>(tc) * ((th - 1) * t.strideH + t.r) *
        ((tw - 1) * t.strideW + t.s);
    const double psum_tile = static_cast<double>(tk) * th * tw * 4.0;
    if (2.0 * weight_tile > wbufBytes_ || 2.0 * ifmap_tile > ibufBytes_ ||
        psum_tile > abufBytes_) {
        return false;
    }

    const double n_k = std::ceil(static_cast<double>(t.k) / tk);
    const double n_c = std::ceil(static_cast<double>(t.cPerGroup) / tc);
    const double n_hw = std::ceil(static_cast<double>(t.h) / th) *
                        std::ceil(static_cast<double>(t.w) / tw) *
                        static_cast<double>(t.b);
    const double out_volume = static_cast<double>(t.outVolume());

    double w_traffic = 0.0, i_traffic = 0.0, p_traffic = 0.0;
    switch (order) {
      case LoopOrder::OutputStationary:
        // hw outer: psums accumulate in the abuf across the full reduction
        // and are written back once; both operands stream per iteration.
        w_traffic = n_hw * n_k * n_c * weight_tile;
        i_traffic = n_hw * n_k * n_c * ifmap_tile;
        p_traffic = 0.0;
        break;
      case LoopOrder::WeightStationary:
        // (k, c) outer: each weight enters exactly once; ifmaps re-stream
        // per k-tile; psums spill per c-tile boundary (32-bit).
        w_traffic = n_k * n_c * weight_tile;
        i_traffic = n_k * n_c * n_hw * ifmap_tile;
        p_traffic = out_volume * 4.0 * (2.0 * (n_c - 1.0));
        break;
      case LoopOrder::InputStationary:
        // (hw, c) outer: each ifmap element enters ~once (modulo halo);
        // weights re-stream per hw-tile; psums spill per c-tile.
        i_traffic = n_hw * n_c * ifmap_tile;
        w_traffic = n_hw * n_c * n_k * weight_tile;
        p_traffic = out_volume * 4.0 * (2.0 * (n_c - 1.0));
        break;
    }
    // Final quantized ofmap write (8-bit).
    const double o_traffic = out_volume;

    out.macs = t.macs();
    out.vecOps = t.vecOps();
    out.glbBytes = w_traffic + i_traffic + p_traffic + o_traffic;

    // Operand-buffer traffic: one ifmap byte feeds all K lanes; weights are
    // loaded into the PE registers once per buffered pass.
    out.bufBytes = static_cast<double>(out.macs) / lanesK_ + w_traffic;

    // Array utilization: K maps onto the K lanes; the reduction (c, r, s)
    // folds onto the C lanes (so small-channel depthwise layers run at low
    // utilization, as on real NVDLA-style arrays).
    const double fold_c = static_cast<double>(t.cPerGroup) * t.r * t.s;
    const double util_k =
        static_cast<double>(t.k) / (lanesK_ * std::ceil(
            static_cast<double>(t.k) / lanesK_));
    const double util_c = fold_c / (lanesC_ * std::ceil(fold_c / lanesC_));
    const double mac_cycles =
        static_cast<double>(out.macs) /
        (static_cast<double>(macsPerCore_) * util_k * util_c);

    const double mem_cycles = out.glbBytes / glbBytesPerCycle_;
    const double vec_cycles = out.vecOps / vecLanes_;
    out.cycles = std::max({mac_cycles, mem_cycles, vec_cycles});
    out.energyJ = out.macs * tech_.macJ + out.vecOps * tech_.vecOpJ +
                  out.glbBytes * tech_.glbJPerByte +
                  out.bufBytes * tech_.bufJPerByte;
    out.tileK = tk;
    out.tileC = tc;
    out.tileH = th;
    out.tileW = tw;
    out.order = order;
    return true;
}

CoreCost
Explorer::search(const Tile &tile) const
{
    const Ladder ks = tileCandidates(tile.k, lanesK_);
    const Ladder cs = tileCandidates(tile.cPerGroup, lanesC_);
    const Ladder hs = tileCandidates(tile.h, 1);
    const Ladder ws = tileCandidates(tile.w, 1);

    // Every term below is evalScheme's expression over the same operands,
    // computed once at the loop level whose variables it depends on, so
    // each scheme's score is bit-identical to evalScheme's energyJ*cycles.
    const OpCount macs = tile.macs();
    const double vec_ops = tile.vecOps();
    const double out_volume = static_cast<double>(tile.outVolume());
    const double fold_c =
        static_cast<double>(tile.cPerGroup) * tile.r * tile.s;
    const double util_k =
        static_cast<double>(tile.k) / (lanesK_ * std::ceil(
            static_cast<double>(tile.k) / lanesK_));
    const double util_c = fold_c / (lanesC_ * std::ceil(fold_c / lanesC_));
    const double mac_cycles =
        static_cast<double>(macs) /
        (static_cast<double>(macsPerCore_) * util_k * util_c);
    const double vec_cycles = vec_ops / vecLanes_;
    const double buf_macs = static_cast<double>(macs) / lanesK_;
    const double energy_ops = macs * tech_.macJ + vec_ops * tech_.vecOpJ;

    // Energy-delay product of one scheme from its GLB traffic terms.
    auto edp = [&](double w_traffic, double i_traffic, double p_traffic) {
        const double glb = w_traffic + i_traffic + p_traffic + out_volume;
        const double buf = buf_macs + w_traffic;
        const double cycles =
            std::max({mac_cycles, glb / glbBytesPerCycle_, vec_cycles});
        return (energy_ops + glb * tech_.glbJPerByte +
                buf * tech_.bufJPerByte) * cycles;
    };

    // Exhaustive search minimizes the energy-delay product of the tile
    // (Sec. V-B1) over every scheme whose operand footprints fit the
    // buffers. The ladders ascend and each footprint grows with every
    // dimension it uses, so the first overflow along a ladder ends it:
    // weights (tk, tc) end the tc ladder, ifmaps (tc, th, tw) and psums
    // (tk, th, tw) end the tw ladder, and the th ladder once even the
    // smallest tw overflows. Feasible schemes are visited in ladder order
    // (tk, tc, th, tw, loop order), and the strict < keeps the first of
    // equal scores.
    bool found = false;
    double best_score = 0.0;
    std::int64_t best_k = 0, best_c = 0, best_h = 0, best_w = 0;
    LoopOrder best_order = LoopOrder::OutputStationary;
    auto consider = [&](double score, std::int64_t tk, std::int64_t tc,
                        std::int64_t th, std::int64_t tw, LoopOrder order) {
        if (!found || score < best_score) {
            best_score = score;
            best_k = tk;
            best_c = tc;
            best_h = th;
            best_w = tw;
            best_order = order;
            found = true;
        }
    };
    for (std::int64_t tk : ks) {
        const double n_k = std::ceil(static_cast<double>(tile.k) / tk);
        for (std::int64_t tc : cs) {
            const double weight_tile =
                static_cast<double>(tk) * tc * tile.r * tile.s;
            if (2.0 * weight_tile > wbufBytes_)
                break;
            const double n_c =
                std::ceil(static_cast<double>(tile.cPerGroup) / tc);
            const double n_kc = n_k * n_c;
            const double p_spill = out_volume * 4.0 * (2.0 * (n_c - 1.0));
            for (std::int64_t th : hs) {
                const double ifmap_h = static_cast<double>(tc) *
                                       ((th - 1) * tile.strideH + tile.r);
                const double psum_h = static_cast<double>(tk) * th;
                const double n_h = std::ceil(static_cast<double>(tile.h) / th);
                bool any_w = false;
                for (std::int64_t tw : ws) {
                    const double ifmap_tile =
                        ifmap_h * ((tw - 1) * tile.strideW + tile.s);
                    const double psum_tile = psum_h * tw * 4.0;
                    if (2.0 * ifmap_tile > ibufBytes_ ||
                        psum_tile > abufBytes_)
                        break;
                    any_w = true;
                    const double n_hw =
                        n_h * std::ceil(static_cast<double>(tile.w) / tw) *
                        static_cast<double>(tile.b);

                    const double n_os = n_hw * n_k * n_c;
                    consider(edp(n_os * weight_tile, n_os * ifmap_tile, 0.0),
                             tk, tc, th, tw, LoopOrder::OutputStationary);
                    consider(edp(n_kc * weight_tile,
                                 n_kc * n_hw * ifmap_tile, p_spill),
                             tk, tc, th, tw, LoopOrder::WeightStationary);
                    const double n_is = n_hw * n_c;
                    consider(edp(n_is * n_k * weight_tile,
                                 n_is * ifmap_tile, p_spill),
                             tk, tc, th, tw, LoopOrder::InputStationary);
                }
                if (!any_w)
                    break;
            }
        }
    }
    if (!found) {
        // The (1,1,1,1) candidate fits any realistic buffer (its working
        // set is just the r*s window), so reaching this means the core
        // parameters are nonsensical.
        GEMINI_PANIC("no feasible intra-core scheme for tile k=", tile.k,
                     " c=", tile.cPerGroup, " r=", tile.r, " s=", tile.s,
                     " on ", macsPerCore_, "-MAC core");
    }
    CoreCost best;
    evalScheme(tile, best_k, best_c, best_h, best_w, best_order, best);
    return best;
}

} // namespace gemini::intracore
