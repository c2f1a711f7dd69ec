/**
 * @file
 * Unit tests for the intra-core exploration engine: tile math, search
 * feasibility, physical sanity of the chosen schemes (roofline bounds,
 * traffic lower bounds), memoization behaviour, and a differential test of
 * the search against a reference that evaluates every scheme.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/intracore/explorer.hh"
#include "src/intracore/tile.hh"

namespace gemini::intracore {
namespace {

Tile
convTile(std::int64_t b, std::int64_t k, std::int64_t hw, std::int64_t c,
         std::int64_t r)
{
    Tile t;
    t.b = b;
    t.k = k;
    t.h = hw;
    t.w = hw;
    t.cPerGroup = c;
    t.r = t.s = r;
    return t;
}

TEST(Tile, MacAndVecCounts)
{
    const Tile t = convTile(2, 16, 8, 32, 3);
    EXPECT_EQ(t.outVolume(), 2 * 16 * 8 * 8);
    EXPECT_EQ(t.macs(), t.outVolume() * 32 * 9);
    EXPECT_DOUBLE_EQ(t.vecOps(), static_cast<double>(t.outVolume()));
}

TEST(Tile, VectorTileHasNoMacs)
{
    Tile t = convTile(1, 8, 4, 8, 3);
    t.macWork = false;
    t.vecOpFactor = 4.0;
    EXPECT_EQ(t.macs(), 0);
    EXPECT_DOUBLE_EQ(t.vecOps(), 4.0 * t.outVolume());
}

class ExplorerTest : public ::testing::Test
{
  protected:
    Explorer explorer_{1024, 2 * 1024 * 1024, 1.0};
};

TEST_F(ExplorerTest, MacCyclesRoofline)
{
    // A big well-shaped tile must approach peak utilization: cycles close
    // to macs / 1024.
    const Tile t = convTile(1, 64, 16, 256, 3);
    const CoreCost &c = explorer_.evaluate(t);
    const double ideal = static_cast<double>(t.macs()) / 1024.0;
    EXPECT_GE(c.cycles, ideal * 0.999);
    EXPECT_LE(c.cycles, ideal * 3.0);
}

TEST_F(ExplorerTest, DepthwiseRunsAtLowUtilization)
{
    // Depthwise conv: cPerGroup=1, r=s=3 -> only 9 of 64 C lanes busy.
    const Tile dw = convTile(1, 64, 16, 1, 3);
    const CoreCost &c = explorer_.evaluate(dw);
    const double ideal = static_cast<double>(dw.macs()) / 1024.0;
    EXPECT_GT(c.cycles, ideal * 5.0); // 64/9 ~ 7.1x slowdown
}

TEST_F(ExplorerTest, GlbTrafficAtLeastCompulsory)
{
    const Tile t = convTile(1, 32, 8, 64, 3);
    const CoreCost &c = explorer_.evaluate(t);
    // Compulsory traffic: weights once + ofmap once (ifmap has halo).
    const double weights = static_cast<double>(32 * 64 * 9);
    const double ofmap = static_cast<double>(t.outVolume());
    EXPECT_GE(c.glbBytes, weights + ofmap);
}

TEST_F(ExplorerTest, EnergyPositiveAndConsistent)
{
    const Tile t = convTile(1, 16, 8, 32, 1);
    const CoreCost &c = explorer_.evaluate(t);
    EXPECT_GT(c.energyJ, 0.0);
    EXPECT_EQ(c.macs, t.macs());
    // Energy at least the MAC floor.
    EXPECT_GE(c.energyJ, c.macs * explorer_.tech().macJ);
}

TEST_F(ExplorerTest, MemoizationHits)
{
    const Tile t = convTile(1, 16, 8, 32, 3);
    explorer_.evaluate(t);
    const auto misses = explorer_.cacheMisses();
    explorer_.evaluate(t);
    explorer_.evaluate(t);
    EXPECT_EQ(explorer_.cacheMisses(), misses);
    EXPECT_GE(explorer_.cacheHits(), 2u);
}

TEST_F(ExplorerTest, VectorTileDelayScalesWithOps)
{
    Tile t = convTile(1, 64, 8, 1, 1);
    t.macWork = false;
    t.vecOpFactor = 2.0;
    const CoreCost c1 = explorer_.evaluate(t);
    t.vecOpFactor = 8.0;
    const CoreCost c4 = explorer_.evaluate(t);
    EXPECT_GT(c4.cycles, c1.cycles);
    EXPECT_GT(c4.energyJ, c1.energyJ);
    EXPECT_EQ(c1.macs, 0);
}

TEST_F(ExplorerTest, SecondsUsesFrequency)
{
    Explorer fast(1024, 2 * 1024 * 1024, 2.0);
    EXPECT_DOUBLE_EQ(fast.seconds(2.0e9), 1.0);
    EXPECT_DOUBLE_EQ(explorer_.seconds(1.0e9), 1.0);
}

TEST_F(ExplorerTest, ChosenTilesRespectDims)
{
    const Tile t = convTile(2, 48, 13, 96, 3);
    const CoreCost &c = explorer_.evaluate(t);
    EXPECT_GE(c.tileK, 1);
    EXPECT_LE(c.tileK, t.k);
    EXPECT_LE(c.tileC, t.cPerGroup);
    EXPECT_LE(c.tileH, t.h);
    EXPECT_LE(c.tileW, t.w);
}

TEST_F(ExplorerTest, BiggerTileCostsMore)
{
    const CoreCost small = explorer_.evaluate(convTile(1, 16, 8, 64, 3));
    const CoreCost big = explorer_.evaluate(convTile(1, 64, 16, 64, 3));
    EXPECT_GT(big.cycles, small.cycles);
    EXPECT_GT(big.energyJ, small.energyJ);
}

TEST(ExplorerScaling, MoreMacsFasterOnBigTiles)
{
    Explorer small(512, 1 << 21, 1.0);
    Explorer big(4096, 1 << 21, 1.0);
    const Tile t = convTile(1, 128, 32, 256, 3);
    const double cy_small = small.evaluate(t).cycles;
    const double cy_big = big.evaluate(t).cycles;
    EXPECT_LT(cy_big, cy_small);
    // At most the 8x MAC ratio.
    EXPECT_GE(cy_big, cy_small / 8.01);
}

TEST(ExplorerScaling, MatmulShapedTile)
{
    // FC-per-token tile (r=s=1, deep reduction): must be feasible and
    // MAC-bound on a 1024-MAC core with a healthy GLB.
    Explorer ex(1024, 1 << 21, 1.0);
    Tile t;
    t.b = 1;
    t.k = 512;
    t.h = 64;
    t.w = 1;
    t.cPerGroup = 512;
    const CoreCost &c = ex.evaluate(t);
    const double ideal = static_cast<double>(t.macs()) / 1024.0;
    EXPECT_LT(c.cycles, ideal * 2.0);
}

TEST(ExplorerScaling, SmallerBuffersNeverBeatLargerOnEdp)
{
    // Shrinking the operand buffers shrinks the feasible scheme set, so
    // the best energy-delay product can only get worse; and the scheme a
    // cramped core picks must actually fit its buffers.
    Explorer roomy(1024, 1 << 22, 1.0);
    arch::TechParams cramped_tech;
    cramped_tech.wbufBytesPerMac = 2.0; // 2 KiB weight buffer
    cramped_tech.ibufBytesPerMac = 1.0;
    Explorer cramped(1024, 1 << 22, 1.0, cramped_tech);
    const Tile t = convTile(1, 64, 16, 256, 3);
    const CoreCost r = roomy.evaluate(t);
    const CoreCost c = cramped.evaluate(t);
    EXPECT_LE(r.energyJ * r.cycles, c.energyJ * c.cycles * 1.0001);
    EXPECT_LE(2.0 * c.tileK * c.tileC * t.r * t.s,
              cramped_tech.wbufBytesPerMac * 1024);
}

// ---------------------------------------------------------------------
// Differential test: Explorer::search against a reference search that
// visits every (tk, tc, th, tw, order) scheme and builds a full CoreCost
// for each. The reference shares no code with the explorer: its ladder,
// loop and per-scheme formulas are written out here in full.
// ---------------------------------------------------------------------

/** The reference's copy of the explorer's derived core parameters. */
struct RefCore
{
    int macsPerCore;
    arch::TechParams tech;
    int lanesC;
    int lanesK;
    double wbufBytes;
    double ibufBytes;
    double abufBytes;
    double glbBytesPerCycle;
    double vecLanes;

    RefCore(int macs_per_core, const arch::TechParams &t)
        : macsPerCore(macs_per_core), tech(t)
    {
        lanesC = std::min(tech.lanesC, macs_per_core);
        lanesK = std::max(1, macs_per_core / lanesC);
        wbufBytes = tech.wbufBytesPerMac * macs_per_core;
        ibufBytes = tech.ibufBytesPerMac * macs_per_core;
        abufBytes = tech.abufBytesPerMac * macs_per_core;
        glbBytesPerCycle = tech.glbBytesPerCyclePerMac * macs_per_core;
        vecLanes = std::max(1.0, static_cast<double>(macs_per_core) /
                                     tech.vecLaneDivisor);
    }
};

std::vector<std::int64_t>
refCandidates(std::int64_t dim, std::int64_t natural)
{
    std::vector<std::int64_t> out;
    for (std::int64_t v = 1; v < dim; v *= 4)
        out.push_back(v);
    if (natural > 1 && natural < dim)
        out.push_back(natural);
    out.push_back(dim);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
refScheme(const RefCore &core, const Tile &t, std::int64_t tk,
          std::int64_t tc, std::int64_t th, std::int64_t tw, LoopOrder order,
          CoreCost &out)
{
    const double weight_tile =
        static_cast<double>(tk) * tc * t.r * t.s;
    const double ifmap_tile =
        static_cast<double>(tc) * ((th - 1) * t.strideH + t.r) *
        ((tw - 1) * t.strideW + t.s);
    const double psum_tile = static_cast<double>(tk) * th * tw * 4.0;
    if (2.0 * weight_tile > core.wbufBytes ||
        2.0 * ifmap_tile > core.ibufBytes || psum_tile > core.abufBytes) {
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
        w_traffic = n_hw * n_k * n_c * weight_tile;
        i_traffic = n_hw * n_k * n_c * ifmap_tile;
        p_traffic = 0.0;
        break;
      case LoopOrder::WeightStationary:
        w_traffic = n_k * n_c * weight_tile;
        i_traffic = n_k * n_c * n_hw * ifmap_tile;
        p_traffic = out_volume * 4.0 * (2.0 * (n_c - 1.0));
        break;
      case LoopOrder::InputStationary:
        i_traffic = n_hw * n_c * ifmap_tile;
        w_traffic = n_hw * n_c * n_k * weight_tile;
        p_traffic = out_volume * 4.0 * (2.0 * (n_c - 1.0));
        break;
    }
    const double o_traffic = out_volume;

    out.macs = t.macs();
    out.vecOps = t.vecOps();
    out.glbBytes = w_traffic + i_traffic + p_traffic + o_traffic;
    out.bufBytes = static_cast<double>(out.macs) / core.lanesK + w_traffic;

    const double fold_c = static_cast<double>(t.cPerGroup) * t.r * t.s;
    const double util_k =
        static_cast<double>(t.k) / (core.lanesK * std::ceil(
            static_cast<double>(t.k) / core.lanesK));
    const double util_c =
        fold_c / (core.lanesC * std::ceil(fold_c / core.lanesC));
    const double mac_cycles =
        static_cast<double>(out.macs) /
        (static_cast<double>(core.macsPerCore) * util_k * util_c);

    const double mem_cycles = out.glbBytes / core.glbBytesPerCycle;
    const double vec_cycles = out.vecOps / core.vecLanes;
    out.cycles = std::max({mac_cycles, mem_cycles, vec_cycles});
    out.energyJ = out.macs * core.tech.macJ + out.vecOps * core.tech.vecOpJ +
                  out.glbBytes * core.tech.glbJPerByte +
                  out.bufBytes * core.tech.bufJPerByte;
    out.tileK = tk;
    out.tileC = tc;
    out.tileH = th;
    out.tileW = tw;
    out.order = order;
    return true;
}

/** Every feasible scheme, in loop order; nullopt when none fits. */
std::optional<CoreCost>
refSearch(const RefCore &core, const Tile &tile,
          std::size_t *feasible = nullptr, std::size_t *visited = nullptr)
{
    const auto ks = refCandidates(tile.k, core.lanesK);
    const auto cs = refCandidates(tile.cPerGroup, core.lanesC);
    const auto hs = refCandidates(tile.h, 1);
    const auto ws = refCandidates(tile.w, 1);
    static constexpr LoopOrder kOrders[] = {LoopOrder::OutputStationary,
                                            LoopOrder::WeightStationary,
                                            LoopOrder::InputStationary};
    CoreCost best;
    bool found = false;
    double best_score = 0.0;
    for (auto tk : ks) {
        for (auto tc : cs) {
            for (auto th : hs) {
                for (auto tw : ws) {
                    for (LoopOrder order : kOrders) {
                        if (visited)
                            ++*visited;
                        CoreCost cand;
                        if (!refScheme(core, tile, tk, tc, th, tw, order,
                                       cand))
                            continue;
                        if (feasible)
                            ++*feasible;
                        const double score = cand.energyJ * cand.cycles;
                        if (!found || score < best_score) {
                            best = cand;
                            best_score = score;
                            found = true;
                        }
                    }
                }
            }
        }
    }
    if (!found)
        return std::nullopt;
    return best;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every CoreCost field, doubles compared by bit pattern. */
::testing::AssertionResult
sameCost(const CoreCost &a, const CoreCost &b)
{
    if (bits(a.cycles) == bits(b.cycles) && a.macs == b.macs &&
        bits(a.vecOps) == bits(b.vecOps) &&
        bits(a.glbBytes) == bits(b.glbBytes) &&
        bits(a.bufBytes) == bits(b.bufBytes) &&
        bits(a.energyJ) == bits(b.energyJ) && a.tileK == b.tileK &&
        a.tileC == b.tileC && a.tileH == b.tileH && a.tileW == b.tileW &&
        a.order == b.order) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "cycles " << a.cycles << " vs " << b.cycles << ", energyJ "
           << a.energyJ << " vs " << b.energyJ << ", glbBytes "
           << a.glbBytes << " vs " << b.glbBytes << ", bufBytes "
           << a.bufBytes << " vs " << b.bufBytes << ", tile (" << a.tileK
           << "," << a.tileC << "," << a.tileH << "," << a.tileW << ","
           << loopOrderName(a.order) << ") vs (" << b.tileK << ","
           << b.tileC << "," << b.tileH << "," << b.tileW << ","
           << loopOrderName(b.order) << ")";
}

std::string
describe(const Tile &t, int macs, std::int64_t glb)
{
    std::ostringstream os;
    os << macs << " MACs, GLB " << glb << ": b=" << t.b << " k=" << t.k
       << " h=" << t.h << " w=" << t.w << " c=" << t.cPerGroup << " r=" << t.r
       << " s=" << t.s << " stride=" << t.strideH << "x" << t.strideW
       << " vec=" << t.vecOpFactor;
    return os.str();
}

class SearchDifferential : public ::testing::Test
{
  protected:
    std::mt19937_64 rng_{0x1D7AC0DE};

    std::int64_t
    pick(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
    }

    /** Log-uniform in [1, hi], so small and large dims both show up. */
    std::int64_t
    dim(std::int64_t hi)
    {
        const double e = std::uniform_real_distribution<double>(
            0.0, std::log2(static_cast<double>(hi)))(rng_);
        return std::clamp<std::int64_t>(
            static_cast<std::int64_t>(std::exp2(e)), 1, hi);
    }

    Tile
    randomTile()
    {
        Tile t;
        t.b = dim(16);
        t.k = dim(4096);
        t.h = dim(112);
        t.w = pick(0, 3) == 0 ? t.h : dim(112);
        t.cPerGroup = pick(0, 3) == 0 ? 1 : dim(2048); // 1: depthwise
        t.r = pick(1, 7);
        t.s = pick(0, 1) == 0 ? t.r : pick(1, 7);
        t.strideH = pick(1, 2);
        t.strideW = pick(1, 2);
        t.vecOpFactor = static_cast<double>(pick(0, 8)) / 2.0;
        return t;
    }

    /**
     * Evaluate each tile on `explorer` and on the reference. Tiles that no
     * scheme fits are skipped (the explorer panics on them). Returns the
     * number of tiles compared.
     */
    int
    compare(Explorer &explorer, const RefCore &ref,
            const std::vector<Tile> &tiles)
    {
        int compared = 0;
        for (const Tile &t : tiles) {
            const auto want = refSearch(ref, t);
            if (!want)
                continue;
            ++compared;
            EXPECT_TRUE(sameCost(explorer.evaluate(t), *want))
                << describe(t, explorer.macsPerCore(), explorer.glbBytes());
        }
        return compared;
    }
};

TEST_F(SearchDifferential, RandomTilesAcrossCoreConfigs)
{
    const int macs[] = {64, 256, 512, 1024, 2048, 4096, 8192};
    const std::int64_t glb_kib[] = {256, 1024, 8192};
    for (int m : macs) {
        for (std::int64_t kib : glb_kib) {
            Explorer ex(m, kib * 1024, 1.0);
            std::vector<Tile> tiles;
            for (int i = 0; i < 400; ++i)
                tiles.push_back(randomTile());
            EXPECT_EQ(compare(ex, RefCore(m, {}), tiles), 400);
        }
    }
}

TEST_F(SearchDifferential, DepthwiseAndUnitDims)
{
    std::vector<Tile> tiles;
    for (int i = 0; i < 300; ++i) {
        Tile t = randomTile();
        t.cPerGroup = 1;
        // Force a random subset of the dims to 1.
        const std::int64_t mask = pick(0, 15);
        if (mask & 1)
            t.b = 1;
        if (mask & 2)
            t.k = 1;
        if (mask & 4)
            t.h = 1;
        if (mask & 8)
            t.w = 1;
        tiles.push_back(t);
    }
    Tile all_ones;
    tiles.push_back(all_ones);
    for (int m : {64, 1024, 8192}) {
        Explorer ex(m, 2 << 20, 1.0);
        EXPECT_EQ(compare(ex, RefCore(m, {}), tiles),
                  static_cast<int>(tiles.size()));
    }
}

TEST_F(SearchDifferential, TinyBuffersWhereMostSchemesOverflow)
{
    std::size_t feasible = 0, visited = 0;
    int compared = 0;
    for (int m : {64, 256, 1024, 4096}) {
        for (int i = 0; i < 8; ++i) {
            // Whole-buffer sizes from just above the (1,1,1,1) scheme's
            // footprint (r, s <= 3: 18 B of weights or ifmap, 4 B psum).
            auto bytes = [&](double lo, double hi) {
                return std::uniform_real_distribution<double>(lo, hi)(rng_) /
                       m;
            };
            arch::TechParams tech;
            tech.wbufBytesPerMac = bytes(18.0, 512.0);
            tech.ibufBytesPerMac = bytes(18.0, 512.0);
            tech.abufBytesPerMac = bytes(4.0, 256.0);
            Explorer ex(m, 256 * 1024, 1.0, tech);
            const RefCore ref(m, tech);
            std::vector<Tile> tiles;
            for (int j = 0; j < 100; ++j) {
                Tile t = randomTile();
                t.r = pick(1, 3);
                t.s = pick(1, 3);
                tiles.push_back(t);
                refSearch(ref, t, &feasible, &visited);
            }
            compared += compare(ex, ref, tiles);
        }
    }
    EXPECT_EQ(compared, 4 * 8 * 100);
    // The point of this config: most schemes do not fit.
    EXPECT_LT(feasible * 2, visited);
}

TEST(LoopOrderNames, AllDistinct)
{
    EXPECT_STRNE(loopOrderName(LoopOrder::OutputStationary),
                 loopOrderName(LoopOrder::WeightStationary));
    EXPECT_STRNE(loopOrderName(LoopOrder::WeightStationary),
                 loopOrderName(LoopOrder::InputStationary));
}

} // namespace
} // namespace gemini::intracore
