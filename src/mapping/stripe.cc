#include "src/mapping/stripe.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"

namespace gemini::mapping {

Partition
stripePartition(std::int64_t cores, std::int64_t cap_h, std::int64_t cap_w,
                std::int64_t cap_b, std::int64_t cap_k)
{
    // Stripe preference: split spatially as much as possible (height
    // first), then channels, then batch — spatial tiles are what
    // Tangram-style heuristics assign to their rectangular core regions.
    // The first candidate in enumeration order wins ties.
    auto better = [](const Factor4 &a, const Factor4 &b) {
        const std::int64_t spatial_a = a[0] * a[1];
        const std::int64_t spatial_b = b[0] * b[1];
        if (spatial_a != spatial_b)
            return spatial_a > spatial_b;
        if (a[0] != b[0])
            return a[0] > b[0];
        if (a[3] != b[3])
            return a[3] > b[3];
        return a[2] > b[2];
    };
    bool found = false;
    Factor4 best{};
    forEachFactorization4(cores, {cap_h, cap_w, cap_b, cap_k},
                          [&](const Factor4 &cand) {
                              if (!found || better(cand, best))
                                  best = cand;
                              found = true;
                              return true;
                          });
    if (!found)
        return {};
    return {best[0], best[1], best[2], best[3]};
}

std::int64_t
largestFeasibleCores(std::int64_t want, std::int64_t cap_h,
                     std::int64_t cap_w, std::int64_t cap_b,
                     std::int64_t cap_k)
{
    for (std::int64_t n = want; n > 1; --n) {
        // The visitor stops at the first factorization: n is feasible.
        if (!forEachFactorization4(n, {cap_h, cap_w, cap_b, cap_k},
                                   [](const Factor4 &) { return false; }))
            return n;
    }
    return 1;
}

namespace {

/** A rectangle of cores [x0, x1) x [y0, y1) in the mesh. */
struct Rect
{
    int x0, y0, x1, y1;

    int width() const { return x1 - x0; }
    int height() const { return y1 - y0; }
    int area() const { return width() * height(); }
};

/**
 * Recursively bisect the layer sequence and the core rectangle so each
 * layer receives a consecutive, rectangle-shaped core region whose area is
 * roughly proportional to its work — the allocation shape the Tangram
 * heuristic (and the paper's Sec. VII-C discussion) describes. Adjacent
 * layers in the pipeline end up geometrically adjacent, keeping their
 * dependency traffic local.
 */
/**
 * Try to cut `rect` perpendicular to `axis` (0 = vertical cut splitting
 * the width, 1 = horizontal cut splitting the height) so the left part
 * holds >= left_n cores and the right part >= right_n, as close to `frac`
 * of the rect as possible. Returns false when no legal cut exists.
 */
bool
cutRect(const Rect &rect, int axis, double frac, int left_n, int right_n,
        Rect &left, Rect &right)
{
    const int extent = axis == 0 ? rect.width() : rect.height();
    const int lane = axis == 0 ? rect.height() : rect.width();
    const int min_cut = ceilDiv(left_n, lane);
    const int max_cut = extent - ceilDiv(right_n, lane);
    if (min_cut > max_cut)
        return false;
    const int cut = std::clamp(
        static_cast<int>(std::lround(frac * extent)), min_cut, max_cut);
    if (axis == 0) {
        left = {rect.x0, rect.y0, rect.x0 + cut, rect.y1};
        right = {rect.x0 + cut, rect.y0, rect.x1, rect.y1};
    } else {
        left = {rect.x0, rect.y0, rect.x1, rect.y0 + cut};
        right = {rect.x0, rect.y0 + cut, rect.x1, rect.y1};
    }
    return true;
}

void
bisect(const std::vector<double> &work, std::size_t first, std::size_t last,
       Rect rect, std::vector<Rect> &out)
{
    const std::size_t n = last - first;
    GEMINI_ASSERT(rect.area() >= static_cast<int>(n),
                  "rectangle too small for layer count");
    if (n == 1) {
        out[first] = rect;
        return;
    }
    if (rect.area() == static_cast<int>(n)) {
        // Exact fit: one 1x1 cell per layer, row-major.
        std::size_t i = first;
        for (int y = rect.y0; y < rect.y1; ++y)
            for (int x = rect.x0; x < rect.x1 && i < last; ++x, ++i)
                out[i] = Rect{x, y, x + 1, y + 1};
        return;
    }

    // Preferred split point: the half-work boundary of the layer range.
    double total = 0.0;
    for (std::size_t i = first; i < last; ++i)
        total += work[i];
    std::size_t mid = first + 1;
    double acc = work[first];
    while (mid < last - 1 && acc + work[mid] <= total / 2.0)
        acc += work[mid++];

    // Try the proportional cut on the longer axis, then the shorter one,
    // then scan alternative layer split points — some legal (mid, axis)
    // combination always exists when the rect is not exactly full.
    const int first_axis = rect.width() >= rect.height() ? 0 : 1;
    for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
        const std::size_t m =
            attempt < 2 ? mid : first + 1 + (attempt - 2) / 2;
        if (m <= first || m >= last)
            continue;
        const int axis = (attempt % 2 == 0) ? first_axis : 1 - first_axis;
        double acc_m = 0.0;
        for (std::size_t i = first; i < m; ++i)
            acc_m += work[i];
        const double frac = total > 0.0 ? acc_m / total : 0.5;
        Rect left, right;
        if (cutRect(rect, axis, frac, static_cast<int>(m - first),
                    static_cast<int>(last - m), left, right)) {
            bisect(work, first, m, left, out);
            bisect(work, m, last, right, out);
            return;
        }
    }
    GEMINI_PANIC("bisect found no legal split for ", n, " layers in ",
                 rect.width(), "x", rect.height(), " rect");
}

/**
 * Partition matched to a rectangle: try to split the ofmap height over the
 * rectangle's rows and the width over its columns (so producer/consumer
 * tiles align spatially and only halos cross core boundaries); fall back
 * to the generic spatial-first stripe partition when the fmap is too
 * small, shrinking the core group if even that fails.
 */
Partition
rectPartition(const dnn::Layer &l, std::int64_t batch_unit, Rect &rect,
              std::vector<CoreId> &cores, const arch::ArchConfig &arch)
{
    auto rect_cores = [&](int n) {
        cores.clear();
        cores.reserve(static_cast<std::size_t>(n));
        for (int y = rect.y0; y < rect.y1 && static_cast<int>(cores.size())
                                                 < n; ++y)
            for (int x = rect.x0;
                 x < rect.x1 && static_cast<int>(cores.size()) < n; ++x)
                cores.push_back(arch.coreAt(x, y));
    };

    // Preferred: rows -> H, cols -> W (core order is row-major, i.e.
    // h-major then w, exactly matching the correspondence rule's layout
    // for Part = (rows, cols, 1, 1)).
    if (l.h >= rect.height() && l.w >= rect.width()) {
        rect_cores(rect.area());
        return {rect.height(), rect.width(), 1, 1};
    }
    // Generic fallback over the rectangle's core set.
    const std::int64_t n = largestFeasibleCores(
        rect.area(), l.h, l.w, batch_unit, l.k);
    rect_cores(static_cast<int>(n));
    Partition p = stripePartition(n, l.h, l.w, batch_unit, l.k);
    GEMINI_ASSERT(p.count() == n, "stripePartition failed for feasible n");
    return p;
}

} // namespace

LayerGroupMapping
naiveStripeMapping(const dnn::Graph &graph, const arch::ArchConfig &arch,
                   const std::vector<LayerId> &layers,
                   std::int64_t batch_unit)
{
    GEMINI_ASSERT(!layers.empty(), "naiveStripeMapping needs layers");
    GEMINI_ASSERT(static_cast<int>(layers.size()) <= arch.coreCount(),
                  "more layers than cores in one group");
    LayerGroupMapping group;
    group.layers = layers;
    group.batchUnit = batch_unit;
    const std::int64_t m = arch.coreCount();
    const std::size_t n = layers.size();

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

    // One core each, then hand out the rest by largest deficit.
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
        ms.part = stripePartition(alloc[i], l.h, l.w, batch_unit, l.k);
        GEMINI_ASSERT(ms.part.count() == alloc[i],
                      "stripePartition failed for feasible count");
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

LayerGroupMapping
stripeMapping(const dnn::Graph &graph, const arch::ArchConfig &arch,
              const std::vector<LayerId> &layers, std::int64_t batch_unit)
{
    GEMINI_ASSERT(!layers.empty(), "stripeMapping needs layers");
    GEMINI_ASSERT(static_cast<int>(layers.size()) <= arch.coreCount(),
                  "more layers than cores in one group");
    LayerGroupMapping group;
    group.layers = layers;
    group.batchUnit = batch_unit;
    const std::size_t n = layers.size();

    // FLOP-proportional work weights; vector-only layers are weighted by
    // their vector work scaled to MAC-equivalents.
    std::vector<double> work(n);
    for (std::size_t i = 0; i < n; ++i) {
        const dnn::Layer &l = graph.layer(layers[i]);
        work[i] = static_cast<double>(l.macsPerSample()) +
                  16.0 * static_cast<double>(l.vectorOpsPerSample());
        work[i] = std::max(work[i], 1.0);
    }

    std::vector<Rect> rects(n);
    bisect(work, 0, n, Rect{0, 0, arch.xCores, arch.yCores}, rects);

    group.schemes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const dnn::Layer &l = graph.layer(layers[i]);
        MappingScheme &ms = group.schemes[i];
        ms.part = rectPartition(l, batch_unit, rects[i], ms.coreGroup,
                                arch);
        GEMINI_ASSERT(ms.part.count() ==
                          static_cast<std::int64_t>(ms.coreGroup.size()),
                      "partition/core-group mismatch in stripeMapping");

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
