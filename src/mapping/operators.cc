#include "src/mapping/operators.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"

namespace gemini::mapping {

const char *
saOperatorName(SaOperator op)
{
    switch (op) {
      case SaOperator::ChangePartition: return "OP1-part";
      case SaOperator::SwapWithinLayer: return "OP2-swap-within";
      case SaOperator::SwapAcrossLayers: return "OP3-swap-across";
      case SaOperator::MoveCore: return "OP4-move-core";
      case SaOperator::ChangeFlow: return "OP5-flow";
    }
    return "?";
}

Partition
randomPartition(std::int64_t count, std::int64_t cap_h, std::int64_t cap_w,
                std::int64_t cap_b, std::int64_t cap_k,
                const Partition &current, Rng &rng)
{
    // Draw the k-th candidate of the enumeration with `current` left out
    // (when it is not the only one): one count pass, one select pass, no
    // candidate list.
    const Factor4 caps = {cap_h, cap_w, cap_b, cap_k};
    const Factor4 cur = {current.h, current.w, current.b, current.k};
    std::int64_t total = 0;
    bool has_cur = false;
    forEachFactorization4(count, caps, [&](const Factor4 &f) {
        ++total;
        has_cur = has_cur || f == cur;
        return true;
    });
    if (total == 0)
        return {.h = 0, .w = 0, .b = 0, .k = 0};
    const bool skip_cur = total > 1 && has_cur;
    std::int64_t k = rng.nextInt(total - (skip_cur ? 1 : 0));
    Factor4 pick{};
    forEachFactorization4(count, caps, [&](const Factor4 &f) {
        if (skip_cur && f == cur)
            return true;
        pick = f;
        return k-- > 0;
    });
    return {pick[0], pick[1], pick[2], pick[3]};
}

namespace {

/** Caps of a layer's partition dims within a group. */
void
capsOf(const dnn::Layer &l, std::int64_t batch_unit, std::int64_t &h,
       std::int64_t &w, std::int64_t &b, std::int64_t &k)
{
    h = l.h;
    w = l.w;
    b = batch_unit;
    k = l.k;
}

OperatorEffect
opChangePartition(LayerGroupMapping &g, const dnn::Graph &graph, Rng &rng,
                  SchemeUndoLog *undo)
{
    const std::size_t li =
        static_cast<std::size_t>(rng.nextInt(
            static_cast<std::int64_t>(g.layers.size())));
    MappingScheme &ms = g.schemes[li];
    std::int64_t ch, cw, cb, ck;
    capsOf(graph.layer(g.layers[li]), g.batchUnit, ch, cw, cb, ck);
    const Partition p = randomPartition(
        static_cast<std::int64_t>(ms.coreGroup.size()), ch, cw, cb, ck,
        ms.part, rng);
    if (p.count() != static_cast<std::int64_t>(ms.coreGroup.size()) ||
        p == ms.part) {
        return {};
    }
    if (undo != nullptr)
        undo->snapshot(li, ms);
    ms.part = p;
    return {.applied = true};
}

/**
 * The `rank`-th (0-based) index i of `schemes` whose core group holds at
 * least two cores, or the count of such indices when rank is negative.
 */
std::size_t
multiCoreLayer(const std::vector<MappingScheme> &schemes, std::int64_t rank)
{
    std::size_t seen = 0;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        if (schemes[i].coreGroup.size() < 2)
            continue;
        if (static_cast<std::int64_t>(seen) == rank)
            return i;
        ++seen;
    }
    return seen;
}

OperatorEffect
opSwapWithinLayer(LayerGroupMapping &g, Rng &rng, SchemeUndoLog *undo)
{
    // Draw among the layers with at least two cores.
    const std::size_t eligible = multiCoreLayer(g.schemes, -1);
    if (eligible == 0)
        return {};
    const std::size_t li = multiCoreLayer(
        g.schemes, rng.nextInt(static_cast<std::int64_t>(eligible)));
    auto &cg = g.schemes[li].coreGroup;
    const auto i = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(cg.size())));
    auto j = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(cg.size() - 1)));
    if (j >= i)
        ++j;
    if (undo != nullptr)
        undo->snapshot(li, g.schemes[li]);
    std::swap(cg[i], cg[j]);
    return {.applied = true};
}

OperatorEffect
opSwapAcrossLayers(LayerGroupMapping &g, Rng &rng, SchemeUndoLog *undo)
{
    if (g.layers.size() < 2)
        return {};
    const auto a = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(g.layers.size())));
    auto b = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(g.layers.size() - 1)));
    if (b >= a)
        ++b;
    auto &cga = g.schemes[a].coreGroup;
    auto &cgb = g.schemes[b].coreGroup;
    const auto i = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(cga.size())));
    const auto j = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(cgb.size())));
    if (undo != nullptr) {
        undo->snapshot(a, g.schemes[a]);
        undo->snapshot(b, g.schemes[b]);
    }
    std::swap(cga[i], cgb[j]);
    return {.applied = true};
}

OperatorEffect
opMoveCore(LayerGroupMapping &g, const dnn::Graph &graph, Rng &rng,
           SchemeUndoLog *undo)
{
    if (g.layers.size() < 2)
        return {};
    const std::size_t donors = multiCoreLayer(g.schemes, -1);
    if (donors == 0)
        return {};
    const std::size_t donor = multiCoreLayer(
        g.schemes, rng.nextInt(static_cast<std::int64_t>(donors)));
    auto recipient = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(g.layers.size() - 1)));
    if (recipient >= donor)
        ++recipient;

    auto &cg_d = g.schemes[donor].coreGroup;
    auto &cg_r = g.schemes[recipient].coreGroup;

    // Both new sizes must admit a partition before committing.
    std::int64_t dh, dw, db, dk, rh, rw, rb, rk;
    capsOf(graph.layer(g.layers[donor]), g.batchUnit, dh, dw, db, dk);
    capsOf(graph.layer(g.layers[recipient]), g.batchUnit, rh, rw, rb, rk);
    const auto n_d = static_cast<std::int64_t>(cg_d.size()) - 1;
    const auto n_r = static_cast<std::int64_t>(cg_r.size()) + 1;
    const Partition pd = randomPartition(n_d, dh, dw, db, dk,
                                         g.schemes[donor].part, rng);
    const Partition pr = randomPartition(n_r, rh, rw, rb, rk,
                                         g.schemes[recipient].part, rng);
    if (pd.count() != n_d || pr.count() != n_r)
        return {};

    if (undo != nullptr) {
        undo->snapshot(donor, g.schemes[donor]);
        undo->snapshot(recipient, g.schemes[recipient]);
    }
    const auto take = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(cg_d.size())));
    const CoreId core = cg_d[take];
    cg_d.erase(cg_d.begin() + static_cast<std::ptrdiff_t>(take));
    const auto put = static_cast<std::size_t>(
        rng.nextInt(static_cast<std::int64_t>(cg_r.size()) + 1));
    cg_r.insert(cg_r.begin() + static_cast<std::ptrdiff_t>(put), core);
    g.schemes[donor].part = pd;
    g.schemes[recipient].part = pr;
    return {.applied = true};
}

OperatorEffect
opChangeFlow(LayerGroupMapping &g, const arch::ArchConfig &arch, Rng &rng,
             SchemeUndoLog *undo)
{
    // Draw among the managed FD entries of the group, in (layer, field)
    // order: count them, then walk to the drawn one.
    std::int64_t managed = 0;
    for (const MappingScheme &ms : g.schemes)
        managed += (ms.fd.ifmap >= 0) + (ms.fd.weight >= 0) +
                   (ms.fd.ofmap >= 0);
    if (managed == 0)
        return {};
    std::int64_t rank = rng.nextInt(managed);
    std::size_t layer = 0;
    int field = 0; // 0 = ifmap, 1 = weight, 2 = ofmap
    for (std::size_t i = 0; i < g.schemes.size(); ++i) {
        const FlowOfData &fd = g.schemes[i].fd;
        const DramSel fields[3] = {fd.ifmap, fd.weight, fd.ofmap};
        for (int f = 0; f < 3; ++f) {
            if (fields[f] >= 0 && rank-- == 0) {
                layer = i;
                field = f;
            }
        }
    }
    FlowOfData &fd = g.schemes[layer].fd;
    DramSel &target =
        field == 0 ? fd.ifmap : (field == 1 ? fd.weight : fd.ofmap);
    // New value in [0, D] different from the current one.
    auto fresh = static_cast<DramSel>(rng.nextInt(arch.dramCount));
    if (fresh >= target)
        ++fresh; // skip the current value in the [0, D] range
    GEMINI_ASSERT(fresh >= 0 && fresh <= arch.dramCount,
                  "flow redraw out of range");
    if (undo != nullptr)
        undo->snapshot(layer, g.schemes[layer]);
    target = fresh;
    OperatorEffect eff{.applied = true};
    if (field == 2) {
        eff.ofmapFlowChanged = true;
        eff.ofmapLayer = g.layers[layer];
    }
    return eff;
}

} // namespace

OperatorEffect
applyOperator(SaOperator op, LayerGroupMapping &group,
              const dnn::Graph &graph, const arch::ArchConfig &arch,
              Rng &rng, SchemeUndoLog *undo)
{
    switch (op) {
      case SaOperator::ChangePartition:
        return opChangePartition(group, graph, rng, undo);
      case SaOperator::SwapWithinLayer:
        return opSwapWithinLayer(group, rng, undo);
      case SaOperator::SwapAcrossLayers:
        return opSwapAcrossLayers(group, rng, undo);
      case SaOperator::MoveCore:
        return opMoveCore(group, graph, rng, undo);
      case SaOperator::ChangeFlow:
        return opChangeFlow(group, arch, rng, undo);
    }
    GEMINI_PANIC("unknown SA operator");
}

} // namespace gemini::mapping
