#include "src/mapping/group_state.hh"

#include <algorithm>
#include <cstring>

#include "src/common/logging.hh"
#include "src/mapping/kernels.hh"

namespace gemini::mapping {

void
MaxSegTree::resizePreserve(std::size_t leaves)
{
    const std::size_t m = roundUpPow2(leaves);
    std::vector<double> fresh(2 * m, 0.0);
    const std::size_t keep = std::min(n_, m);
    for (std::size_t i = 0; i < keep; ++i)
        fresh[m + i] = tree_[n_ + i];
    tree_ = std::move(fresh);
    n_ = m;
    const kernels::KernelTable &k = kernels::active();
    for (std::size_t lvl = n_ >> 1; lvl >= 1; lvl >>= 1)
        k.pairMax(tree_.data() + lvl, tree_.data() + 2 * lvl, lvl);
}

void
MaxSegTree::assign(const double *values, std::size_t count)
{
    GEMINI_ASSERT(count <= n_, "MaxSegTree::assign beyond leaf space");
    std::memcpy(tree_.data() + n_, values, count * sizeof(double));
    std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(n_ + count),
              tree_.end(), 0.0);
    const kernels::KernelTable &k = kernels::active();
    for (std::size_t lvl = n_ >> 1; lvl >= 1; lvl >>= 1)
        k.pairMax(tree_.data() + lvl, tree_.data() + 2 * lvl, lvl);
}

std::uint32_t
GroupState::denseIdxOf(noc::LinkId link)
{
    std::uint32_t idx1 = linkMap_[link];
    if (idx1 == 0) {
        if (dense_.size() == tree_.leaves())
            tree_.resizePreserve(
                std::max<std::size_t>(64, 2 * dense_.size()));
        DenseSlot fresh;
        fresh.link = link;
        dense_.push_back(fresh);
        idx1 = static_cast<std::uint32_t>(dense_.size());
        linkMap_[link] = idx1;
    }
    return idx1 - 1;
}

GroupState::Contrib *
GroupState::allocSlab(std::uint16_t cls)
{
    GEMINI_ASSERT(cls < kNumClasses, "contribution slab class overflow");
    if (Contrib *slab = freeHeads_[cls]) {
        std::memcpy(&freeHeads_[cls], slab, sizeof(Contrib *));
        return slab;
    }
    return contribArena_.allocSpan<Contrib>(classCap(cls)).data();
}

void
GroupState::freeSlab(Contrib *slab, std::uint16_t cls)
{
    // The class free list threads through the first 8 bytes of each slab
    // (every class holds >= 4 entries, comfortably enough room).
    std::memcpy(slab, &freeHeads_[cls], sizeof(Contrib *));
    freeHeads_[cls] = slab;
}

void
GroupState::noteCapacities()
{
    const std::size_t sum =
        linkMap_.size() * 4 + dense_.capacity() * sizeof(DenseSlot) +
        active_.capacity() * 4 + layerEnergy_.capacity() * 8 +
        layerStage_.capacity() * 8 + layerGlb_.capacity() * 8 +
        layerDram_.capacity() * 8 + affected_.capacity() * 4 +
        activeAdds_.capacity() * 4 + activeDels_.capacity() * 4 +
        activeScratch_.capacity() * 4 + bytesScratch_.capacity() * 8 +
        kindScratch_.capacity() + secondsScratch_.capacity() * 8 +
        depthScratch_.capacity() * 4 + cachedDram_.capacity() * 8;
    if (sum > capWatermark_) {
        if (capWatermark_ != 0)
            ++growthEvents_;
        capWatermark_ = sum;
    }
}

std::uint64_t
GroupState::allocEvents() const
{
    return contribArena_.allocEvents() + growthEvents_;
}

void
GroupState::rebuild(const dnn::Graph &graph, const LayerGroupMapping &group,
                    std::int64_t batch,
                    std::span<const LayerTiles *const> tiles,
                    std::span<const LayerFlows *const> flows,
                    const OfmapDramLookup &ofmap_dram_of,
                    const noc::InterconnectModel &noc)
{
    const std::size_t n_layers = group.layers.size();
    GEMINI_ASSERT(tiles.size() == n_layers && flows.size() == n_layers,
                  "rebuild needs every layer's fragments");
    const kernels::KernelTable &k = kernels::active();

    membership.clear();
    membership.push_back(batch);
    membership.push_back(group.batchUnit);
    for (LayerId id : group.layers)
        membership.push_back(id);

    if (linkMap_.size() != noc.linkCount()) {
        linkMap_.resizeZero(noc.linkCount());
    } else {
        // Sparse clear: only ever-touched links (the dense entries) can
        // hold a nonzero index.
        for (const DenseSlot &d : dense_)
            linkMap_[d.link] = 0;
    }
    dense_.clear();
    contribArena_.reset();
    freeHeads_.fill(nullptr);
    active_.clear();

    dramStride_ = flows.empty() ? 0 : flows[0]->dramBytes.size();
    layerEnergy_.assign(n_layers, 0.0);
    layerStage_.assign(n_layers, 0.0);
    layerGlb_.assign(n_layers, 0.0);
    layerDram_.assign(n_layers * dramStride_, 0.0);

    // Pass 1: per-layer metadata, link ids and per-link contribution
    // counts; dense entries are created in first-touch order. Layer
    // entries are recycled in place so their vectors keep capacity
    // across rebuilds.
    layers.resize(n_layers);
    for (std::size_t li = 0; li < n_layers; ++li) {
        GroupLayerState &entry = layers[li];
        entry.scheme = group.schemes[li];
        entry.inGroupProducers.clear();
        entry.outProducers.clear();
        entry.producerDrams.clear();
        layerStage_[li] = tiles[li]->stageSeconds;
        layerEnergy_[li] = tiles[li]->energyPerUnit;
        layerGlb_[li] = flows[li]->glbOverflow;
        std::memcpy(layerDram_.data() + li * dramStride_,
                    flows[li]->dramBytes.data(),
                    dramStride_ * sizeof(double));
        for (LayerId producer : graph.layer(group.layers[li]).inputs) {
            const int pi = group.indexOf(producer);
            if (pi >= 0) {
                entry.inGroupProducers.push_back(pi);
            } else {
                entry.outProducers.push_back(producer);
                entry.producerDrams.push_back(ofmap_dram_of(producer));
            }
        }

        entry.linkIds.clear();
        for (const auto &[link, bytes] : flows[li]->links) {
            entry.linkIds.push_back(link);
            std::uint32_t &m = linkMap_[link];
            if (m == 0) {
                DenseSlot fresh;
                fresh.link = link;
                dense_.push_back(fresh);
                m = static_cast<std::uint32_t>(dense_.size());
                active_.push_back(link);
            }
            ++dense_[m - 1].len;
        }
    }
    std::sort(active_.begin(), active_.end());

    // Pass 2: size-classed slabs from the retained arena, then fill in
    // (layer, entry) order — the exact fold order of the full-merge
    // reference — accumulating each slot's total as it fills. Per-slot
    // entries land in ascending layer order by construction.
    for (DenseSlot &d : dense_) {
        d.capClass = classFor(d.len);
        d.contrib = allocSlab(d.capClass);
        d.len = 0;
    }
    for (std::size_t li = 0; li < n_layers; ++li) {
        const auto &links = flows[li]->links;
        for (std::size_t e = 0; e < links.size(); ++e) {
            DenseSlot &d = dense_[linkMap_[links[e].first] - 1];
            d.contrib[d.len++] = {links[e].second,
                                  static_cast<std::uint32_t>(li), 0};
            d.bytes += links[e].second;
        }
    }

    // Tournament tree: leaf id == dense index (first-touch order; max is
    // order-free, so leaf numbering cannot affect the result), leaf
    // seconds batched through the exact-division kernel, one bottom-up
    // build. The same pass stamps each entry's link kind (a property of
    // the slot, fixed for the life of the interconnect) so the cached
    // fold never needs an interconnect lookup.
    const std::size_t n_active = dense_.size();
    tree_.reset(std::max<std::size_t>(64, 2 * n_active));
    bytesScratch_.resize(n_active);
    kindScratch_.resize(n_active);
    for (std::size_t i = 0; i < n_active; ++i) {
        DenseSlot &d = dense_[i];
        const auto kind = static_cast<std::uint8_t>(noc.linkKindAt(d.link));
        d.kindPlus1 = static_cast<std::uint8_t>(kind + 1);
        bytesScratch_[i] = d.bytes;
        kindScratch_[i] = kind;
    }
    secondsScratch_.resize(n_active);
    k.secondsFromKinds(secondsScratch_.data(), bytesScratch_.data(),
                       kindScratch_.data(), noc.nocBandwidthBps(),
                       noc.d2dBandwidthBps(), n_active);
    tree_.assign(secondsScratch_.data(), n_active);

    // Pipeline depth is membership-invariant: compute once per rebuild.
    depthScratch_.assign(n_layers, 1);
    int depth = 1;
    for (std::size_t li = 0; li < n_layers; ++li) {
        for (LayerId in : graph.layer(group.layers[li]).inputs) {
            const int pi = group.indexOf(in);
            if (pi >= 0)
                depthScratch_[li] = std::max(
                    depthScratch_[li],
                    depthScratch_[static_cast<std::size_t>(pi)] + 1);
        }
        depth = std::max(depth, depthScratch_[li]);
    }
    pipelineDepth = depth;

    valid = true;
    foldsValid_ = false;
    cachedDram_.reserve(dramStride_); // sized before the watermark reads
    noteCapacities();
}

void
GroupState::applyDelta(const LayerGroupMapping &group,
                       std::span<const std::size_t> changed,
                       std::span<const LayerTiles *const> tiles,
                       std::span<const LayerFlows *const> flows,
                       const OfmapDramLookup &ofmap_dram_of,
                       const noc::InterconnectModel &noc)
{
    GEMINI_ASSERT(valid, "applyDelta on an unbuilt state");
    const kernels::KernelTable &k = kernels::active();
    affected_.clear();

    // First touch records whether the slot was active *before* this
    // delta, so activity transitions batch into one merge pass below.
    auto mark_affected = [&](DenseSlot &d, std::uint32_t idx) {
        if (!d.flag) {
            d.flag = d.len > 0 ? kWasActive : kWasEmpty;
            affected_.push_back(idx);
        }
    };

    for (std::size_t li : changed) {
        GroupLayerState &entry = layers[li];
        const auto layer_tag = static_cast<std::uint32_t>(li);

        // Resolve the NEW link list first and stamp its dense indices:
        // most of a relinked layer's slots carry over from the old list
        // (the route set shifts slowly under SA moves), and a stamped
        // slot skips the remove-then-reinsert memmove pair below in
        // favor of one in-place byte overwrite.
        const auto &links = flows[li]->links;
        const std::size_t n_new = links.size();
        idxScratch_.resize(n_new);
        for (std::size_t e = 0; e < n_new; ++e)
            idxScratch_[e] = denseIdxOf(links[e].first);
        ++stampEpoch_;
        if (denseStamp_.size() < dense_.size())
            denseStamp_.resize(dense_.size(), 0);
        for (std::size_t e = 0; e < n_new; ++e)
            denseStamp_[idxScratch_[e]] = stampEpoch_;

        // Unlink the layer's old contributions — except stamped slots,
        // whose entry survives for the overwrite. The link-map loads are
        // gathered up front: issued back to back they overlap in the
        // load queue instead of serializing behind each entry's
        // dense-line and slab chase. A linked slot always has a dense
        // entry.
        const std::size_t n_old = entry.linkIds.size();
        idxOldScratch_.resize(n_old);
        for (std::size_t e = 0; e < n_old; ++e)
            idxOldScratch_[e] = linkMap_[entry.linkIds[e]] - 1;
        for (std::size_t e = 0; e < n_old; ++e) {
            if (e + 2 < n_old)
                __builtin_prefetch(dense_[idxOldScratch_[e + 2]].contrib);
            const std::uint32_t idx = idxOldScratch_[e];
            DenseSlot &d = dense_[idx];
            mark_affected(d, idx);
            if (denseStamp_[idx] == stampEpoch_)
                continue; // carried over: relink overwrites in place
            Contrib *slab = d.contrib;
            std::uint16_t pos = 0;
            while (pos < d.len && slab[pos].layer != layer_tag)
                ++pos;
            GEMINI_ASSERT(pos < d.len,
                          "resident contribution missing on unlink");
            std::memmove(slab + pos, slab + pos + 1,
                         static_cast<std::size_t>(d.len - pos - 1) *
                             sizeof(Contrib));
            --d.len;
        }

        // Refresh the layer entry from the new fragments.
        entry.scheme = group.schemes[li];
        layerStage_[li] = tiles[li]->stageSeconds;
        layerEnergy_[li] = tiles[li]->energyPerUnit;
        layerGlb_[li] = flows[li]->glbOverflow;
        std::memcpy(layerDram_.data() + li * dramStride_,
                    flows[li]->dramBytes.data(),
                    dramStride_ * sizeof(double));
        for (std::size_t kk = 0; kk < entry.outProducers.size(); ++kk)
            entry.producerDrams[kk] = ofmap_dram_of(entry.outProducers[kk]);

        // Link the new contributions, keeping each slot's slab in
        // ascending layer order (the canonical per-slot fold order).
        // Carried-over slots still hold this layer's entry at its sorted
        // position; only genuinely new slots pay the insert memmove.
        entry.linkIds.clear();
        for (const auto &[link, bytes] : links)
            entry.linkIds.push_back(link);
        for (std::size_t e = 0; e < n_new; ++e) {
            if (e + 2 < n_new)
                __builtin_prefetch(dense_[idxScratch_[e + 2]].contrib);
            const std::uint32_t idx = idxScratch_[e];
            DenseSlot &d = dense_[idx];
            mark_affected(d, idx);
            Contrib *slab = d.contrib;
            std::uint16_t pos = 0;
            while (pos < d.len && slab[pos].layer < layer_tag)
                ++pos;
            if (pos < d.len && slab[pos].layer == layer_tag) {
                slab[pos].bytes = links[e].second; // carried over
                continue;
            }
            if (d.contrib == nullptr) {
                d.capClass = 0;
                d.contrib = allocSlab(0);
            } else if (d.len == classCap(d.capClass)) {
                const std::uint16_t cls = d.capClass + 1;
                Contrib *grown = allocSlab(cls);
                std::memcpy(grown, d.contrib, d.len * sizeof(Contrib));
                freeSlab(d.contrib, d.capClass);
                d.contrib = grown;
                d.capClass = cls;
            }
            slab = d.contrib;
            std::memmove(slab + pos + 1, slab + pos,
                         static_cast<std::size_t>(d.len - pos) *
                             sizeof(Contrib));
            slab[pos] = {links[e].second, layer_tag, 0};
            ++d.len;
        }
    }

    // Re-derive every affected slot from scratch: totals re-sum over the
    // (ascending-layer) contribution slab, exactly as the reference
    // accumulates them. Tournament leaves batch below; activity
    // transitions collect into add/remove sets so the sorted active list
    // is repaired in ONE merge pass — per-slot insert/erase would make a
    // wide delta O(affected * active).
    activeAdds_.clear();
    activeDels_.clear();
    const std::size_t n_affected = affected_.size();
    bytesScratch_.resize(n_affected);
    kindScratch_.resize(n_affected);
    for (std::size_t i = 0; i < n_affected; ++i) {
        if (i + 2 < n_affected)
            __builtin_prefetch(dense_[affected_[i + 2]].contrib);
        DenseSlot &d = dense_[affected_[i]];
        double sum = 0.0;
        const Contrib *slab = d.contrib;
        for (std::uint16_t e = 0; e < d.len; ++e)
            sum += slab[e].bytes;
        const bool now_active = d.len > 0;
        const bool was_active = d.flag == kWasActive;
        d.flag = 0;
        d.bytes = now_active ? sum : 0.0;
        if (now_active && !was_active)
            activeAdds_.push_back(d.link);
        else if (!now_active && was_active)
            activeDels_.push_back(d.link);
        if (!now_active && d.contrib != nullptr) {
            freeSlab(d.contrib, d.capClass);
            d.contrib = nullptr;
        }
        if (d.kindPlus1 == 0)
            d.kindPlus1 = static_cast<std::uint8_t>(
                static_cast<std::uint8_t>(noc.linkKindAt(d.link)) + 1);
        bytesScratch_[i] = d.bytes; // 0.0 / bw == +0.0 for inactive
        kindScratch_[i] = static_cast<std::uint8_t>(d.kindPlus1 - 1);
    }

    // Tournament updates: one batched exact-division kernel, then
    // O(log) point sets with ancestor early-exit. Leaf id == dense index.
    secondsScratch_.resize(n_affected);
    k.secondsFromKinds(secondsScratch_.data(), bytesScratch_.data(),
                       kindScratch_.data(), noc.nocBandwidthBps(),
                       noc.d2dBandwidthBps(), n_affected);
    for (std::size_t i = 0; i < n_affected; ++i)
        tree_.set(affected_[i], secondsScratch_[i]);

    if (!activeAdds_.empty() || !activeDels_.empty()) {
        std::sort(activeAdds_.begin(), activeAdds_.end());
        std::sort(activeDels_.begin(), activeDels_.end());
        activeScratch_.clear();
        activeScratch_.reserve(active_.size() + activeAdds_.size());
        std::size_t ai = 0, di = 0;
        for (noc::LinkId link : active_) {
            while (ai < activeAdds_.size() && activeAdds_[ai] < link)
                activeScratch_.push_back(activeAdds_[ai++]);
            if (di < activeDels_.size() && activeDels_[di] == link) {
                ++di;
                continue;
            }
            activeScratch_.push_back(link);
        }
        while (ai < activeAdds_.size())
            activeScratch_.push_back(activeAdds_[ai++]);
        active_.swap(activeScratch_);
    }
    foldsValid_ = false;
    noteCapacities();
}

void
GroupState::refreshFolds() const
{
    if (foldsValid_)
        return;
    const kernels::KernelTable &k = kernels::active();

    // Sequential adds in ascending link-id order (the canonical fold the
    // reference drains in) — order-dependent, so no SIMD here. The
    // linkMap_ reads walk an ascending stride (prefetch-friendly) and
    // the dense reads stay L1-resident.
    LinkFold link;
    for (noc::LinkId id : active_) {
        const DenseSlot &d = dense_[linkMap_[id] - 1];
        if (d.kindPlus1 > 1)
            link.d2dBytes += d.bytes;
        else
            link.onChipBytes += d.bytes;
    }
    link.maxLinkSeconds = tree_.max();
    cachedLink_ = link;

    // Energy sums in ascending layer order (order-dependent: sequential);
    // the maxima are order-free and take the SIMD fold.
    ScalarFold scalar;
    const std::size_t n_layers = layerEnergy_.size();
    for (std::size_t li = 0; li < n_layers; ++li)
        scalar.coreEnergy += layerEnergy_[li];
    scalar.maxStage = k.maxOf(layerStage_.data(), n_layers);
    scalar.glbOverflow = k.maxOf(layerGlb_.data(), n_layers);
    cachedScalar_ = scalar;

    cachedDram_.assign(dramStride_, 0.0);
    for (std::size_t li = 0; li < n_layers; ++li)
        k.accumulate(cachedDram_.data(),
                     layerDram_.data() + li * dramStride_, dramStride_);

    foldsValid_ = true;
}

GroupState::LinkFold
GroupState::fold() const
{
    refreshFolds();
    return cachedLink_;
}

GroupState::ScalarFold
GroupState::foldScalars() const
{
    refreshFolds();
    return cachedScalar_;
}

void
GroupState::accumulateDram(double *acc, std::size_t dram_count) const
{
    GEMINI_ASSERT(dram_count == dramStride_,
                  "DRAM stack count mismatch against resident state");
    refreshFolds();
    kernels::active().accumulate(acc, cachedDram_.data(), dramStride_);
}

} // namespace gemini::mapping
