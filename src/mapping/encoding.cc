#include "src/mapping/encoding.hh"

#include <algorithm>
#include <sstream>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"
#include "src/common/small_vec.hh"

namespace gemini::mapping {

std::int64_t
nidOf(const Partition &part, const WorkIndex &idx)
{
    GEMINI_ASSERT(idx.h >= 0 && idx.h < part.h && idx.w >= 0 &&
                      idx.w < part.w && idx.b >= 0 && idx.b < part.b &&
                      idx.k >= 0 && idx.k < part.k,
                  "work index out of partition bounds");
    return idx.h * (part.w * part.b * part.k) + idx.w * (part.b * part.k) +
           idx.b * part.k + idx.k;
}

WorkIndex
workIndexOf(const Partition &part, std::int64_t nid)
{
    GEMINI_ASSERT(nid >= 0 && nid < part.count(), "nid out of range: ", nid);
    WorkIndex idx;
    idx.k = nid % part.k;
    nid /= part.k;
    idx.b = nid % part.b;
    nid /= part.b;
    idx.w = nid % part.w;
    idx.h = nid / part.w;
    return idx;
}

WorkRegion
workRegionOf(const dnn::Layer &layer, const Partition &part,
             std::int64_t batch_unit, const WorkIndex &idx)
{
    const ChunkRange ch = chunkOf(layer.h, part.h, idx.h);
    const ChunkRange cw = chunkOf(layer.w, part.w, idx.w);
    const ChunkRange cb = chunkOf(batch_unit, part.b, idx.b);
    const ChunkRange ck = chunkOf(layer.k, part.k, idx.k);
    WorkRegion wr;
    wr.region.c0 = ck.offset;
    wr.region.c1 = ck.offset + ck.length;
    wr.region.h0 = ch.offset;
    wr.region.h1 = ch.offset + ch.length;
    wr.region.w0 = cw.offset;
    wr.region.w1 = cw.offset + cw.length;
    wr.b0 = cb.offset;
    wr.b1 = cb.offset + cb.length;
    return wr;
}

void
workRegionsOf(const dnn::Layer &layer, const Partition &part,
              std::int64_t batch_unit, std::span<WorkRegion> out)
{
    const ChunkGrid gh(layer.h, part.h);
    const ChunkGrid gw(layer.w, part.w);
    const ChunkGrid gb(batch_unit, part.b);
    const ChunkGrid gk(layer.k, part.k);
    GEMINI_ASSERT(static_cast<std::int64_t>(out.size()) == part.count(),
                  "region span holds ", out.size(), " pieces, partition ",
                  part.count());
    // Nested in nid order (k fastest, h slowest); each loop carries its
    // chunk's lower bound forward from the previous chunk's upper one.
    WorkRegion wr;
    std::size_t nid = 0;
    for (std::int64_t h = 0; h < part.h; ++h) {
        wr.region.h1 = wr.region.h0 + gh.lengthOf(h);
        wr.region.w0 = 0;
        for (std::int64_t w = 0; w < part.w; ++w) {
            wr.region.w1 = wr.region.w0 + gw.lengthOf(w);
            wr.b0 = 0;
            for (std::int64_t b = 0; b < part.b; ++b) {
                wr.b1 = wr.b0 + gb.lengthOf(b);
                wr.region.c0 = 0;
                for (std::int64_t k = 0; k < part.k; ++k) {
                    wr.region.c1 = wr.region.c0 + gk.lengthOf(k);
                    out[nid++] = wr;
                    wr.region.c0 = wr.region.c1;
                }
                wr.b0 = wr.b1;
            }
            wr.region.w0 = wr.region.w1;
        }
        wr.region.h0 = wr.region.h1;
    }
}

int
LayerGroupMapping::indexOf(LayerId layer) const
{
    // `layers` is ascending by invariant (checked by checkGroupValid), and
    // this lookup sits on the analyzer's key-building hot path: binary
    // search keeps it O(log n) on 100+-layer groups.
    const auto it = std::lower_bound(layers.begin(), layers.end(), layer);
    if (it != layers.end() && *it == layer)
        return static_cast<int>(it - layers.begin());
    return -1;
}

std::size_t
LayerGroupMapping::totalCores() const
{
    std::size_t total = 0;
    for (const auto &ms : schemes)
        total += ms.coreGroup.size();
    return total;
}

int
LpMapping::groupOf(LayerId layer) const
{
    for (std::size_t g = 0; g < groups.size(); ++g)
        if (groups[g].indexOf(layer) >= 0)
            return static_cast<int>(g);
    return -1;
}

DramSel
LpMapping::ofmapDramOf(LayerId layer) const
{
    const int g = groupOf(layer);
    GEMINI_ASSERT(g >= 0, "layer ", layer, " is not mapped");
    const int li = groups[g].indexOf(layer);
    return groups[g].schemes[li].fd.ofmap;
}

bool
needsOfmapDram(const dnn::Graph &graph, const LayerGroupMapping &group,
               LayerId layer)
{
    if (graph.layer(layer).isOutput)
        return true;
    for (LayerId consumer : graph.consumers(layer))
        if (group.indexOf(consumer) < 0)
            return true;
    return false;
}

namespace {

/** A validation error message; the stream is built only on failure. */
template <typename... Parts>
std::string
failure(const Parts &...parts)
{
    std::ostringstream err;
    (err << ... << parts);
    return err.str();
}

/** Validate one FD entry against its management requirement. */
std::string
checkFdEntry(const char *what, DramSel value, bool required, int dram_count,
             const std::string &layer_name)
{
    if (required) {
        if (value < 0 || value > dram_count)
            return failure(layer_name, ": FD.", what, " must be in [0, ",
                           dram_count, "], got ", value);
    } else if (value != kDramUnmanaged) {
        return failure(layer_name, ": FD.", what,
                       " must be unmanaged (-1), got ", value);
    }
    return {};
}

} // namespace

std::string
checkGroupValid(const dnn::Graph &graph, const arch::ArchConfig &arch,
                const LayerGroupMapping &group, std::int64_t batch)
{
    if (group.layers.empty())
        return "empty layer group";
    if (group.layers.size() != group.schemes.size())
        return "schemes/layers size mismatch";
    if (group.batchUnit < 1 || group.batchUnit > batch)
        return "batch unit out of range";
    for (std::size_t i = 1; i < group.layers.size(); ++i) {
        if (group.layers[i] <= group.layers[i - 1])
            return "group layers must be ascending";
    }
    if (group.layers.front() < 0 ||
        static_cast<std::size_t>(group.layers.back()) >= graph.size())
        return "layer id out of range";

    // One bit per mesh core; inline up to 2048 cores.
    common::SmallVec<std::uint64_t, 32> used;
    used.assign((static_cast<std::size_t>(arch.coreCount()) + 63) / 64, 0);
    for (std::size_t i = 0; i < group.layers.size(); ++i) {
        const dnn::Layer &layer = graph.layer(group.layers[i]);
        const MappingScheme &ms = group.schemes[i];
        if (ms.coreGroup.empty())
            return layer.name + ": empty core group";
        if (ms.part.count() !=
            static_cast<std::int64_t>(ms.coreGroup.size()))
            return failure(layer.name, ": partition count ",
                           ms.part.count(), " != core group size ",
                           ms.coreGroup.size());
        if (ms.part.h < 1 || ms.part.h > layer.h || ms.part.w < 1 ||
            ms.part.w > layer.w || ms.part.k < 1 || ms.part.k > layer.k ||
            ms.part.b < 1 || ms.part.b > group.batchUnit)
            return failure(layer.name, ": partition (", ms.part.h, ",",
                           ms.part.w, ",", ms.part.b, ",", ms.part.k,
                           ") exceeds dims (", layer.h, ",", layer.w, ",",
                           group.batchUnit, ",", layer.k, ")");
        for (CoreId core : ms.coreGroup) {
            if (core < 0 || core >= arch.coreCount())
                return failure(layer.name, ": core ", core, " out of mesh");
            std::uint64_t &word = used[static_cast<std::size_t>(core) / 64];
            const std::uint64_t bit = std::uint64_t{1} << (core % 64);
            if (word & bit)
                return failure(layer.name, ": core ", core,
                               " assigned to two layers of the group");
            word |= bit;
        }

        const bool wants_if = graph.readsExternalInput(group.layers[i]);
        const bool wants_wgt = layer.hasWeights();
        const bool wants_of = needsOfmapDram(graph, group, group.layers[i]);
        std::string e;
        e = checkFdEntry("ifmap", ms.fd.ifmap, wants_if, arch.dramCount,
                         layer.name);
        if (!e.empty())
            return e;
        e = checkFdEntry("weight", ms.fd.weight, wants_wgt, arch.dramCount,
                         layer.name);
        if (!e.empty())
            return e;
        e = checkFdEntry("ofmap", ms.fd.ofmap, wants_of, arch.dramCount,
                         layer.name);
        if (!e.empty())
            return e;
    }
    return {};
}

std::string
checkMappingValid(const dnn::Graph &graph, const arch::ArchConfig &arch,
                  const LpMapping &mapping)
{
    if (mapping.batch < 1)
        return "batch must be positive";
    std::vector<int> group_of(graph.size(), -1);
    for (std::size_t g = 0; g < mapping.groups.size(); ++g) {
        const std::string e =
            checkGroupValid(graph, arch, mapping.groups[g], mapping.batch);
        if (!e.empty())
            return failure("group ", g, ": ", e);
        if (mapping.batch % mapping.groups[g].batchUnit != 0)
            return failure("group ", g, ": batch unit ",
                           mapping.groups[g].batchUnit,
                           " does not divide batch ", mapping.batch);
        for (LayerId layer : mapping.groups[g].layers) {
            if (group_of[layer] != -1)
                return failure("layer ", layer, " mapped twice");
            group_of[layer] = static_cast<int>(g);
        }
    }
    for (std::size_t l = 0; l < graph.size(); ++l) {
        if (group_of[l] == -1)
            return failure("layer ", l, " (",
                           graph.layer(static_cast<LayerId>(l)).name,
                           ") is unmapped");
        // Producers must execute no later than their consumers.
        for (LayerId in : graph.layer(static_cast<LayerId>(l)).inputs) {
            if (group_of[in] > group_of[l])
                return failure("layer ", l, " consumes layer ", in,
                               " from a later group");
        }
    }
    return {};
}

std::string
toString(const dnn::Graph &graph, const LayerGroupMapping &group)
{
    std::ostringstream oss;
    oss << "LG{bu=" << group.batchUnit << "}";
    for (std::size_t i = 0; i < group.layers.size(); ++i) {
        const auto &ms = group.schemes[i];
        oss << "\n  " << graph.layer(group.layers[i]).name << " Part("
            << ms.part.h << "," << ms.part.w << "," << ms.part.b << ","
            << ms.part.k << ") CG(";
        for (std::size_t c = 0; c < ms.coreGroup.size(); ++c)
            oss << (c ? "," : "") << ms.coreGroup[c];
        oss << ") FD(" << ms.fd.ifmap << "," << ms.fd.weight << ","
            << ms.fd.ofmap << ")";
    }
    return oss.str();
}

} // namespace gemini::mapping
