/**
 * @file
 * The layer-centric LP spatial-mapping encoding of Sec. IV-A.
 *
 * An LP Spatial Mapping Scheme (LMS) of a layer group holds, per layer, a
 * Mapping Scheme (MS) with three attributes:
 *   - Partition  Part_i = (H_i, W_i, B_i, K_i): splits the 4-D ofmap cube
 *     into |CG_i| approximately equal parts,
 *   - Core Group CG_i = ordered list of cores, and
 *   - Flow of Data FD_i = (IF_i, WGT_i, OF_i) with -1 = unmanaged/absent,
 *     0 = interleaved over all DRAMs, d>0 = DRAM d.
 *
 * The Correspondence Rule maps partitioned workload (h, w, b, k) — via the
 * numerical id h*W*B*K + w*B*K + b*K + k — to the (nid+1)-th core of CG_i.
 */

#ifndef GEMINI_MAPPING_ENCODING_HH
#define GEMINI_MAPPING_ENCODING_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/common/types.hh"
#include "src/dnn/graph.hh"
#include "src/dnn/tensor.hh"

namespace gemini::mapping {

/** The Partition attribute: per-dimension split counts of the ofmap cube. */
struct Partition
{
    std::int64_t h = 1;
    std::int64_t w = 1;
    std::int64_t b = 1;
    std::int64_t k = 1;

    /** Number of partitioned workloads (must equal |CG|). */
    std::int64_t count() const { return h * w * b * k; }

    bool operator==(const Partition &o) const = default;
};

/** The Flow-of-Data attribute (DramSel semantics in common/types.hh). */
struct FlowOfData
{
    DramSel ifmap = kDramUnmanaged;
    DramSel weight = kDramUnmanaged;
    DramSel ofmap = kDramUnmanaged;

    bool operator==(const FlowOfData &o) const = default;
};

/** The Mapping Scheme (MS) of a single layer. */
struct MappingScheme
{
    Partition part;
    std::vector<CoreId> coreGroup; ///< ordered; disjoint across the group
    FlowOfData fd;
};

/** 4-D index of one partitioned workload inside the partition grid. */
struct WorkIndex
{
    std::int64_t h = 0;
    std::int64_t w = 0;
    std::int64_t b = 0;
    std::int64_t k = 0;

    bool operator==(const WorkIndex &o) const = default;
};

/** Correspondence rule: numerical id of a 4-D workload index. */
std::int64_t nidOf(const Partition &part, const WorkIndex &idx);

/** Inverse correspondence rule: 4-D index of a numerical id. */
WorkIndex workIndexOf(const Partition &part, std::int64_t nid);

/**
 * Ofmap region (channels/height/width) plus batch-sample slice computed by
 * a given workload index. Dimension d is split into part.d approximately
 * equal chunks (first `total % parts` chunks one element longer).
 */
struct WorkRegion
{
    dnn::Region region;          ///< k/h/w box in ofmap coordinates
    std::int64_t b0 = 0, b1 = 0; ///< batch-sample slice [b0, b1)

    std::int64_t
    volume() const
    {
        return region.volume() * (b1 - b0);
    }
};

/**
 * Region of layer `layer`'s ofmap computed by workload index `idx` when
 * the per-stage batch is `batch_unit` samples.
 */
WorkRegion workRegionOf(const dnn::Layer &layer, const Partition &part,
                        std::int64_t batch_unit, const WorkIndex &idx);

/**
 * workRegionOf for every piece of `part`, in nid order, into `out` (one
 * entry per piece). Each dimension's split is checked once; the walk then
 * steps chunk bounds forward, with no division per piece.
 */
void workRegionsOf(const dnn::Layer &layer, const Partition &part,
                   std::int64_t batch_unit, std::span<WorkRegion> out);

/** The LMS of one layer group. */
struct LayerGroupMapping
{
    std::vector<LayerId> layers;        ///< ascending topological ids
    std::int64_t batchUnit = 1;         ///< samples per pipeline stage
    std::vector<MappingScheme> schemes; ///< parallel to `layers`

    /** Index of `layer` inside this group, or -1. */
    int indexOf(LayerId layer) const;

    /** Total cores used by this group. */
    std::size_t totalCores() const;
};

/** A complete LP spatial mapping of a DNN. */
struct LpMapping
{
    std::int64_t batch = 1;
    std::vector<LayerGroupMapping> groups;

    /** Group index that maps `layer`, or -1. */
    int groupOf(LayerId layer) const;

    /** FD.OF of the scheme mapping `layer` (the DRAM its ofmap lands in). */
    DramSel ofmapDramOf(LayerId layer) const;
};

/**
 * Check the structural validity rules of Sec. IV-A for one group:
 * partitions match core-group sizes and respect dimension caps, core
 * groups are disjoint and within the mesh, FD entries are managed exactly
 * when the paper requires (ifmap iff external input; weight iff the layer
 * has weights; ofmap iff a consumer lies outside the group or the layer is
 * a network output) and within [0, D].
 *
 * @return an error description, or empty when valid.
 */
std::string checkGroupValid(const dnn::Graph &graph,
                            const arch::ArchConfig &arch,
                            const LayerGroupMapping &group,
                            std::int64_t batch);

/** Validate a whole mapping (group structure + every group). */
std::string checkMappingValid(const dnn::Graph &graph,
                              const arch::ArchConfig &arch,
                              const LpMapping &mapping);

/**
 * True when FD.OF must be managed for `layer` within `group`: some
 * consumer lives outside the group, or the layer is a network output.
 */
bool needsOfmapDram(const dnn::Graph &graph, const LayerGroupMapping &group,
                    LayerId layer);

/** Human-readable dump of a group mapping (for reports and debugging). */
std::string toString(const dnn::Graph &graph, const LayerGroupMapping &group);

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_ENCODING_HH
