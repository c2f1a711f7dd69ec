/**
 * @file
 * The DP-based graph partition engine (Sec. V-B): splits the topologically
 * ordered DNN into contiguous layer groups and selects the batch unit of
 * every group, exactly the role Tangram's partitioner plays for both the
 * baseline T-Map and Gemini's G-Map (the paper reuses it for fairness).
 * Segments are scored with the stripe heuristic + evaluator.
 *
 * The work splits in two: a segment table (every segment's energy, delay
 * and GLB overflow) and the serial DP that reads it. Real DNNs repeat
 * their blocks, so the table is filled once per distinct segment shape
 * and copied to every segment with the same structural signature.
 *
 * A cohort of fragment-identical architectures (see fragmentIdentical)
 * fills its tables together: each distinct segment is gathered once and
 * priced by every member. partitionGraph is the cohort of one.
 */

#ifndef GEMINI_MAPPING_GRAPH_PARTITION_HH
#define GEMINI_MAPPING_GRAPH_PARTITION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cost/cost_stack.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/encoding.hh"

namespace gemini::mapping {

/** Knobs of the DP partitioner. */
struct PartitionOptions
{
    std::int64_t batch = 64;

    /** DP segment-length cap (also bounded by the core count). */
    int maxGroupLayers = 12;

    /**
     * Batch-unit candidates per group; empty selects the divisors of
     * `batch` up to 16 automatically.
     */
    std::vector<std::int64_t> batchUnits;

    /** Objective exponents used to score segments. */
    double beta = 1.0;
    double gamma = 1.0;
};

/**
 * Partition the graph into layer groups by dynamic programming over
 * topological prefixes and build the stripe-heuristic LMS for every chosen
 * segment (the SA engine then refines it).
 */
LpMapping partitionGraph(const dnn::Graph &graph,
                         const arch::ArchConfig &arch, Analyzer &analyzer,
                         const cost::CostStack &costs,
                         const PartitionOptions &options);

/** The part of one segment evaluation the DP reads. */
struct SegmentCost
{
    double energy = 0.0;
    double delay = 0.0;
    double glbOverflow = 0.0;
};

/**
 * Everything the DP reads: the single-layer reference cost of every layer
 * (with the first batch unit) and the cost of every (end, len, batch unit)
 * segment [end - len, end). Slots of batch units that do not divide the
 * batch, and of len > end, stay zero.
 */
struct SegmentTable
{
    std::size_t maxLen = 0;
    std::vector<std::int64_t> units; ///< batch-unit candidates, in order
    std::vector<SegmentCost> refs;
    std::vector<SegmentCost> segs;

    /**
     * Signature class of every (end, len) segment: the index() of the
     * first segment in DP order with the same structural signature, whose
     * evaluation this segment's slots (and, for len 1, its reference)
     * were copied from. A segment that starts its class maps to itself.
     */
    std::vector<std::size_t> firstOf;

    std::size_t
    index(std::size_t end, std::size_t len) const
    {
        return (end - 1) * maxLen + (len - 1);
    }

    const SegmentCost &
    at(std::size_t end, std::size_t len, std::size_t unit) const
    {
        return segs[index(end, len) * units.size() + unit];
    }
};

/**
 * Fill the segment table partitionGraph's DP reads under `options`, for
 * every member of a cohort of fragment-identical architectures (see
 * fragmentIdentical); one pricer is the cohort of one. Each segment is
 * scored as stripeMapping + Analyzer::evaluateGroup would score it with
 * every cross-group source read interleaved, which depends only on the
 * segment's structural signature: per layer, its geometry, isOutput,
 * whether a consumer lies outside the segment, and per input its position
 * in the segment, the outside producer's shape or the external input. So
 * only the first segment of every signature is evaluated; the rest copy
 * its bits. The walk is segment-major: each distinct (signature, batch
 * unit) stripe group is built on `arch` and its fragments gathered once,
 * through `analyzer`, and every pricer prices them. A fragment is an
 * exact function of its key once the identity is fixed, so table k is
 * bit-identical to the table of pricer k's architecture alone.
 */
std::vector<SegmentTable>
buildSegmentTables(const dnn::Graph &graph, const arch::ArchConfig &arch,
                   const Analyzer &analyzer,
                   const std::vector<GroupPricer> &pricers,
                   const PartitionOptions &options);

/**
 * partitionGraph's DP over one architecture's segment table, then the
 * stripe LMS of every chosen segment, evaluated by its analyzer. With
 * buildSegmentTables, the two halves of partitionGraph.
 */
LpMapping partitionFromTable(const dnn::Graph &graph,
                             const arch::ArchConfig &arch,
                             const Analyzer &analyzer,
                             const cost::CostStack &costs,
                             const SegmentTable &table,
                             const PartitionOptions &options);

/** Default batch-unit candidate list: divisors of `batch`, capped. */
std::vector<std::int64_t> defaultBatchUnits(std::int64_t batch);

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_GRAPH_PARTITION_HH
