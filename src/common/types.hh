/**
 * @file
 * Fundamental identifier and quantity types shared across the library.
 */

#ifndef GEMINI_COMMON_TYPES_HH
#define GEMINI_COMMON_TYPES_HH

#include <cfloat>
#include <cstdint>

// The floating-point contract behind bit-exact results (DESIGN.md
// "Floating-point contract"): IEEE double arithmetic evaluated in its own
// precision, no fast-math, and no a*b+c contraction into a fused
// multiply-add (CMakeLists.txt passes -ffp-contract=off).
#ifdef __FAST_MATH__
#error "gemini's results are bit-exact only without -ffast-math"
#endif
static_assert(FLT_EVAL_METHOD == 0,
              "gemini needs each floating-point type evaluated in its own "
              "precision (FLT_EVAL_METHOD == 0)");

namespace gemini {

/** Index of a computing core inside the global mesh (row-major). */
using CoreId = std::int32_t;

/** Index of a layer inside a dnn::Graph (topological order). */
using LayerId = std::int32_t;

/**
 * DRAM selector used by the Flow-of-Data encoding (Sec. IV-A of the paper).
 *
 * -1 : no explicit management needed (inferred or absent),
 *  0 : interleave evenly across all DRAMs,
 *  d>0: DRAM number d (1-based).
 */
using DramSel = std::int16_t;

/** Value of DramSel meaning "not explicitly managed / absent". */
inline constexpr DramSel kDramUnmanaged = -1;

/** Value of DramSel meaning "interleave over all DRAMs". */
inline constexpr DramSel kDramInterleaved = 0;

/** Byte counts can exceed 2^32 for large fmaps; use 64-bit everywhere. */
using Bytes = std::int64_t;

/** MAC / scalar-op counters. */
using OpCount = std::int64_t;

/** Times are kept in seconds (double); energies in joules (double). */
using Seconds = double;
using Joules = double;

/** Monetary cost in US dollars. */
using Dollars = double;

} // namespace gemini

#endif // GEMINI_COMMON_TYPES_HH
