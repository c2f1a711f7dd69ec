/**
 * @file
 * Vectorized evaluation kernels of the SA/DSE hot path, in two always-
 * built variants (portable scalar, AVX2) behind one dispatch table
 * selected at runtime from cpuid (src/common/simd.hh). Both variants are
 * bit-identical by construction — the table only admits operations whose
 * IEEE-754 result is independent of lane grouping:
 *
 *  - elementwise add / divide: no reassociation, each output element is
 *    the same single rounded operation in either variant;
 *  - max folds: replicate the scalar fold's exact comparison semantics
 *    ((candidate > acc) ? candidate : acc, seed 0.0) with compare+blend
 *    rather than vmaxpd, so signed zeros cannot diverge, and rely on max
 *    being order-free for non-NaN inputs.
 *
 * Order-dependent folds (the canonical ascending sums the differential
 * fuzz suite pins bit-for-bit) are deliberately NOT here: those loops
 * stay sequential scalar, and their speed comes from the contiguous
 * layouts in group_state.hh instead.
 */

#ifndef GEMINI_MAPPING_KERNELS_HH
#define GEMINI_MAPPING_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "src/common/simd.hh"

namespace gemini::mapping::kernels {

/**
 * The dispatchable kernel set. All pointers are non-null in both
 * variants; scalar is the reference the AVX2 variant must match bit for
 * bit (tests/test_kernels.cc fuzzes every entry on both).
 */
struct KernelTable
{
    /** dst[i] += src[i] (independent lanes, no reassociation). */
    void (*accumulate)(double *dst, const double *src, std::size_t n);

    /** Fold max over x with seed 0.0 and (x[i] > acc) semantics. */
    double (*maxOf)(const double *x, std::size_t n);

    /**
     * dst[i] = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps) — the
     * per-link serialization seconds of the tournament tree, batched.
     * Division is exactly rounded, so lanes match scalar bit for bit.
     */
    void (*secondsFromKinds)(double *dst, const double *bytes,
                             const std::uint8_t *kind, double noc_bps,
                             double d2d_bps, std::size_t n);

    /** Fused max of secondsFromKinds without materializing dst. */
    double (*maxSeconds)(const double *bytes, const std::uint8_t *kind,
                         double noc_bps, double d2d_bps, std::size_t n);

    /**
     * parent[i] = max(children[2i], children[2i+1]) with std::max's
     * (a < b) ? b : a semantics — one tournament-tree level per call.
     */
    void (*pairMax)(double *parent, const double *children,
                    std::size_t n_parents);
};

/** Table for an explicit variant (tests compare the two directly). */
const KernelTable &tableFor(common::SimdLevel level);

/** The active table per common::activeSimdLevel() (cheap, re-resolved). */
inline const KernelTable &
active()
{
    return tableFor(common::activeSimdLevel());
}

} // namespace gemini::mapping::kernels

#endif // GEMINI_MAPPING_KERNELS_HH
