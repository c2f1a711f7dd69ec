#include "src/mapping/kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)
#define GEMINI_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace gemini::mapping::kernels {

namespace {

// ---- Scalar reference variant ------------------------------------------
//
// Every loop below is the semantic contract: the AVX2 variant must
// reproduce these results bit for bit (see kernels.hh for why it can).

void
scalarAccumulate(double *dst, const double *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] += src[i];
}

double
scalarMaxOf(const double *x, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (x[i] > acc)
            acc = x[i];
    return acc;
}

void
scalarSecondsFromKinds(double *dst, const double *bytes,
                       const std::uint8_t *kind, double noc_bps,
                       double d2d_bps, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps);
}

double
scalarMaxSeconds(const double *bytes, const std::uint8_t *kind,
                 double noc_bps, double d2d_bps, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double secs = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps);
        if (secs > acc)
            acc = secs;
    }
    return acc;
}

void
scalarPairMax(double *parent, const double *children, std::size_t n_parents)
{
    for (std::size_t i = 0; i < n_parents; ++i) {
        const double a = children[2 * i];
        const double b = children[2 * i + 1];
        parent[i] = a < b ? b : a;
    }
}

constexpr KernelTable kScalarTable = {
    scalarAccumulate, scalarMaxOf,   scalarSecondsFromKinds,
    scalarMaxSeconds, scalarPairMax,
};

#ifdef GEMINI_KERNELS_X86

// ---- AVX2 variant ------------------------------------------------------
//
// Compiled with the target attribute so the baseline build stays plain
// x86-64; only runtime dispatch (simd.hh) reaches these symbols, and only
// after cpuid confirmed AVX2.

/** (x > acc) ? x : acc per lane — the scalar fold's exact comparison. */
__attribute__((target("avx2"))) inline __m256d
foldMaxLanes(__m256d acc, __m256d x)
{
    const __m256d gt = _mm256_cmp_pd(x, acc, _CMP_GT_OQ);
    return _mm256_blendv_pd(acc, x, gt);
}

/** Reduce 4 lanes with the same (x > acc) semantics, seeded by `acc`. */
__attribute__((target("avx2"))) inline double
reduceMaxLanes(double acc, __m256d v)
{
    alignas(32) double lane[4];
    _mm256_store_pd(lane, v);
    for (double x : lane)
        if (x > acc)
            acc = x;
    return acc;
}

/** Per-lane bandwidth select: kind != 0 -> d2d_bps, else noc_bps. */
__attribute__((target("avx2"))) inline __m256d
bandwidthLanes(const std::uint8_t *kind, __m256d noc_v, __m256d d2d_v)
{
    // 4 kind bytes -> 4 x 64-bit lanes -> nonzero mask.
    const __m128i bytes4 = _mm_cvtsi32_si128(
        static_cast<int>(kind[0]) | (static_cast<int>(kind[1]) << 8) |
        (static_cast<int>(kind[2]) << 16) |
        (static_cast<int>(kind[3]) << 24));
    const __m256i wide = _mm256_cvtepu8_epi64(bytes4);
    const __m256i is_zero =
        _mm256_cmpeq_epi64(wide, _mm256_setzero_si256());
    // blendv picks d2d where kind is nonzero (mask = NOT is_zero).
    return _mm256_blendv_pd(d2d_v, noc_v, _mm256_castsi256_pd(is_zero));
}

__attribute__((target("avx2"))) void
avx2Accumulate(double *dst, const double *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d d = _mm256_loadu_pd(dst + i);
        const __m256d s = _mm256_loadu_pd(src + i);
        _mm256_storeu_pd(dst + i, _mm256_add_pd(d, s));
    }
    for (; i < n; ++i)
        dst[i] += src[i];
}

__attribute__((target("avx2"))) double
avx2MaxOf(const double *x, std::size_t n)
{
    __m256d acc_v = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc_v = foldMaxLanes(acc_v, _mm256_loadu_pd(x + i));
    double acc = reduceMaxLanes(0.0, acc_v);
    for (; i < n; ++i)
        if (x[i] > acc)
            acc = x[i];
    return acc;
}

__attribute__((target("avx2"))) void
avx2SecondsFromKinds(double *dst, const double *bytes,
                     const std::uint8_t *kind, double noc_bps,
                     double d2d_bps, std::size_t n)
{
    const __m256d noc_v = _mm256_set1_pd(noc_bps);
    const __m256d d2d_v = _mm256_set1_pd(d2d_bps);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d bw = bandwidthLanes(kind + i, noc_v, d2d_v);
        _mm256_storeu_pd(
            dst + i, _mm256_div_pd(_mm256_loadu_pd(bytes + i), bw));
    }
    for (; i < n; ++i)
        dst[i] = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps);
}

__attribute__((target("avx2"))) double
avx2MaxSeconds(const double *bytes, const std::uint8_t *kind,
               double noc_bps, double d2d_bps, std::size_t n)
{
    const __m256d noc_v = _mm256_set1_pd(noc_bps);
    const __m256d d2d_v = _mm256_set1_pd(d2d_bps);
    __m256d acc_v = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d bw = bandwidthLanes(kind + i, noc_v, d2d_v);
        acc_v = foldMaxLanes(
            acc_v, _mm256_div_pd(_mm256_loadu_pd(bytes + i), bw));
    }
    double acc = reduceMaxLanes(0.0, acc_v);
    for (; i < n; ++i) {
        const double secs = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps);
        if (secs > acc)
            acc = secs;
    }
    return acc;
}

__attribute__((target("avx2"))) void
avx2PairMax(double *parent, const double *children, std::size_t n_parents)
{
    std::size_t i = 0;
    for (; i + 4 <= n_parents; i += 4) {
        // children[2i..2i+7] = {a0,b0,a1,b1 | a2,b2,a3,b3}
        const __m256d lo = _mm256_loadu_pd(children + 2 * i);
        const __m256d hi = _mm256_loadu_pd(children + 2 * i + 4);
        // Evens (a) and odds (b) of each pair, in parent order.
        const __m256d a = _mm256_permute4x64_pd(
            _mm256_unpacklo_pd(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
        const __m256d b = _mm256_permute4x64_pd(
            _mm256_unpackhi_pd(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
        // (a < b) ? b : a — std::max's exact semantics.
        const __m256d lt = _mm256_cmp_pd(a, b, _CMP_LT_OQ);
        _mm256_storeu_pd(parent + i, _mm256_blendv_pd(a, b, lt));
    }
    for (; i < n_parents; ++i) {
        const double a = children[2 * i];
        const double b = children[2 * i + 1];
        parent[i] = a < b ? b : a;
    }
}

constexpr KernelTable kAvx2Table = {
    avx2Accumulate, avx2MaxOf,   avx2SecondsFromKinds,
    avx2MaxSeconds, avx2PairMax,
};

#endif // GEMINI_KERNELS_X86

} // namespace

const KernelTable &
tableFor(common::SimdLevel level)
{
#ifdef GEMINI_KERNELS_X86
    if (level == common::SimdLevel::Avx2)
        return kAvx2Table;
#else
    (void)level;
#endif
    return kScalarTable;
}

} // namespace gemini::mapping::kernels
