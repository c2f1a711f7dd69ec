/**
 * @file
 * Integer and combinatorial math helpers used throughout the framework:
 * divisor enumeration, 4-way factorizations for ofmap partitions, ceil-div,
 * log-domain binomials for the optimization-space size, the integer
 * partition function used for the Tangram-space comparison, and the
 * near-equal chunk splits of the Partition attribute.
 */

#ifndef GEMINI_COMMON_MATH_UTIL_HH
#define GEMINI_COMMON_MATH_UTIL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace gemini {

/** Ceiling division for positive integers. */
template <typename T>
constexpr T
ceilDiv(T a, T b)
{
    return (a + b - 1) / b;
}

/** Round x up to the next multiple of m (m > 0). */
template <typename T>
constexpr T
roundUp(T x, T m)
{
    return ceilDiv(x, m) * m;
}

/**
 * Visit the positive divisors of n (n > 0) in ascending order, stopping
 * early when `fn` returns false; returns false iff it stopped early.
 * Allocation-free: the divisors up to sqrt(n) come from an ascending trial
 * division, and their cofactors from a descending one.
 */
template <typename Fn>
bool
forEachDivisor(std::int64_t n, Fn &&fn)
{
    std::int64_t root = 1;
    for (std::int64_t d = 1; d <= n / d; ++d) {
        root = d;
        if (n % d == 0 && !fn(d))
            return false;
    }
    for (std::int64_t d = root; d >= 1; --d) {
        if (n % d == 0 && d != n / d && !fn(n / d))
            return false;
    }
    return true;
}

/** All positive divisors of n in ascending order. */
std::vector<std::int64_t> divisorsOf(std::int64_t n);

/**
 * A 4-way ordered factorization (h, w, b, k) with h*w*b*k == n.
 * Used for the Partition attribute of the LP SPM encoding.
 */
using Factor4 = std::array<std::int64_t, 4>;

/**
 * Visit every ordered factorization of n (n > 0) into four positive
 * factors under per-dimension upper bounds (caps[i] >= 1), in ascending
 * lexicographic (h, w, b, k) order, without allocating. Stops early when
 * `fn` returns false; returns false iff it stopped early.
 */
template <typename Fn>
bool
forEachFactorization4(std::int64_t n, const Factor4 &caps, Fn &&fn)
{
    // Divisors ascend, so the first factor past its cap ends its level.
    bool stopped = false;
    forEachDivisor(n, [&](std::int64_t h) {
        if (h > caps[0])
            return false;
        const std::int64_t n1 = n / h;
        forEachDivisor(n1, [&](std::int64_t w) {
            if (w > caps[1])
                return false;
            const std::int64_t n2 = n1 / w;
            forEachDivisor(n2, [&](std::int64_t b) {
                if (b > caps[2])
                    return false;
                const std::int64_t k = n2 / b;
                if (k <= caps[3] && !fn(Factor4{h, w, b, k}))
                    stopped = true;
                return !stopped;
            });
            return !stopped;
        });
        return !stopped;
    });
    return !stopped;
}

/** log10 of n! via lgamma. */
double log10Factorial(std::int64_t n);

/** log10 of the binomial coefficient C(n, k); -inf if k<0 or k>n. */
double log10Binomial(std::int64_t n, std::int64_t k);

/** log10(a + b) given log10(a) and log10(b), handling -inf. */
double log10Add(double log_a, double log_b);

/**
 * Integer partition function p(n): the number of multisets of positive
 * integers summing to n. Used for the Tangram optimization-space bound
 * N * p(M) (Sec. IV-B). Computed with the Euler DP; n up to a few
 * thousand is instantaneous.
 */
double partitionFunction(int n);

/**
 * Split `total` into `parts` approximately equal chunks the way the paper's
 * Partition attribute does: the first (total % parts) chunks get
 * ceil(total/parts) and the rest floor(total/parts).
 *
 * @return pair {offset, length} for chunk `idx` (0-based).
 */
struct ChunkRange
{
    std::int64_t offset;
    std::int64_t length;
};
ChunkRange chunkOf(std::int64_t total, std::int64_t parts, std::int64_t idx);

/**
 * A chunkOf split of `total` into `parts` (total >= parts > 0), inverted:
 * which chunk holds a position, and which chunks meet a position range.
 * Building one asserts the split and precomputes it, so each lookup costs
 * one division and a chunk's length none.
 */
struct ChunkGrid
{
    ChunkGrid(std::int64_t total, std::int64_t parts);

    /** Index of the chunk that holds `pos` (0 <= pos < total). */
    std::int64_t
    indexOf(std::int64_t pos) const
    {
        return pos < longSpan ? pos / (base + 1)
                              : extra + (pos - longSpan) / base;
    }

    /** Length of chunk `idx` (0 <= idx < parts). */
    std::int64_t
    lengthOf(std::int64_t idx) const
    {
        return idx < extra ? base + 1 : base;
    }

    /**
     * Chunk indices [first, last) that intersect [lo, hi). Chunks tile
     * [0, total), so positions outside it meet no chunk.
     */
    std::pair<std::int64_t, std::int64_t>
    span(std::int64_t lo, std::int64_t hi) const
    {
        lo = std::max<std::int64_t>(lo, 0);
        hi = std::min(hi, total);
        if (hi <= lo)
            return {0, 0};
        return {indexOf(lo), indexOf(hi - 1) + 1};
    }

    std::int64_t total;
    std::int64_t base = 0;     ///< length of a short chunk
    std::int64_t extra = 0;    ///< number of long (base + 1) chunks
    std::int64_t longSpan = 0; ///< positions the long chunks cover
};

} // namespace gemini

#endif // GEMINI_COMMON_MATH_UTIL_HH
