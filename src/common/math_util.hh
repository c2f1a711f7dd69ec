/**
 * @file
 * Integer and combinatorial math helpers used throughout the framework:
 * divisor enumeration, 4-way factorizations for ofmap partitions, ceil-div,
 * log-domain binomials for the optimization-space size, and the integer
 * partition function used for the Tangram-space comparison.
 */

#ifndef GEMINI_COMMON_MATH_UTIL_HH
#define GEMINI_COMMON_MATH_UTIL_HH

#include <array>
#include <cstdint>
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

/** All positive divisors of n in ascending order. */
std::vector<std::int64_t> divisorsOf(std::int64_t n);

/**
 * A 4-way ordered factorization (h, w, b, k) with h*w*b*k == n.
 * Used for the Partition attribute of the LP SPM encoding.
 */
using Factor4 = std::array<std::int64_t, 4>;

/**
 * Enumerate every ordered factorization of n into four positive factors
 * subject to per-dimension upper bounds (caps[i] >= 1).
 *
 * @param n     product that the four factors must reach
 * @param caps  inclusive upper bound per dimension (e.g. ofmap dims)
 * @return      all valid factorizations; empty if none satisfy the caps
 */
std::vector<Factor4> factorizations4(std::int64_t n, const Factor4 &caps);

/**
 * Count (without materializing) the valid 4-way factorizations of n
 * under the given caps.
 */
std::int64_t countFactorizations4(std::int64_t n, const Factor4 &caps);

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
 * Inverse of chunkOf: the index of the chunk of a `parts`-way split of
 * `total` that holds position `pos` (0 <= pos < total).
 */
std::int64_t chunkIndexOf(std::int64_t total, std::int64_t parts,
                          std::int64_t pos);

} // namespace gemini

#endif // GEMINI_COMMON_MATH_UTIL_HH
