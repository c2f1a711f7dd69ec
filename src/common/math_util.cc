#include "src/common/math_util.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.hh"

namespace gemini {

std::vector<std::int64_t>
divisorsOf(std::int64_t n)
{
    GEMINI_ASSERT(n > 0, "divisorsOf requires n>0, got ", n);
    std::vector<std::int64_t> out;
    forEachDivisor(n, [&](std::int64_t d) {
        out.push_back(d);
        return true;
    });
    return out;
}

double
log10Factorial(std::int64_t n)
{
    GEMINI_ASSERT(n >= 0, "log10Factorial requires n>=0");
    // lgamma_r, not std::lgamma: glibc's lgamma also writes the global
    // `signgam`, a data race when SA chains size their spaces on several
    // threads at once. Both compute the same value bits.
    int sign = 0;
    return ::lgamma_r(static_cast<double>(n) + 1.0, &sign) / std::log(10.0);
}

double
log10Binomial(std::int64_t n, std::int64_t k)
{
    if (k < 0 || k > n)
        return -std::numeric_limits<double>::infinity();
    return log10Factorial(n) - log10Factorial(k) - log10Factorial(n - k);
}

double
log10Add(double log_a, double log_b)
{
    if (std::isinf(log_a) && log_a < 0)
        return log_b;
    if (std::isinf(log_b) && log_b < 0)
        return log_a;
    const double hi = std::max(log_a, log_b);
    const double lo = std::min(log_a, log_b);
    return hi + std::log10(1.0 + std::pow(10.0, lo - hi));
}

double
partitionFunction(int n)
{
    GEMINI_ASSERT(n >= 0, "partitionFunction requires n>=0");
    // Classic O(n^2) DP: p[i][j] = partitions of i with parts <= j, folded
    // into a 1-D table by iterating part sizes outermost. Uses double since
    // p(n) overflows int64 near n=400 and we only need magnitudes.
    std::vector<double> p(static_cast<std::size_t>(n) + 1, 0.0);
    p[0] = 1.0;
    for (int part = 1; part <= n; ++part)
        for (int total = part; total <= n; ++total)
            p[total] += p[total - part];
    return p[n];
}

ChunkRange
chunkOf(std::int64_t total, std::int64_t parts, std::int64_t idx)
{
    GEMINI_ASSERT(parts > 0 && idx >= 0 && idx < parts,
                  "chunkOf bad parts/idx: ", parts, "/", idx);
    GEMINI_ASSERT(total >= parts, "cannot split ", total, " into ", parts,
                  " non-empty chunks");
    const std::int64_t base = total / parts;
    const std::int64_t extra = total % parts;
    if (idx < extra)
        return {idx * (base + 1), base + 1};
    return {extra * (base + 1) + (idx - extra) * base, base};
}

ChunkGrid::ChunkGrid(std::int64_t total_, std::int64_t parts)
    : total(total_)
{
    GEMINI_ASSERT(parts > 0 && total >= parts,
                  "bad chunk grid total/parts: ", total, "/", parts);
    base = total / parts;
    extra = total % parts;
    longSpan = extra * (base + 1);
}

} // namespace gemini
