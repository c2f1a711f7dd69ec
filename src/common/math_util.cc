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
    std::vector<std::int64_t> small, large;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                large.push_back(n / d);
        }
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

std::vector<Factor4>
factorizations4(std::int64_t n, const Factor4 &caps)
{
    GEMINI_ASSERT(n > 0, "factorizations4 requires n>0, got ", n);
    std::vector<Factor4> out;
    for (std::int64_t h : divisorsOf(n)) {
        if (h > caps[0])
            continue;
        const std::int64_t n1 = n / h;
        for (std::int64_t w : divisorsOf(n1)) {
            if (w > caps[1])
                continue;
            const std::int64_t n2 = n1 / w;
            for (std::int64_t b : divisorsOf(n2)) {
                if (b > caps[2])
                    continue;
                const std::int64_t k = n2 / b;
                if (k > caps[3])
                    continue;
                out.push_back({h, w, b, k});
            }
        }
    }
    return out;
}

std::int64_t
countFactorizations4(std::int64_t n, const Factor4 &caps)
{
    std::int64_t count = 0;
    for (std::int64_t h : divisorsOf(n)) {
        if (h > caps[0])
            continue;
        const std::int64_t n1 = n / h;
        for (std::int64_t w : divisorsOf(n1)) {
            if (w > caps[1])
                continue;
            const std::int64_t n2 = n1 / w;
            for (std::int64_t b : divisorsOf(n2)) {
                if (b > caps[2])
                    continue;
                if (n2 / b <= caps[3])
                    ++count;
            }
        }
    }
    return count;
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

std::int64_t
chunkIndexOf(std::int64_t total, std::int64_t parts, std::int64_t pos)
{
    GEMINI_ASSERT(parts > 0 && total >= parts && pos >= 0 && pos < total,
                  "chunkIndexOf bad total/parts/pos: ", total, "/", parts,
                  "/", pos);
    const std::int64_t base = total / parts;
    const std::int64_t extra = total % parts;
    const std::int64_t long_span = extra * (base + 1);
    if (pos < long_span)
        return pos / (base + 1);
    return extra + (pos - long_span) / base;
}

} // namespace gemini
