#include "bench_util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace gemini::benchutil {

int
effortLevel()
{
    const char *env = std::getenv("GEMINI_BENCH_EFFORT");
    if (!env)
        return 1;
    const int level = std::atoi(env);
    return level < 0 ? 0 : (level > 2 ? 2 : level);
}

int
scaled(int smoke, int standard, int paper)
{
    switch (effortLevel()) {
      case 0: return smoke;
      case 2: return paper;
      default: return standard;
    }
}

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n============================================================"
                "====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s   (effort level %d; set GEMINI_BENCH_EFFORT="
                "0|1|2)\n",
                paper_ref.c_str(), effortLevel());
    std::printf("=============================================================="
                "==================\n");
}

ConsoleTable::ConsoleTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

std::string
ConsoleTable::format(double v)
{
    std::ostringstream oss;
    if (v != 0.0 && (std::abs(v) >= 1e5 || std::abs(v) < 1e-3))
        oss.setf(std::ios::scientific);
    oss.precision(4);
    oss << v;
    return oss.str();
}

std::string
ConsoleTable::format(int v)
{
    return std::to_string(v);
}

std::string
ConsoleTable::format(long v)
{
    return std::to_string(v);
}

std::string
ConsoleTable::format(unsigned long v)
{
    return std::to_string(v);
}

void
ConsoleTable::print() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(width[c]),
                        row[c].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c)
        rule += std::string(width[c], '-') + "  ";
    std::printf("%s\n", rule.c_str());
    for (const auto &row : rows_)
        print_row(row);
}

} // namespace gemini::benchutil
