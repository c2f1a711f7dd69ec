/**
 * @file
 * Shared helpers for the experiment harnesses: effort scaling (so every
 * bench runs on a laptop by default yet can reproduce paper-scale runs)
 * and console table formatting.
 */

#ifndef GEMINI_BENCH_BENCH_UTIL_HH
#define GEMINI_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

namespace gemini::benchutil {

/**
 * Effort level from the environment variable GEMINI_BENCH_EFFORT:
 * 0 = smoke (seconds), 1 = default (laptop-minutes), 2 = paper-scale.
 */
int effortLevel();

/** Pick a value by effort level. */
int scaled(int smoke, int standard, int paper);

/** Banner printed at the top of each experiment. */
void printHeader(const std::string &title, const std::string &paper_ref);

/** Fixed-width console table. */
class ConsoleTable
{
  public:
    explicit ConsoleTable(std::vector<std::string> headers);

    template <typename... Ts>
    void
    addRow(const Ts &...values)
    {
        std::vector<std::string> row;
        (row.push_back(toCell(values)), ...);
        rows_.push_back(std::move(row));
    }

    /** Render to stdout. */
    void print() const;

  private:
    static std::string toCell(const std::string &s) { return s; }
    static std::string toCell(const char *s) { return s; }
    template <typename T>
    static std::string
    toCell(const T &v)
    {
        return format(v);
    }
    static std::string format(double v);
    static std::string format(int v);
    static std::string format(long v);
    static std::string format(unsigned long v);

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace gemini::benchutil

#endif // GEMINI_BENCH_BENCH_UTIL_HH
