/**
 * @file
 * Per-thread CPU clock: the time a task actually ran on its thread, which
 * wall time is not once threads outnumber the CPUs they share.
 */

#ifndef GEMINI_COMMON_CPU_CLOCK_HH
#define GEMINI_COMMON_CPU_CLOCK_HH

#include <ctime>

namespace gemini::common {

/** CPU seconds the calling thread has consumed so far. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace gemini::common

#endif // GEMINI_COMMON_CPU_CLOCK_HH
