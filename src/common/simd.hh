/**
 * @file
 * Kernel-variant name for run metadata. The evaluation loops have one
 * scalar implementation, so the active variant is always "scalar".
 *
 * The only caller is benchmark/probe.cc, which records the variant in
 * its run metadata. ROADMAP item 3 (the probe rework) deletes this
 * header together with that field.
 */

#ifndef GEMINI_COMMON_SIMD_HH
#define GEMINI_COMMON_SIMD_HH

namespace gemini::common {

/** The one kernel variant. */
enum class SimdLevel
{
    Scalar,
};

inline SimdLevel
activeSimdLevel()
{
    return SimdLevel::Scalar;
}

inline const char *
simdLevelName(SimdLevel)
{
    return "scalar";
}

} // namespace gemini::common

#endif // GEMINI_COMMON_SIMD_HH
