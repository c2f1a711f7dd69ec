/**
 * @file
 * Named architecture presets used in the paper's evaluation (Sec. VI-A4).
 */

#ifndef GEMINI_ARCH_PRESETS_HH
#define GEMINI_ARCH_PRESETS_HH

#include <optional>
#include <string>
#include <vector>

#include "src/arch/arch_config.hh"

namespace gemini::arch {

/**
 * S-Arch: the Simba baseline — 36 chiplets of one NVDLA-style core each
 * (6x6 mesh, XCut=YCut=6), 72 TOPs, 1 MB GLB/core, DRAM 2 GB/s per TOPs
 * via two IO dies (the paper equips the Simba test chip with DRAM).
 */
ArchConfig simbaArch();

/**
 * G-Arch (72 TOPs): the paper's published G-Arch, hard-coded —
 * (2, 36, 144GB/s, 32GB/s, 16GB/s, 2MB, 1024). This repository's own
 * paper72 DSE picks a different arch (DESIGN.md "Paper numbers").
 */
ArchConfig gArch72();

/**
 * T-Arch: monolithic 120-core accelerator with Tenstorrent Grayskull
 * parameters (12x10 core array, folded torus, 1 MB GLB/core), Sec. VI-B2.
 */
ArchConfig tArchGrayskull();

/**
 * The folded-torus architecture Gemini finds against T-Arch:
 * (6, 60, 480GB/s, 64GB/s, 32GB/s, 2MB, 2048).
 */
ArchConfig gArchTorus();

/**
 * Paper-scale stress grid: 256 cores (16x16) in 16 chiplets (4x4 cut),
 * 512 TOPs, 8 DRAM stacks sized by the 2 GB/s-per-TOPs rule. The
 * scaling scenario of the large SA benchmarks — any topology backend
 * (the 16-row grid satisfies every backend's constraints).
 */
ArchConfig largeGridArch(Topology topology = Topology::Mesh);

/** A 4-core single-chiplet toy config for tests and the quickstart. */
ArchConfig tinyArch();

namespace presets {

/**
 * Name -> preset registry mirroring dnn::zoo: lets ExperimentSpecs and
 * the gemini CLI reference architectures symbolically ("g_arch_72")
 * instead of constructing ArchConfigs in C++. Names accepted by byName().
 */
std::vector<std::string> names();

/**
 * Look up a preset by registry name. nullopt for unknown names (the spec
 * layer reports the valid list); parameterized presets use their default
 * arguments (largeGridArch -> mesh).
 */
std::optional<ArchConfig> byName(const std::string &name);

} // namespace presets

} // namespace gemini::arch

#endif // GEMINI_ARCH_PRESETS_HH
