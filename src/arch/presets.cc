#include "src/arch/presets.hh"

namespace gemini::arch {

ArchConfig
simbaArch()
{
    ArchConfig a;
    a.name = "S-Arch";
    a.xCores = 6;
    a.yCores = 6;
    a.xCut = 6;
    a.yCut = 6;
    a.topology = Topology::Mesh;
    // Simba's GRS package links provide noticeably less bandwidth than the
    // on-chip network; the paper's published G-Arch (gArch72, hard-coded,
    // not what this repository's paper72 DSE picks) doubles both relative
    // to this baseline and doubles the 1 MB/core GLB of the Simba-series
    // papers ([58] allocates 1024 KB per core).
    a.nocBwGBps = 16.0;
    a.d2dBwGBps = 8.0;
    a.dramBwGBps = 144.0; // 2 GB/s per TOPs as in Sec. VI-A4
    a.dramCount = 2;
    a.macsPerCore = 1024;
    a.glbKiB = 1024;
    return a;
}

ArchConfig
gArch72()
{
    ArchConfig a;
    a.name = "G-Arch";
    a.xCores = 6;
    a.yCores = 6;
    a.xCut = 2;
    a.yCut = 1;
    a.topology = Topology::Mesh;
    a.nocBwGBps = 32.0;
    a.d2dBwGBps = 16.0;
    a.dramBwGBps = 144.0;
    a.dramCount = 2;
    a.macsPerCore = 1024;
    a.glbKiB = 2048;
    return a;
}

ArchConfig
tArchGrayskull()
{
    ArchConfig a;
    a.name = "T-Arch";
    a.xCores = 12;
    a.yCores = 10;
    a.xCut = 1;
    a.yCut = 1;
    a.topology = Topology::FoldedTorus;
    a.nocBwGBps = 64.0;
    a.d2dBwGBps = 64.0; // unused: monolithic
    a.dramBwGBps = 128.0; // 8 LPDDR4 channels
    a.dramCount = 2;
    a.macsPerCore = 1024;
    a.glbKiB = 1024;
    return a;
}

ArchConfig
gArchTorus()
{
    ArchConfig a;
    a.name = "G-Arch-torus";
    a.xCores = 10;
    a.yCores = 6;
    a.xCut = 2;
    a.yCut = 3;
    a.topology = Topology::FoldedTorus;
    a.nocBwGBps = 64.0;
    a.d2dBwGBps = 32.0;
    a.dramBwGBps = 480.0;
    a.dramCount = 2;
    a.macsPerCore = 2048;
    a.glbKiB = 2048;
    return a;
}

ArchConfig
largeGridArch(Topology topology)
{
    ArchConfig a;
    a.name = "L-Arch-256";
    a.xCores = 16;
    a.yCores = 16;
    a.xCut = 4;
    a.yCut = 4; // 16 chiplets of 4x4 cores
    a.topology = topology;
    a.nocBwGBps = 64.0;
    a.d2dBwGBps = 32.0;
    // 2 GB/s per TOPs (Sec. VI-A4 sizing rule): 256 cores * 1024 MACs
    // * 2 ops = 512 TOPs -> 1 TB/s across 8 stacks.
    a.dramBwGBps = 1024.0;
    a.dramCount = 8;
    a.macsPerCore = 1024;
    a.glbKiB = 2048;
    return a;
}

namespace presets {

namespace {

/** The registry rows; a single table keeps names() and byName() in sync. */
struct PresetRow
{
    const char *name;
    ArchConfig (*make)();
};

ArchConfig
largeGridDefault()
{
    return largeGridArch();
}

constexpr PresetRow kPresets[] = {
    {"s_arch", simbaArch},
    {"g_arch_72", gArch72},
    {"t_arch", tArchGrayskull},
    {"g_arch_torus", gArchTorus},
    {"large_grid", largeGridDefault},
    {"tiny", tinyArch},
};

} // namespace

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    out.reserve(std::size(kPresets));
    for (const PresetRow &row : kPresets)
        out.emplace_back(row.name);
    return out;
}

std::optional<ArchConfig>
byName(const std::string &name)
{
    for (const PresetRow &row : kPresets)
        if (name == row.name)
            return row.make();
    return std::nullopt;
}

} // namespace presets

ArchConfig
tinyArch()
{
    ArchConfig a;
    a.name = "tiny";
    a.xCores = 2;
    a.yCores = 2;
    a.xCut = 1;
    a.yCut = 1;
    a.topology = Topology::Mesh;
    a.nocBwGBps = 32.0;
    a.d2dBwGBps = 16.0;
    a.dramBwGBps = 32.0;
    a.dramCount = 2;
    a.macsPerCore = 256;
    a.glbKiB = 512;
    return a;
}

} // namespace gemini::arch
