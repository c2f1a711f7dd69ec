/**
 * @file
 * Unit tests for the hardware template: parameter derivation, chiplet
 * geometry, validation rules and the paper's named presets.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/arch/arch_config.hh"
#include "src/arch/presets.hh"

namespace gemini::arch {
namespace {

TEST(ArchConfig, TopsComputation)
{
    ArchConfig a;
    a.xCores = 6;
    a.yCores = 6;
    a.macsPerCore = 1024;
    a.freqGHz = 1.0;
    // 36 cores x 1024 MACs x 2 ops = 73.7 TOPS.
    EXPECT_NEAR(a.tops(), 73.7, 0.1);
}

TEST(ArchConfig, CoreCoordinatesRoundTrip)
{
    ArchConfig a;
    a.xCores = 5;
    a.yCores = 3;
    for (CoreId id = 0; id < a.coreCount(); ++id) {
        EXPECT_EQ(a.coreAt(a.coreX(id), a.coreY(id)), id);
        EXPECT_LT(a.coreX(id), 5);
        EXPECT_LT(a.coreY(id), 3);
    }
}

TEST(ArchConfig, ChipletOfPartitionsGrid)
{
    ArchConfig a;
    a.xCores = 6;
    a.yCores = 6;
    a.xCut = 2;
    a.yCut = 3;
    // 6 chiplets of 3x2 cores.
    EXPECT_EQ(a.chipletCount(), 6);
    EXPECT_EQ(a.chipletCoresX(), 3);
    EXPECT_EQ(a.chipletCoresY(), 2);
    EXPECT_EQ(a.chipletOf(a.coreAt(0, 0)), 0);
    EXPECT_EQ(a.chipletOf(a.coreAt(2, 1)), 0);
    EXPECT_EQ(a.chipletOf(a.coreAt(3, 0)), 1);
    EXPECT_EQ(a.chipletOf(a.coreAt(0, 2)), 2);
    EXPECT_EQ(a.chipletOf(a.coreAt(5, 5)), 5);
}

TEST(ArchConfig, CrossesChipletDetectsBoundaries)
{
    ArchConfig a;
    a.xCores = 4;
    a.yCores = 4;
    a.xCut = 2;
    a.yCut = 2;
    EXPECT_FALSE(a.crossesChiplet(a.coreAt(0, 0), a.coreAt(1, 0)));
    EXPECT_TRUE(a.crossesChiplet(a.coreAt(1, 0), a.coreAt(2, 0)));
    EXPECT_TRUE(a.crossesChiplet(a.coreAt(0, 1), a.coreAt(0, 2)));
}

TEST(ArchConfig, D2dCountPerChiplet)
{
    ArchConfig a;
    a.xCores = 6;
    a.yCores = 6;
    a.xCut = 2;
    a.yCut = 2;
    // 3x3-core chiplet: 2*(3+3) = 12 D2Ds, the per-side rule of Sec. III.
    EXPECT_EQ(a.d2dPerChiplet(), 12);
    EXPECT_EQ(a.totalD2d(), 48);
    a.xCut = a.yCut = 1;
    EXPECT_EQ(a.totalD2d(), 0);
}

TEST(ArchConfig, ValidateRejectsBadCuts)
{
    ArchConfig a;
    a.xCores = 6;
    a.yCores = 6;
    a.xCut = 4; // does not divide 6
    EXPECT_FALSE(a.validate().empty());
    a.xCut = 3;
    EXPECT_TRUE(a.validate().empty());
}

TEST(ArchConfig, ValidateRejectsNonPositive)
{
    ArchConfig a;
    a.nocBwGBps = 0;
    EXPECT_FALSE(a.validate().empty());
    a = ArchConfig{};
    a.glbKiB = -1;
    EXPECT_FALSE(a.validate().empty());
    a = ArchConfig{};
    a.dramCount = 0;
    EXPECT_FALSE(a.validate().empty());
}

TEST(ArchConfig, ValidateRejectsGridsAndDramCountsAboveTheCaps)
{
    // 46341^2 overflows a 32-bit int: the check must not compute it
    // there.
    ArchConfig a;
    a.xCores = a.yCores = 46341;
    a.xCut = a.yCut = 1;
    EXPECT_EQ(a.validate(), "core grid 46341x46341 exceeds 1024 cores");
    a.xCores = kMaxCoreCount;
    a.yCores = 1;
    EXPECT_TRUE(a.validate().empty()) << a.validate();
    a.yCores = 2;
    EXPECT_FALSE(a.validate().empty());

    // The square grid at the cap passes; one more column does not.
    a.xCores = a.yCores = 32;
    EXPECT_TRUE(a.validate().empty()) << a.validate();
    a.xCores = 33;
    EXPECT_EQ(a.validate(), "core grid 33x32 exceeds 1024 cores");

    a = ArchConfig{};
    a.dramCount = kMaxDramCount;
    EXPECT_TRUE(a.validate().empty()) << a.validate();
    a.dramCount = kMaxDramCount + 1;
    EXPECT_EQ(a.validate(), "dram_count 1025 exceeds 1024");

    // Every preset sits inside both caps.
    for (const std::string &name : presets::names())
        EXPECT_TRUE(presets::byName(name)->validate().empty()) << name;
}

TEST(ArchConfig, ValidateCapsResourcesFrequencyAndBandwidths)
{
    // Each cap itself is accepted; the next value up, infinity and NaN
    // are rejected with the wire field's name.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const struct
    {
        const char *field;
        double ArchConfig::*member;
    } rates[] = {{"noc_gbps", &ArchConfig::nocBwGBps},
                 {"d2d_gbps", &ArchConfig::d2dBwGBps},
                 {"dram_gbps", &ArchConfig::dramBwGBps},
                 {"freq_ghz", &ArchConfig::freqGHz}};
    for (const auto &[field, member] : rates) {
        const double cap = std::string(field) == "freq_ghz"
                               ? kMaxFreqGHz
                               : kMaxBandwidthGBps;
        ArchConfig a;
        a.*member = cap;
        EXPECT_TRUE(a.validate().empty()) << field << ": " << a.validate();
        for (const double bad : {std::nextafter(cap, inf), 1e300, inf, nan}) {
            a.*member = bad;
            EXPECT_EQ(a.validate().rfind(std::string(field) + " ", 0), 0u)
                << field << " " << bad << ": " << a.validate();
        }
    }
    ArchConfig a;
    a.freqGHz = 1e300;
    EXPECT_EQ(a.validate(), "freq_ghz 1e+300 must be within (0, 100]");

    a = ArchConfig{};
    a.macsPerCore = kMaxMacsPerCore;
    a.glbKiB = kMaxGlbKiB;
    EXPECT_TRUE(a.validate().empty()) << a.validate();
    a.macsPerCore = kMaxMacsPerCore + 1;
    EXPECT_EQ(a.validate(),
              "macs_per_core 1048577 must be within (0, 1048576]");
    a.macsPerCore = 2000000000;
    EXPECT_EQ(a.validate(),
              "macs_per_core 2000000000 must be within (0, 1048576]");
    a.macsPerCore = kMaxMacsPerCore;
    a.glbKiB = kMaxGlbKiB + 1;
    EXPECT_EQ(a.validate(), "glb_kib 16777217 must be within (0, 16777216]");

    // A monolithic design has no D2D link: 0 is fine there, not on a
    // multi-chiplet design.
    a = ArchConfig{};
    a.d2dBwGBps = 0;
    EXPECT_TRUE(a.validate().empty()) << a.validate();
    a.d2dBwGBps = -1;
    EXPECT_EQ(a.validate(), "d2d_gbps -1 must be within [0, 1e+06]");
    a.d2dBwGBps = 0;
    a.xCut = 2;
    EXPECT_EQ(a.validate(), "d2d_gbps 0 must be within (0, 1e+06]");
}

TEST(ArchConfig, ToStringMatchesPaperTuple)
{
    const ArchConfig g = gArch72();
    EXPECT_EQ(g.toString(), "(2, 36, 144GB/s, 32GB/s, 16GB/s, 2MB, 1024)");
}

TEST(ArchConfig, EqualityIgnoresName)
{
    ArchConfig a = gArch72();
    ArchConfig b = gArch72();
    b.name = "renamed";
    EXPECT_TRUE(a == b);
    b.glbKiB *= 2;
    EXPECT_FALSE(a == b);
}

TEST(Presets, SimbaIs72TopsAnd36Chiplets)
{
    const ArchConfig s = simbaArch();
    EXPECT_TRUE(s.validate().empty());
    EXPECT_EQ(s.chipletCount(), 36);
    EXPECT_EQ(s.coreCount(), 36);
    EXPECT_NEAR(s.tops(), 72.0, 2.0);
    EXPECT_EQ(s.chipletCoresX(), 1); // one core per chiplet
}

TEST(Presets, GArchMatchesPaper)
{
    const ArchConfig g = gArch72();
    EXPECT_TRUE(g.validate().empty());
    EXPECT_EQ(g.chipletCount(), 2);
    EXPECT_EQ(g.coreCount(), 36);
    EXPECT_EQ(g.glbKiB, 2048);
    EXPECT_EQ(g.macsPerCore, 1024);
    EXPECT_DOUBLE_EQ(g.dramBwGBps, 144.0);
}

TEST(Presets, TArchIsMonolithicTorus)
{
    const ArchConfig t = tArchGrayskull();
    EXPECT_TRUE(t.validate().empty());
    EXPECT_EQ(t.coreCount(), 120);
    EXPECT_EQ(t.chipletCount(), 1);
    EXPECT_EQ(t.topology, Topology::FoldedTorus);
}

TEST(Presets, GArchTorusMatchesSecVIB2)
{
    const ArchConfig g = gArchTorus();
    EXPECT_TRUE(g.validate().empty());
    EXPECT_EQ(g.chipletCount(), 6);
    EXPECT_EQ(g.coreCount(), 60);
    EXPECT_EQ(g.macsPerCore, 2048);
    EXPECT_DOUBLE_EQ(g.dramBwGBps, 480.0);
}

TEST(Presets, TinyArchIsValid)
{
    EXPECT_TRUE(tinyArch().validate().empty());
}

} // namespace
} // namespace gemini::arch
