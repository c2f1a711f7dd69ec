#include "src/arch/arch_config.hh"

#include <cmath>
#include <sstream>

namespace gemini::arch {

const char *
topologyName(Topology t)
{
    for (const auto &[topology, name] : kTopologyNames)
        if (topology == t)
            return name;
    return "?";
}

int
ArchConfig::d2dPerChiplet() const
{
    if (chipletCount() == 1)
        return 0;
    return 2 * (chipletCoresX() + chipletCoresY());
}

std::string
ArchConfig::validate() const
{
    std::ostringstream err;
    if (xCores <= 0 || yCores <= 0)
        return "core grid dims must be positive";
    if (static_cast<std::int64_t>(xCores) * yCores > kMaxCoreCount) {
        err << "core grid " << xCores << "x" << yCores << " exceeds "
            << kMaxCoreCount << " cores";
        return err.str();
    }
    if (xCut <= 0 || yCut <= 0)
        return "cut counts must be positive";
    if (xCores % xCut != 0) {
        err << "XCut " << xCut << " does not divide xCores " << xCores;
        return err.str();
    }
    if (yCores % yCut != 0) {
        err << "YCut " << yCut << " does not divide yCores " << yCores;
        return err.str();
    }
    if (dramCount < 1)
        return "need at least one DRAM";
    if (dramCount > kMaxDramCount) {
        err << "dram_count " << dramCount << " exceeds " << kMaxDramCount;
        return err.str();
    }
    // Each value lies in (0, cap] (NaN fails both tests); a monolithic
    // design has no D2D link, so its D2D bandwidth may also be 0.
    const auto outside = [&err](const char *field, auto value, auto cap,
                                bool zero_ok = false) {
        if ((value > 0 || (zero_ok && value == 0)) && value <= cap)
            return false;
        err << field << " " << value << " must be within "
            << (zero_ok ? "[0, " : "(0, ") << cap << "]";
        return true;
    };
    if (outside("noc_gbps", nocBwGBps, kMaxBandwidthGBps) ||
        outside("d2d_gbps", d2dBwGBps, kMaxBandwidthGBps,
                chipletCount() == 1) ||
        outside("dram_gbps", dramBwGBps, kMaxBandwidthGBps) ||
        outside("macs_per_core", macsPerCore, kMaxMacsPerCore) ||
        outside("glb_kib", glbKiB, kMaxGlbKiB) ||
        outside("freq_ghz", freqGHz, kMaxFreqGHz))
        return err.str();
    return {};
}

std::string
ArchConfig::toString() const
{
    std::ostringstream oss;
    auto gbuf_mb = glbKiB / 1024.0;
    oss << "(" << chipletCount() << ", " << coreCount() << ", "
        << dramBwGBps << "GB/s, " << nocBwGBps << "GB/s, ";
    if (chipletCount() > 1)
        oss << d2dBwGBps << "GB/s, ";
    else
        oss << "None, ";
    if (gbuf_mb >= 1.0)
        oss << gbuf_mb << "MB, ";
    else
        oss << glbKiB << "KB, ";
    oss << macsPerCore << ")";
    switch (topology) {
      case Topology::Mesh: break;
      case Topology::FoldedTorus: oss << "[torus]"; break;
      case Topology::ConcentratedRing: oss << "[ring]"; break;
      case Topology::HierarchicalNop: oss << "[nop]"; break;
    }
    return oss.str();
}

bool
ArchConfig::operator==(const ArchConfig &o) const
{
    return xCores == o.xCores && yCores == o.yCores && xCut == o.xCut &&
           yCut == o.yCut && topology == o.topology &&
           nocBwGBps == o.nocBwGBps && d2dBwGBps == o.d2dBwGBps &&
           dramBwGBps == o.dramBwGBps && dramCount == o.dramCount &&
           macsPerCore == o.macsPerCore && glbKiB == o.glbKiB &&
           freqGHz == o.freqGHz;
}

} // namespace gemini::arch
