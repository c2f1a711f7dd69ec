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
    if (nocBwGBps <= 0 || dramBwGBps <= 0)
        return "bandwidths must be positive";
    if (chipletCount() > 1 && d2dBwGBps <= 0)
        return "D2D bandwidth must be positive on multi-chiplet designs";
    if (dramCount < 1)
        return "need at least one DRAM";
    if (macsPerCore <= 0 || glbKiB <= 0)
        return "core resources must be positive";
    if (freqGHz <= 0)
        return "frequency must be positive";
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
