#include "src/dse/records.hh"

namespace gemini::dse {

CsvTable
recordsTable(const DseResult &result)
{
    CsvTable csv({"arch", "chiplets", "cores", "mac_per_core", "glb_kib",
                  "noc_gbps", "d2d_gbps", "dram_gbps", "topology",
                  "mc_total", "mc_silicon", "mc_dram", "mc_package",
                  "delay_geo_s", "energy_geo_j", "objective", "norm_edp",
                  "norm_mc", "feasible", "best", "rung", "pruned_bound",
                  "poisoned", "obj_lower_bound", "bound_compute_s",
                  "bound_dram_s", "bound_noc_s", "bound_refetch_bytes",
                  "seeded_analytic", "sa_iters", "eval_seconds"});
    const DseRecord *best = result.bestIndex >= 0
                                ? &result.records[static_cast<std::size_t>(
                                      result.bestIndex)]
                                : nullptr;
    for (std::size_t i = 0; i < result.records.size(); ++i) {
        const DseRecord &r = result.records[i];
        const double norm_edp =
            best && best->edp() > 0.0 ? r.edp() / best->edp() : 0.0;
        const double norm_mc =
            best && best->mc.total() > 0.0 ? r.mc.total() / best->mc.total()
                                           : 0.0;
        csv.addRow(r.arch.toString(), r.arch.chipletCount(),
                   r.arch.coreCount(), r.arch.macsPerCore, r.arch.glbKiB,
                   r.arch.nocBwGBps, r.arch.d2dBwGBps, r.arch.dramBwGBps,
                   arch::topologyName(r.arch.topology), r.mc.total(),
                   r.mc.silicon(), r.mc.dram, r.mc.package, r.delayGeo,
                   r.energyGeo, r.objective, norm_edp, norm_mc,
                   r.feasible ? 1 : 0,
                   static_cast<int>(i) == result.bestIndex ? 1 : 0,
                   r.rungReached, r.prunedByBound ? 1 : 0,
                   r.poisoned ? 1 : 0, r.objectiveLowerBound,
                   r.boundComputeSeconds, r.boundDramSeconds,
                   r.boundNocSeconds, r.boundRefetchBytes,
                   r.seededAnalytic ? 1 : 0, r.saIters, r.evalSeconds);
    }
    return csv;
}

CsvTable
rungStatsTable(const DseStats &stats)
{
    CsvTable csv({"rung", "entered", "advanced", "pruned_bound",
                  "pruned_rank", "poisoned", "sa_iters", "cpu_seconds",
                  "best_objective"});
    for (const DseRungStats &r : stats.rungs)
        csv.addRow(r.name, r.entered, r.advanced, r.prunedBound,
                   r.prunedRank, r.poisoned, r.saIters, r.cpuSeconds,
                   r.bestObjective);
    return csv;
}

bool
DseResult::writeCsv(const std::string &path,
                    const std::string &rung_stats_path) const
{
    bool ok = recordsTable(*this).writeFile(path);
    if (!rung_stats_path.empty())
        ok = rungStatsTable(stats).writeFile(rung_stats_path) && ok;
    return ok;
}

} // namespace gemini::dse
