#include "src/api/results.hh"

#include <string>

namespace gemini::api {

// ---- field lists ----------------------------------------------------------

template <class Io>
void
describe(Io &io, arch::ArchConfig &x)
{
    io.field("name", x.name);
    io.field("x_cores", x.xCores);
    io.field("y_cores", x.yCores);
    io.field("x_cut", x.xCut);
    io.field("y_cut", x.yCut);
    io.named("topology", x.topology, "topology", arch::kTopologyNames);
    io.field("noc_gbps", x.nocBwGBps);
    io.field("d2d_gbps", x.d2dBwGBps);
    io.field("dram_gbps", x.dramBwGBps);
    io.field("dram_count", x.dramCount);
    io.field("macs_per_core", x.macsPerCore);
    io.field("glb_kib", x.glbKiB);
    io.field("freq_ghz", x.freqGHz);
}

template <class Io>
void
describe(Io &io, eval::EvalBreakdown &x)
{
    io.field("delay_s", x.delay);
    io.field("intra_tile_j", x.intraTileEnergy);
    io.field("noc_j", x.nocEnergy);
    io.field("d2d_j", x.d2dEnergy);
    io.field("dram_j", x.dramEnergy);
    io.field("dram_bytes", x.dramBytes);
    io.field("hop_bytes", x.hopBytes);
    io.field("d2d_hop_bytes", x.d2dHopBytes);
    io.field("glb_overflow", x.glbOverflow);
}

template <class Io>
void
describe(Io &io, cost::CostBreakdown &x)
{
    io.field("compute_silicon", x.computeSilicon);
    io.field("io_silicon", x.ioSilicon);
    io.field("dram", x.dram);
    io.field("package", x.package);
    io.field("compute_die_area_mm2", x.computeDieAreaMm2);
    io.field("total_silicon_area_mm2", x.totalSiliconAreaMm2);
    io.field("compute_die_yield", x.computeDieYield);
    io.field("d2d_area_fraction", x.d2dAreaFraction);
    io.derived("total", x.total());
}

template <class Io>
void
describe(Io &io, mapping::Partition &x)
{
    io.field("h", x.h);
    io.field("w", x.w);
    io.field("b", x.b);
    io.field("k", x.k);
}

template <class Io>
void
describe(Io &io, mapping::FlowOfData &x)
{
    io.field("ifmap", x.ifmap);
    io.field("weight", x.weight);
    io.field("ofmap", x.ofmap);
}

template <class Io>
void
describe(Io &io, mapping::MappingScheme &x)
{
    io.required("partition", x.part);
    io.field("core_group", x.coreGroup);
    io.required("flow", x.fd);
}

template <class Io>
void
describe(Io &io, mapping::LayerGroupMapping &x)
{
    io.field("layers", x.layers);
    io.field("batch_unit", x.batchUnit);
    io.required("schemes", x.schemes);
    io.check(x.schemes.size() == x.layers.size(), "",
             "schemes and layers must be parallel arrays");
}

template <class Io>
void
describe(Io &io, mapping::LpMapping &x)
{
    io.field("batch", x.batch);
    io.required("groups", x.groups);
}

template <class Io>
void
describe(Io &io, mapping::SaStats &x)
{
    io.field("proposed", x.proposed);
    io.field("inapplicable", x.inapplicable);
    io.field("accepted", x.accepted);
    io.field("improved", x.improved);
    io.field("initial_cost", x.initialCost);
    io.field("final_cost", x.finalCost);
    io.field("chains", x.chains);
    io.field("best_chain", x.bestChain);
    io.field("iters_run", x.itersRun);
    io.field("best_iteration", x.bestIteration);
}

template <class Io>
void
describe(Io &io, mapping::MappingResult &x)
{
    io.required("mapping", x.mapping);
    io.field("groups", x.groups);
    io.field("total", x.total);
    io.field("sa_stats", x.saStats);
}

template <class Io>
void
describe(Io &io, dse::DseRecord &x)
{
    io.required("arch", x.arch);
    io.field("mc", x.mc);
    io.field("delay_geo_s", x.delayGeo);
    io.field("energy_geo_j", x.energyGeo);
    io.extended("objective", x.objective);
    io.field("feasible", x.feasible);
    io.field("per_model", x.perModel);
    io.extended("objective_lower_bound", x.objectiveLowerBound);
    io.field("rung_reached", x.rungReached);
    io.field("pruned_by_bound", x.prunedByBound);
    io.field("poisoned", x.poisoned);
    io.field("poison_reason", x.poisonReason);
    io.field("sa_iters", x.saIters);
    io.field("eval_seconds", x.evalSeconds);
    io.field("bound_compute_s", x.boundComputeSeconds);
    io.field("bound_dram_s", x.boundDramSeconds);
    io.field("bound_noc_s", x.boundNocSeconds);
    io.field("bound_refetch_bytes", x.boundRefetchBytes);
    io.field("seeded_analytic", x.seededAnalytic);
}

template <class Io>
void
describe(Io &io, dse::DseRungStats &x)
{
    io.field("name", x.name);
    io.field("entered", x.entered);
    io.field("advanced", x.advanced);
    io.field("pruned_bound", x.prunedBound);
    io.field("pruned_rank", x.prunedRank);
    io.field("poisoned", x.poisoned);
    io.field("sa_iters", x.saIters);
    io.field("cpu_seconds", x.cpuSeconds);
    io.extended("best_objective", x.bestObjective);
}

template <class Io>
void
describe(Io &io, dse::DseStats &x)
{
    io.field("scheduled", x.scheduled);
    io.field("cancelled", x.cancelled);
    io.field("truncated", x.truncated);
    io.field("resumed_rung", x.resumedRung);
    io.field("rungs", x.rungs);
}

template <class Io>
void
describe(Io &io, dse::DseResult &x)
{
    io.required("records", x.records);
    io.field("best_index", x.bestIndex);
    io.field("stats", x.stats);
    io.check(x.bestIndex < static_cast<int>(x.records.size()), "best_index",
             "out of range for " + std::to_string(x.records.size()) +
                 " records");
}

#define GEMINI_WIRE_INSTANTIATE(T)                                           \
    template void describe(ObjectReader &, T &);                             \
    template void describe(ObjectWriter &, T &);
GEMINI_WIRE_INSTANTIATE(arch::ArchConfig)
GEMINI_WIRE_INSTANTIATE(eval::EvalBreakdown)
GEMINI_WIRE_INSTANTIATE(cost::CostBreakdown)
GEMINI_WIRE_INSTANTIATE(mapping::LpMapping)
GEMINI_WIRE_INSTANTIATE(mapping::MappingResult)
GEMINI_WIRE_INSTANTIATE(dse::DseStats)
GEMINI_WIRE_INSTANTIATE(dse::DseResult)
#undef GEMINI_WIRE_INSTANTIATE

} // namespace gemini::api
