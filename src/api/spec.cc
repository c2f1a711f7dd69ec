#include "src/api/spec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "src/api/json_reader.hh"
#include "src/api/results.hh"
#include "src/arch/presets.hh"
#include "src/dnn/parser.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/candidates.hh"

namespace gemini::api {

using common::json::Value;

// ---- field lists ----------------------------------------------------------

template <class Io>
void
describe(Io &io, ModelSpec &x)
{
    if (Io::kReading || !x.zoo.empty())
        io.field("zoo", x.zoo);
    if (Io::kReading || !x.file.empty())
        io.field("file", x.file);
}

template <class Io>
void
describe(Io &io, ArchSpec &x)
{
    if (Io::kReading || !x.preset.empty())
        io.field("preset", x.preset);
    io.field("config", x.config);
}

template <class Io>
void
describe(Io &io, dse::DseAxes &x)
{
    io.field("tops_target", x.topsTarget);
    io.field("x_cuts", x.xCuts);
    io.field("y_cuts", x.yCuts);
    io.field("dram_gbps_per_tops", x.dramGBpsPerTops);
    io.field("noc_gbps", x.nocGBps);
    io.field("d2d_ratio", x.d2dRatio);
    io.field("glb_kib", x.glbKiB);
    io.field("macs_per_core", x.macsPerCore);
    io.named("topologies", x.topologies, "topology", arch::kTopologyNames);
}

template <class Io>
void
describe(Io &io, dse::DseSchedule &x)
{
    io.field("enabled", x.enabled);
    io.field("rungs", x.rungs);
    io.field("keep_fraction", x.keepFraction);
    io.field("base_iters", x.baseIters);
    io.field("lower_bound_prune", x.lowerBoundPrune);
    // Kept on the wire until the next schema bump; only true is accepted.
    bool analytic_bound = true;
    io.field("analytic_bound", analytic_bound);
    io.check(analytic_bound, "analytic_bound",
             "false is no longer supported (the whole-model roofline "
             "bound was removed)");
    io.field("min_keep", x.minKeep);
    io.field("polish_chains", x.polishChains);
}

template <class Io>
void
describe(Io &io, mapping::SaOptions &x)
{
    io.field("iterations", x.iterations);
    io.field("t_start", x.tStart);
    io.field("t_end", x.tEnd);
    io.field("seed", x.seed);
    io.field("chains", x.chains);
    // Kept on the wire until the next schema bump; only true is accepted.
    bool incremental_cost = true;
    io.field("incremental_cost", incremental_cost);
    io.check(incremental_cost, "incremental_cost",
             "false is no longer supported (the full re-sum was removed)");
    io.field("reheat_interval", x.reheatInterval);
    io.field("operator_mask", x.operatorMask);
    io.field("plateau_window", x.plateauWindow);
}

/** The engine knobs; `tech` travels as the spec's own top-level section. */
template <class Io>
void
describe(Io &io, mapping::MappingOptions &x)
{
    io.field("batch", x.batch);
    io.field("run_sa", x.runSa);
    io.field("sa", x.sa);
    io.field("sa_threads", x.saThreads);
    io.field("analyzer_cache_entries", x.analyzerCacheEntries);
    io.field("max_group_layers", x.maxGroupLayers);
    io.field("analytic_seed", x.analyticSeed);
    io.field("batch_units", x.batchUnits);
}

template <class Io>
void
describe(Io &io, arch::TechParams &x)
{
    io.field("mac_j", x.macJ);
    io.field("vec_op_j", x.vecOpJ);
    io.field("glb_j_per_byte", x.glbJPerByte);
    io.field("buf_j_per_byte", x.bufJPerByte);
    io.field("noc_hop_j_per_byte", x.nocHopJPerByte);
    io.field("d2d_j_per_byte", x.d2dJPerByte);
    io.field("dram_j_per_byte", x.dramJPerByte);
    io.field("nop_serialization_j_per_byte", x.nopSerializationJPerByte);
    io.field("lanes_c", x.lanesC);
    io.field("vec_lane_divisor", x.vecLaneDivisor);
    io.field("glb_bytes_per_cycle_per_mac", x.glbBytesPerCyclePerMac);
    io.field("wbuf_bytes_per_mac", x.wbufBytesPerMac);
    io.field("ibuf_bytes_per_mac", x.ibufBytesPerMac);
    io.field("abuf_bytes_per_mac", x.abufBytesPerMac);
}

template <class Io>
void
describe(Io &io, cost::SubstrateTier &x)
{
    io.field("max_area_mm2", x.maxAreaMm2);
    io.field("dollar_per_mm2", x.dollarPerMm2);
}

template <class Io>
void
describe(Io &io, cost::CostParams &x)
{
    io.field("silicon_dollar_per_mm2", x.siliconDollarPerMm2);
    io.field("yield_unit", x.yieldUnit);
    io.field("unit_area_mm2", x.unitAreaMm2);
    io.field("mac_area_mm2", x.macAreaMm2);
    io.field("glb_area_mm2_per_mib", x.glbAreaMm2PerMiB);
    io.field("core_fixed_area_mm2", x.coreFixedAreaMm2);
    io.field("d2d_area_base_mm2", x.d2dAreaBaseMm2);
    io.field("d2d_area_per_gbps", x.d2dAreaPerGBps);
    io.field("io_chiplet_fixed_mm2", x.ioChipletFixedMm2);
    io.field("io_phy_area_per_gbps", x.ioPhyAreaPerGBps);
    io.field("dram_unit_bw_gbps", x.dramUnitBwGBps);
    io.field("dram_die_price", x.dramDiePrice);
    io.field("substrate_scale", x.substrateScale);
    io.field("package_yield_per_die", x.packageYieldPerDie);
    io.field("monolithic_substrate_dollar_per_mm2",
             x.monolithicSubstrateDollarPerMm2);
    io.field("chiplet_substrate_tiers", x.chipletSubstrateTiers);
}

constexpr std::pair<ExecutionSpec::Mode, const char *> kExecutionModes[] = {
    {ExecutionSpec::Mode::InProcess, "in_process"},
    {ExecutionSpec::Mode::Workers, "workers"}};

template <class Io>
void
describe(Io &io, ExecutionSpec &x)
{
    io.named("mode", x.mode, "mode", kExecutionModes);
    io.field("workers", x.workers);
    io.field("max_retries", x.maxRetries);
    io.field("candidate_deadline_seconds", x.candidateDeadlineSeconds);
    io.field("candidate_rss_mib", x.candidateRssMiB);
}

constexpr std::pair<ExperimentSpec::Mode, const char *> kSpecModes[] = {
    {ExperimentSpec::Mode::Map, "map"}, {ExperimentSpec::Mode::Dse, "dse"}};

/**
 * The top level. Its one bespoke part: each mode writes only its own
 * architecture keys (arch for map; axes, schedule and max_candidates for
 * dse), but a spec may carry both sets and switch modes.
 */
template <class Io>
void
describe(Io &io, ExperimentSpec &x)
{
    // The version gate comes first: a newer schema must be rejected with
    // a clear message, not misread through this build's key set.
    io.field("schema_version", x.schemaVersion);
    io.check(x.schemaVersion == kSchemaVersion, "schema_version",
             "version " + std::to_string(x.schemaVersion) +
                 " is not supported (this build speaks version " +
                 std::to_string(kSchemaVersion) + ")");
    io.field("name", x.name);
    io.named("mode", x.mode, "mode", kSpecModes);
    io.field("models", x.models);
    const bool map = x.mode == ExperimentSpec::Mode::Map;
    if (Io::kReading || map)
        io.field("arch", x.arch);
    if (Io::kReading || !map) {
        io.field("axes", x.axes);
        io.field("schedule", x.schedule);
        io.field("max_candidates", x.maxCandidates);
    }
    io.object("objective", [&](auto &o) {
        o.field("alpha", x.alpha);
        o.field("beta", x.beta);
        o.field("gamma", x.gamma);
    });
    io.field("mapping", x.mapping);
    io.field("tech", x.mapping.tech);
    io.field("cost", x.costParams);
    io.field("threads", x.threads);
    io.field("deadline_seconds", x.deadlineSeconds);
    io.field("execution", x.execution);
}

std::optional<ExperimentSpec>
ExperimentSpec::fromJson(const Value &v, std::string *error)
{
    if (error)
        error->clear();
    ExperimentSpec spec;
    ObjectReader r(v, "spec", error);
    describe(r, spec);
    if (!r.finish())
        return std::nullopt;

    // The engine-level exponents mirror the spec objective.
    spec.mapping.beta = spec.beta;
    spec.mapping.gamma = spec.gamma;
    spec.mapping.sa.beta = spec.beta;
    spec.mapping.sa.gamma = spec.gamma;
    return spec;
}

std::optional<ExperimentSpec>
ExperimentSpec::fromJsonText(const std::string &text, std::string *error)
{
    std::string parse_error;
    const std::optional<Value> v = common::json::parse(text, &parse_error);
    if (!v) {
        if (error)
            *error = "JSON syntax error at " + parse_error;
        return std::nullopt;
    }
    return fromJson(*v, error);
}

std::optional<ExperimentSpec>
ExperimentSpec::fromFile(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open spec file: " + path;
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return fromJsonText(text.str(), error);
}

Value
ExperimentSpec::toJson() const
{
    ObjectWriter w;
    describe(w, const_cast<ExperimentSpec &>(*this));
    return w.take();
}

namespace {

using Complain = std::function<void(const std::string &)>;

std::string
number(double v)
{
    return Value(v).dump();
}

/** One "key: rule" complaint per value outside its range. */
template <class T>
void
atLeast(const Complain &complain, const std::string &key, T v, T min)
{
    if constexpr (std::is_integral_v<T>) {
        if (v < min)
            complain(key + ": must be >= " + std::to_string(min));
    } else if (!(v >= min) || !std::isfinite(v)) {
        complain(key + ": must be a finite number >= " + number(min));
    }
}

void
positive(const Complain &complain, const std::string &key, double v)
{
    if (!(v > 0.0) || !std::isfinite(v))
        complain(key + ": must be a finite number > 0");
}

void
fraction(const Complain &complain, const std::string &key, double v)
{
    if (!(v > 0.0 && v <= 1.0))
        complain(key + ": must be within (0, 1]");
}

/**
 * Every axis value must be usable on its own (a zero cut divides by zero,
 * a zero MAC count or bandwidth admits no architecture), and together
 * they must enumerate at least one candidate.
 */
void
validateAxes(const dse::DseAxes &axes, const Complain &complain)
{
    std::size_t problems = 0;
    const Complain count = [&](const std::string &p) {
        ++problems;
        complain(p);
    };
    positive(count, "axes.tops_target", axes.topsTarget);
    const auto each = [&](const auto &list, const std::string &key,
                          const auto &check) {
        if (list.empty())
            count("axes." + key + ": at least one value is required");
        for (std::size_t i = 0; i < list.size(); ++i)
            check(count, "axes." + key + "[" + std::to_string(i) + "]",
                  list[i]);
    };
    const auto atLeastOne = [](const Complain &c, const std::string &key,
                               int v) { atLeast(c, key, v, 1); };
    each(axes.xCuts, "x_cuts", atLeastOne);
    each(axes.yCuts, "y_cuts", atLeastOne);
    each(axes.dramGBpsPerTops, "dram_gbps_per_tops", positive);
    each(axes.nocGBps, "noc_gbps", positive);
    each(axes.d2dRatio, "d2d_ratio", positive);
    each(axes.glbKiB, "glb_kib", atLeastOne);
    each(axes.macsPerCore, "macs_per_core", atLeastOne);
    if (axes.topologies.empty())
        count("axes.topologies: at least one value is required");
    if (problems)
        return;
    for (const int macs : axes.macsPerCore) {
        const double cores = axes.topsTarget * 1000.0 / (2.0 * macs);
        if (cores < dse::kMinExactCores || cores > dse::kMaxExactCores)
            count("axes.tops_target: " + number(axes.topsTarget) +
                  " TOPS needs " + number(cores) + " cores of " +
                  std::to_string(macs) + " MACs (must be within [" +
                  number(dse::kMinExactCores) + ", " +
                  number(dse::kMaxExactCores) + "])");
    }
    if (!problems && !dse::hasCandidates(axes))
        count("axes: the axis lists enumerate no valid candidate (no "
              "x_cuts/y_cuts pair divides the core grid, or every "
              "combination fails the architecture checks)");
}

void
validateTech(const arch::TechParams &t, const Complain &complain)
{
    for (const auto &[key, v] : {
             std::pair{"mac_j", t.macJ},
             {"vec_op_j", t.vecOpJ},
             {"glb_j_per_byte", t.glbJPerByte},
             {"buf_j_per_byte", t.bufJPerByte},
             {"noc_hop_j_per_byte", t.nocHopJPerByte},
             {"d2d_j_per_byte", t.d2dJPerByte},
             {"dram_j_per_byte", t.dramJPerByte},
             {"nop_serialization_j_per_byte", t.nopSerializationJPerByte},
         })
        atLeast(complain, std::string("tech.") + key, v, 0.0);
    atLeast(complain, "tech.lanes_c", t.lanesC, 1);
    atLeast(complain, "tech.vec_lane_divisor", t.vecLaneDivisor, 1);
    for (const auto &[key, v] : {
             std::pair{"glb_bytes_per_cycle_per_mac",
                       t.glbBytesPerCyclePerMac},
             {"wbuf_bytes_per_mac", t.wbufBytesPerMac},
             {"ibuf_bytes_per_mac", t.ibufBytesPerMac},
             {"abuf_bytes_per_mac", t.abufBytesPerMac},
         })
        positive(complain, std::string("tech.") + key, v);
}

void
validateCost(const cost::CostParams &c, const Complain &complain)
{
    for (const auto &[key, v] : {
             std::pair{"silicon_dollar_per_mm2", c.siliconDollarPerMm2},
             {"mac_area_mm2", c.macAreaMm2},
             {"glb_area_mm2_per_mib", c.glbAreaMm2PerMiB},
             {"core_fixed_area_mm2", c.coreFixedAreaMm2},
             {"d2d_area_base_mm2", c.d2dAreaBaseMm2},
             {"d2d_area_per_gbps", c.d2dAreaPerGBps},
             {"io_chiplet_fixed_mm2", c.ioChipletFixedMm2},
             {"io_phy_area_per_gbps", c.ioPhyAreaPerGBps},
             {"dram_die_price", c.dramDiePrice},
             {"monolithic_substrate_dollar_per_mm2",
              c.monolithicSubstrateDollarPerMm2},
         })
        atLeast(complain, std::string("cost.") + key, v, 0.0);
    for (const auto &[key, v] : {
             std::pair{"unit_area_mm2", c.unitAreaMm2},
             {"dram_unit_bw_gbps", c.dramUnitBwGBps},
             {"substrate_scale", c.substrateScale},
         })
        positive(complain, std::string("cost.") + key, v);
    fraction(complain, "cost.yield_unit", c.yieldUnit);
    fraction(complain, "cost.package_yield_per_die", c.packageYieldPerDie);
    const std::vector<cost::SubstrateTier> &tiers = c.chipletSubstrateTiers;
    if (tiers.empty())
        complain("cost.chiplet_substrate_tiers: at least one tier is "
                 "required");
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        const std::string where =
            "cost.chiplet_substrate_tiers[" + std::to_string(i) + "]";
        positive(complain, where + ".max_area_mm2", tiers[i].maxAreaMm2);
        atLeast(complain, where + ".dollar_per_mm2", tiers[i].dollarPerMm2,
                0.0);
        if (i && !(tiers[i].maxAreaMm2 > tiers[i - 1].maxAreaMm2))
            complain(where + ".max_area_mm2: tiers must ascend by area");
    }
}

} // namespace

std::string
ExperimentSpec::validate() const
{
    std::vector<std::string> problems;
    const auto complain = [&](const std::string &p) {
        problems.push_back(p);
    };

    if (models.empty())
        complain("models: at least one model is required");
    for (std::size_t i = 0; i < models.size(); ++i) {
        const ModelSpec &m = models[i];
        const std::string where = "models[" + std::to_string(i) + "]";
        if (m.zoo.empty() == m.file.empty()) {
            complain(where + ": exactly one of \"zoo\" or \"file\" must "
                             "be set");
            continue;
        }
        if (!m.zoo.empty()) {
            const std::vector<std::string> known = dnn::zoo::available();
            if (std::find(known.begin(), known.end(), m.zoo) ==
                known.end()) {
                std::string valid;
                for (const std::string &n : known)
                    valid += (valid.empty() ? "" : ", ") + n;
                complain(where + ".zoo: unknown model \"" + m.zoo +
                         "\" (valid: " + valid + ")");
            }
        }
    }

    if (mode == Mode::Map) {
        if (arch.empty()) {
            complain("arch: map mode needs a \"preset\" name or an inline "
                     "\"config\"");
        } else if (!arch.preset.empty() && arch.config.has_value()) {
            complain("arch: set either \"preset\" or \"config\", not both");
        } else if (!arch.preset.empty()) {
            if (!arch::presets::byName(arch.preset)) {
                std::string valid;
                for (const std::string &n : arch::presets::names())
                    valid += (valid.empty() ? "" : ", ") + n;
                complain("arch.preset: unknown preset \"" + arch.preset +
                         "\" (valid: " + valid + ")");
            }
        } else {
            const std::string err = arch.config->validate();
            if (!err.empty())
                complain("arch.config: " + err);
        }
    } else {
        validateAxes(axes, complain);
        if (schedule.rungs < 0)
            complain("schedule.rungs: must be >= 0");
        if (schedule.keepFraction < 0.0 || schedule.keepFraction > 1.0)
            complain("schedule.keep_fraction: must be within [0, 1]");
        if (schedule.baseIters < 1)
            complain("schedule.base_iters: must be >= 1");
        if (schedule.polishChains < 1)
            complain("schedule.polish_chains: must be >= 1");
    }

    validateTech(mapping.tech, complain);
    validateCost(costParams, complain);

    if (!(std::isfinite(alpha) && std::isfinite(beta) &&
          std::isfinite(gamma)))
        complain("objective: exponents must be finite numbers");
    if (mapping.batch < 1)
        complain("mapping.batch: must be >= 1");
    for (std::size_t i = 0; i < mapping.batchUnits.size(); ++i) {
        const std::int64_t unit = mapping.batchUnits[i];
        const std::string where =
            "mapping.batch_units[" + std::to_string(i) + "]: ";
        if (unit < 1)
            complain(where + "must be >= 1");
        else if (mapping.batch >= 1 && mapping.batch % unit != 0)
            complain(where + std::to_string(unit) +
                     " does not divide mapping.batch (" +
                     std::to_string(mapping.batch) + ")");
    }
    if (mapping.sa.iterations < 0)
        complain("mapping.sa.iterations: must be >= 0");
    if (mapping.sa.chains < 1)
        complain("mapping.sa.chains: must be >= 1");
    if (!(mapping.sa.tStart > 0.0) || !(mapping.sa.tEnd > 0.0) ||
        mapping.sa.tEnd > mapping.sa.tStart)
        complain("mapping.sa: temperatures need t_start >= t_end > 0");
    if ((mapping.sa.operatorMask & 0x1Fu) == 0)
        complain("mapping.sa.operator_mask: at least one of the five "
                 "operator bits must be set");
    if (mapping.sa.plateauWindow < 0)
        complain("mapping.sa.plateau_window: must be >= 0 (0 = off)");
    if (mapping.maxGroupLayers < 1)
        complain("mapping.max_group_layers: must be >= 1");
    if (mapping.saThreads < 0)
        complain("mapping.sa_threads: must be >= 0");
    if (mapping.analyzerCacheEntries > mapping::kMaxAnalyzerCacheEntries)
        complain("mapping.analyzer_cache_entries: must be <= " +
                 std::to_string(mapping::kMaxAnalyzerCacheEntries) +
                 " (0 = uncached)");
    if (threads < 0)
        complain("threads: must be >= 0 (0 = hardware concurrency)");
    if (!(deadlineSeconds >= 0.0) || !std::isfinite(deadlineSeconds))
        complain("deadline_seconds: must be a finite number >= 0 "
                 "(0 = no deadline)");
    if (execution.workers < 0)
        complain("execution.workers: must be >= 0 (0 = thread count)");
    if (execution.maxRetries < 0)
        complain("execution.max_retries: must be >= 0");
    if (!(execution.candidateDeadlineSeconds >= 0.0) ||
        !std::isfinite(execution.candidateDeadlineSeconds))
        complain("execution.candidate_deadline_seconds: must be a finite "
                 "number >= 0 (0 = no per-candidate deadline)");
    if (execution.candidateRssMiB < 0)
        complain("execution.candidate_rss_mib: must be >= 0 "
                 "(0 = unlimited)");

    std::string joined;
    for (const std::string &p : problems)
        joined += (joined.empty() ? "" : "\n") + p;
    return joined;
}

std::string
ExperimentSpec::canonicalText() const
{
    // The deadline changes how long a run may take, not what it
    // computes: a complete result is bit-identical under any budget. It
    // is therefore excluded from the identity so reruns with a different
    // time budget hit the same cache/store entry. Truncated results are
    // never cached or stored, which keeps this sound.
    ExperimentSpec identity = *this;
    identity.deadlineSeconds = 0.0;
    // Execution controls (worker pool, retry/quarantine budgets) decide
    // *where* candidates evaluate, not what they compute — worker and
    // in-process runs produce bit-identical winners — so they share the
    // deadline's exclusion.
    identity.execution = ExecutionSpec{};
    return identity.toJson().canonical();
}

std::uint64_t
ExperimentSpec::canonicalHash() const
{
    return common::json::fnv1a64(canonicalText());
}

std::optional<ResolvedExperiment>
resolveExperiment(const ExperimentSpec &spec, std::string *error)
{
    const std::string problems = spec.validate();
    if (!problems.empty()) {
        if (error)
            *error = problems;
        return std::nullopt;
    }

    ResolvedExperiment resolved;
    for (const ModelSpec &m : spec.models) {
        if (!m.zoo.empty()) {
            resolved.models.push_back(dnn::zoo::byName(m.zoo));
            continue;
        }
        std::string parse_error;
        std::optional<dnn::Graph> g =
            dnn::parseModelFile(m.file, &parse_error);
        if (!g) {
            if (error)
                *error = "models.file \"" + m.file + "\": " + parse_error;
            return std::nullopt;
        }
        resolved.models.push_back(std::move(*g));
    }

    if (spec.mode == ExperimentSpec::Mode::Map) {
        resolved.archConfig = spec.arch.config
                                  ? *spec.arch.config
                                  : *arch::presets::byName(spec.arch.preset);
    }
    return resolved;
}

} // namespace gemini::api
