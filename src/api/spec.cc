#include "src/api/spec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/api/json_reader.hh"
#include "src/api/results.hh"
#include "src/arch/presets.hh"
#include "src/dnn/parser.hh"
#include "src/dnn/zoo.hh"

namespace gemini::api {

using common::json::Array;
using common::json::Object;
using common::json::Value;

namespace {

bool
readObjective(const Value &v, const std::string &path, ExperimentSpec &spec,
              std::string *error)
{
    ObjectReader r(v, path, error);
    r.getDouble("alpha", spec.alpha);
    r.getDouble("beta", spec.beta);
    r.getDouble("gamma", spec.gamma);
    return r.finish();
}

bool
readModels(const Value &v, const std::string &path, ExperimentSpec &spec,
           std::string *error)
{
    if (!v.isArray()) {
        if (error && error->empty())
            *error = path + ": expected an array of model objects";
        return false;
    }
    spec.models.clear();
    std::size_t i = 0;
    for (const Value &e : v.asArray()) {
        ObjectReader r(e, path + "[" + std::to_string(i) + "]", error);
        ModelSpec m;
        r.getString("zoo", m.zoo);
        r.getString("file", m.file);
        if (!r.finish())
            return false;
        spec.models.push_back(std::move(m));
        ++i;
    }
    return true;
}

bool
readArch(const Value &v, const std::string &path, ExperimentSpec &spec,
         std::string *error)
{
    ObjectReader r(v, path, error);
    r.getString("preset", spec.arch.preset);
    if (const Value *cfg = r.child("config")) {
        arch::ArchConfig parsed;
        if (!archConfigFromJson(*cfg, path + ".config", parsed, error))
            return false;
        spec.arch.config = parsed;
    }
    return r.finish();
}

bool
readAxes(const Value &v, const std::string &path, dse::DseAxes &axes,
         std::string *error)
{
    ObjectReader r(v, path, error);
    r.getDouble("tops_target", axes.topsTarget);
    r.getIntList("x_cuts", axes.xCuts);
    r.getIntList("y_cuts", axes.yCuts);
    r.getDoubleList("dram_gbps_per_tops", axes.dramGBpsPerTops);
    r.getDoubleList("noc_gbps", axes.nocGBps);
    r.getDoubleList("d2d_ratio", axes.d2dRatio);
    r.getIntList("glb_kib", axes.glbKiB);
    r.getIntList("macs_per_core", axes.macsPerCore);
    if (const Value *topos = r.child("topologies")) {
        if (!topos->isArray()) {
            if (error && error->empty())
                *error = path + ".topologies: expected an array of "
                                "topology names";
            return false;
        }
        std::vector<arch::Topology> parsed;
        for (const Value &e : topos->asArray()) {
            arch::Topology t;
            if (!e.isString() || !arch::topologyFromName(e.asString(), t)) {
                if (error && error->empty()) {
                    std::string valid;
                    for (const arch::Topology known : arch::kAllTopologies) {
                        if (!valid.empty())
                            valid += ", ";
                        valid += arch::topologyName(known);
                    }
                    *error = path + ".topologies: unknown topology (valid: " +
                             valid + ")";
                }
                return false;
            }
            parsed.push_back(t);
        }
        axes.topologies = std::move(parsed);
    }
    return r.finish();
}

bool
readSchedule(const Value &v, const std::string &path, dse::DseSchedule &s,
             std::string *error)
{
    ObjectReader r(v, path, error);
    r.getBool("enabled", s.enabled);
    r.getInt("rungs", s.rungs);
    r.getDouble("keep_fraction", s.keepFraction);
    r.getInt("base_iters", s.baseIters);
    r.getBool("lower_bound_prune", s.lowerBoundPrune);
    r.getBool("analytic_bound", s.analyticBound);
    r.getInt("min_keep", s.minKeep);
    r.getInt("polish_chains", s.polishChains);
    return r.finish();
}

bool
readSa(const Value &v, const std::string &path, mapping::SaOptions &sa,
       std::string *error)
{
    ObjectReader r(v, path, error);
    r.getInt("iterations", sa.iterations);
    r.getDouble("t_start", sa.tStart);
    r.getDouble("t_end", sa.tEnd);
    r.getInt("seed", sa.seed);
    r.getInt("chains", sa.chains);
    r.getBool("incremental_cost", sa.incrementalCost);
    r.getInt("reheat_interval", sa.reheatInterval);
    r.getInt("operator_mask", sa.operatorMask);
    r.getInt("plateau_window", sa.plateauWindow);
    return r.finish();
}

bool
readMapping(const Value &v, const std::string &path,
            mapping::MappingOptions &m, std::string *error)
{
    ObjectReader r(v, path, error);
    r.getInt("batch", m.batch);
    r.getBool("run_sa", m.runSa);
    r.getInt("sa_threads", m.saThreads);
    r.getInt("analyzer_cache_entries", m.analyzerCacheEntries);
    r.getBool("delta_eval", m.deltaEval);
    r.getInt("max_group_layers", m.maxGroupLayers);
    r.getBool("analytic_seed", m.analyticSeed);
    r.getIntList("batch_units", m.batchUnits);
    if (const Value *sa = r.child("sa")) {
        if (!readSa(*sa, path + ".sa", m.sa, error))
            return false;
    }
    return r.finish();
}

bool
readTech(const Value &v, const std::string &path, arch::TechParams &t,
         std::string *error)
{
    ObjectReader r(v, path, error);
    r.getDouble("mac_j", t.macJ);
    r.getDouble("vec_op_j", t.vecOpJ);
    r.getDouble("glb_j_per_byte", t.glbJPerByte);
    r.getDouble("buf_j_per_byte", t.bufJPerByte);
    r.getDouble("noc_hop_j_per_byte", t.nocHopJPerByte);
    r.getDouble("d2d_j_per_byte", t.d2dJPerByte);
    r.getDouble("dram_j_per_byte", t.dramJPerByte);
    r.getDouble("nop_serialization_j_per_byte", t.nopSerializationJPerByte);
    r.getInt("lanes_c", t.lanesC);
    r.getInt("vec_lane_divisor", t.vecLaneDivisor);
    r.getDouble("glb_bytes_per_cycle_per_mac", t.glbBytesPerCyclePerMac);
    r.getDouble("wbuf_bytes_per_mac", t.wbufBytesPerMac);
    r.getDouble("ibuf_bytes_per_mac", t.ibufBytesPerMac);
    r.getDouble("abuf_bytes_per_mac", t.abufBytesPerMac);
    return r.finish();
}

bool
readCost(const Value &v, const std::string &path, cost::CostParams &c,
         std::string *error)
{
    ObjectReader r(v, path, error);
    r.getDouble("silicon_dollar_per_mm2", c.siliconDollarPerMm2);
    r.getDouble("yield_unit", c.yieldUnit);
    r.getDouble("unit_area_mm2", c.unitAreaMm2);
    r.getDouble("mac_area_mm2", c.macAreaMm2);
    r.getDouble("glb_area_mm2_per_mib", c.glbAreaMm2PerMiB);
    r.getDouble("core_fixed_area_mm2", c.coreFixedAreaMm2);
    r.getDouble("d2d_area_base_mm2", c.d2dAreaBaseMm2);
    r.getDouble("d2d_area_per_gbps", c.d2dAreaPerGBps);
    r.getDouble("io_chiplet_fixed_mm2", c.ioChipletFixedMm2);
    r.getDouble("io_phy_area_per_gbps", c.ioPhyAreaPerGBps);
    r.getDouble("dram_unit_bw_gbps", c.dramUnitBwGBps);
    r.getDouble("dram_die_price", c.dramDiePrice);
    r.getDouble("substrate_scale", c.substrateScale);
    r.getDouble("package_yield_per_die", c.packageYieldPerDie);
    r.getDouble("monolithic_substrate_dollar_per_mm2",
                c.monolithicSubstrateDollarPerMm2);
    if (const Value *tiers = r.child("chiplet_substrate_tiers")) {
        if (!tiers->isArray()) {
            if (error && error->empty())
                *error = path + ".chiplet_substrate_tiers: expected an "
                                "array of tier objects";
            return false;
        }
        std::vector<cost::SubstrateTier> parsed;
        std::size_t i = 0;
        for (const Value &e : tiers->asArray()) {
            ObjectReader tr(e, path + ".chiplet_substrate_tiers[" +
                                   std::to_string(i) + "]",
                            error);
            cost::SubstrateTier tier{0.0, 0.0};
            tr.getDouble("max_area_mm2", tier.maxAreaMm2);
            tr.getDouble("dollar_per_mm2", tier.dollarPerMm2);
            if (!tr.finish())
                return false;
            parsed.push_back(tier);
            ++i;
        }
        c.chipletSubstrateTiers = std::move(parsed);
    }
    return r.finish();
}

bool
readExecution(const Value &v, const std::string &path, ExecutionSpec &e,
              std::string *error)
{
    ObjectReader r(v, path, error);
    std::string mode = e.mode == ExecutionSpec::Mode::Workers ? "workers"
                                                              : "in_process";
    r.getString("mode", mode);
    if (!r.ok())
        return false;
    if (mode == "in_process") {
        e.mode = ExecutionSpec::Mode::InProcess;
    } else if (mode == "workers") {
        e.mode = ExecutionSpec::Mode::Workers;
    } else {
        if (error && error->empty())
            *error = path + ".mode: unknown mode \"" + mode +
                     "\" (valid: in_process, workers)";
        return false;
    }
    r.getInt("workers", e.workers);
    r.getInt("max_retries", e.maxRetries);
    r.getDouble("candidate_deadline_seconds", e.candidateDeadlineSeconds);
    r.getInt("candidate_rss_mib", e.candidateRssMiB);
    return r.finish();
}

Value
executionToJson(const ExecutionSpec &e)
{
    Value v = Value::object();
    v.set("mode", e.mode == ExecutionSpec::Mode::Workers ? "workers"
                                                         : "in_process");
    v.set("workers", e.workers);
    v.set("max_retries", e.maxRetries);
    v.set("candidate_deadline_seconds", e.candidateDeadlineSeconds);
    v.set("candidate_rss_mib", e.candidateRssMiB);
    return v;
}

Value
objectiveToJson(const ExperimentSpec &spec)
{
    Value v = Value::object();
    v.set("alpha", spec.alpha);
    v.set("beta", spec.beta);
    v.set("gamma", spec.gamma);
    return v;
}

Value
modelsToJson(const ExperimentSpec &spec)
{
    Value arr = Value::array();
    for (const ModelSpec &m : spec.models) {
        Value v = Value::object();
        if (!m.zoo.empty())
            v.set("zoo", m.zoo);
        if (!m.file.empty())
            v.set("file", m.file);
        arr.push(std::move(v));
    }
    return arr;
}

Value
archToJson(const ArchSpec &a)
{
    Value v = Value::object();
    if (!a.preset.empty())
        v.set("preset", a.preset);
    if (a.config)
        v.set("config", archConfigToJson(*a.config));
    return v;
}

Value
axesToJson(const dse::DseAxes &axes)
{
    const auto numbers = [](const auto &list) {
        Value arr = Value::array();
        for (const auto e : list)
            arr.push(e);
        return arr;
    };
    Value v = Value::object();
    v.set("tops_target", axes.topsTarget);
    v.set("x_cuts", numbers(axes.xCuts));
    v.set("y_cuts", numbers(axes.yCuts));
    v.set("dram_gbps_per_tops", numbers(axes.dramGBpsPerTops));
    v.set("noc_gbps", numbers(axes.nocGBps));
    v.set("d2d_ratio", numbers(axes.d2dRatio));
    v.set("glb_kib", numbers(axes.glbKiB));
    v.set("macs_per_core", numbers(axes.macsPerCore));
    Value topos = Value::array();
    for (const arch::Topology t : axes.topologies)
        topos.push(arch::topologyName(t));
    v.set("topologies", std::move(topos));
    return v;
}

Value
scheduleToJson(const dse::DseSchedule &s)
{
    Value v = Value::object();
    v.set("enabled", s.enabled);
    v.set("rungs", s.rungs);
    v.set("keep_fraction", s.keepFraction);
    v.set("base_iters", s.baseIters);
    v.set("lower_bound_prune", s.lowerBoundPrune);
    v.set("analytic_bound", s.analyticBound);
    v.set("min_keep", static_cast<std::uint64_t>(s.minKeep));
    v.set("polish_chains", s.polishChains);
    return v;
}

Value
mappingToJson(const mapping::MappingOptions &m)
{
    Value sa = Value::object();
    sa.set("iterations", m.sa.iterations);
    sa.set("t_start", m.sa.tStart);
    sa.set("t_end", m.sa.tEnd);
    sa.set("seed", static_cast<std::uint64_t>(m.sa.seed));
    sa.set("chains", m.sa.chains);
    sa.set("incremental_cost", m.sa.incrementalCost);
    sa.set("reheat_interval", m.sa.reheatInterval);
    sa.set("operator_mask", m.sa.operatorMask);
    sa.set("plateau_window", m.sa.plateauWindow);

    Value v = Value::object();
    v.set("batch", m.batch);
    v.set("run_sa", m.runSa);
    v.set("sa", std::move(sa));
    v.set("sa_threads", m.saThreads);
    v.set("analyzer_cache_entries",
          static_cast<std::uint64_t>(m.analyzerCacheEntries));
    v.set("delta_eval", m.deltaEval);
    v.set("max_group_layers", m.maxGroupLayers);
    v.set("analytic_seed", m.analyticSeed);
    Value units = Value::array();
    for (const std::int64_t u : m.batchUnits)
        units.push(u);
    v.set("batch_units", std::move(units));
    return v;
}

Value
techToJson(const arch::TechParams &t)
{
    Value v = Value::object();
    v.set("mac_j", t.macJ);
    v.set("vec_op_j", t.vecOpJ);
    v.set("glb_j_per_byte", t.glbJPerByte);
    v.set("buf_j_per_byte", t.bufJPerByte);
    v.set("noc_hop_j_per_byte", t.nocHopJPerByte);
    v.set("d2d_j_per_byte", t.d2dJPerByte);
    v.set("dram_j_per_byte", t.dramJPerByte);
    v.set("nop_serialization_j_per_byte", t.nopSerializationJPerByte);
    v.set("lanes_c", t.lanesC);
    v.set("vec_lane_divisor", t.vecLaneDivisor);
    v.set("glb_bytes_per_cycle_per_mac", t.glbBytesPerCyclePerMac);
    v.set("wbuf_bytes_per_mac", t.wbufBytesPerMac);
    v.set("ibuf_bytes_per_mac", t.ibufBytesPerMac);
    v.set("abuf_bytes_per_mac", t.abufBytesPerMac);
    return v;
}

Value
costToJson(const cost::CostParams &c)
{
    Value v = Value::object();
    v.set("silicon_dollar_per_mm2", c.siliconDollarPerMm2);
    v.set("yield_unit", c.yieldUnit);
    v.set("unit_area_mm2", c.unitAreaMm2);
    v.set("mac_area_mm2", c.macAreaMm2);
    v.set("glb_area_mm2_per_mib", c.glbAreaMm2PerMiB);
    v.set("core_fixed_area_mm2", c.coreFixedAreaMm2);
    v.set("d2d_area_base_mm2", c.d2dAreaBaseMm2);
    v.set("d2d_area_per_gbps", c.d2dAreaPerGBps);
    v.set("io_chiplet_fixed_mm2", c.ioChipletFixedMm2);
    v.set("io_phy_area_per_gbps", c.ioPhyAreaPerGBps);
    v.set("dram_unit_bw_gbps", c.dramUnitBwGBps);
    v.set("dram_die_price", c.dramDiePrice);
    v.set("substrate_scale", c.substrateScale);
    v.set("package_yield_per_die", c.packageYieldPerDie);
    v.set("monolithic_substrate_dollar_per_mm2",
          c.monolithicSubstrateDollarPerMm2);
    Value tiers = Value::array();
    for (const cost::SubstrateTier &tier : c.chipletSubstrateTiers) {
        Value tv = Value::object();
        tv.set("max_area_mm2", tier.maxAreaMm2);
        tv.set("dollar_per_mm2", tier.dollarPerMm2);
        tiers.push(std::move(tv));
    }
    v.set("chiplet_substrate_tiers", std::move(tiers));
    return v;
}

} // namespace

std::optional<ExperimentSpec>
ExperimentSpec::fromJson(const Value &v, std::string *error)
{
    if (error)
        error->clear();
    ExperimentSpec spec;
    ObjectReader r(v, "spec", error);
    if (!r.ok())
        return std::nullopt;

    // The version gate comes first: a newer schema must be rejected with
    // a clear message, not misread through this build's key set.
    r.getInt("schema_version", spec.schemaVersion);
    if (!r.ok())
        return std::nullopt;
    if (spec.schemaVersion != kSchemaVersion) {
        if (error && error->empty())
            *error = "spec.schema_version: version " +
                     std::to_string(spec.schemaVersion) +
                     " is not supported (this build speaks version " +
                     std::to_string(kSchemaVersion) + ")";
        return std::nullopt;
    }

    r.getString("name", spec.name);
    std::string mode = "dse";
    r.getString("mode", mode);
    if (!r.ok())
        return std::nullopt;
    if (mode == "map") {
        spec.mode = Mode::Map;
    } else if (mode == "dse") {
        spec.mode = Mode::Dse;
    } else {
        if (error && error->empty())
            *error = "spec.mode: unknown mode \"" + mode +
                     "\" (valid: map, dse)";
        return std::nullopt;
    }

    if (const Value *models = r.child("models")) {
        if (!readModels(*models, "spec.models", spec, error))
            return std::nullopt;
    }
    if (const Value *archv = r.child("arch")) {
        if (!readArch(*archv, "spec.arch", spec, error))
            return std::nullopt;
    }
    if (const Value *axes = r.child("axes")) {
        if (!readAxes(*axes, "spec.axes", spec.axes, error))
            return std::nullopt;
    }
    if (const Value *schedule = r.child("schedule")) {
        if (!readSchedule(*schedule, "spec.schedule", spec.schedule, error))
            return std::nullopt;
    }
    if (const Value *objective = r.child("objective")) {
        if (!readObjective(*objective, "spec.objective", spec, error))
            return std::nullopt;
    }
    if (const Value *mapping = r.child("mapping")) {
        if (!readMapping(*mapping, "spec.mapping", spec.mapping, error))
            return std::nullopt;
    }
    if (const Value *tech = r.child("tech")) {
        if (!readTech(*tech, "spec.tech", spec.mapping.tech, error))
            return std::nullopt;
    }
    if (const Value *costv = r.child("cost")) {
        if (!readCost(*costv, "spec.cost", spec.costParams, error))
            return std::nullopt;
    }
    if (const Value *execution = r.child("execution")) {
        if (!readExecution(*execution, "spec.execution", spec.execution,
                           error))
            return std::nullopt;
    }
    r.getInt("max_candidates", spec.maxCandidates);
    r.getInt("threads", spec.threads);
    r.getDouble("deadline_seconds", spec.deadlineSeconds);
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
    Value v = Value::object();
    v.set("schema_version", schemaVersion);
    v.set("name", name);
    v.set("mode", mode == Mode::Map ? "map" : "dse");
    v.set("models", modelsToJson(*this));
    if (mode == Mode::Map) {
        v.set("arch", archToJson(arch));
    } else {
        v.set("axes", axesToJson(axes));
        v.set("schedule", scheduleToJson(schedule));
        v.set("max_candidates", static_cast<std::uint64_t>(maxCandidates));
    }
    v.set("objective", objectiveToJson(*this));
    v.set("mapping", mappingToJson(mapping));
    v.set("tech", techToJson(mapping.tech));
    v.set("cost", costToJson(costParams));
    v.set("threads", threads);
    v.set("deadline_seconds", deadlineSeconds);
    v.set("execution", executionToJson(execution));
    return v;
}

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
        if (axes.topsTarget <= 0)
            complain("axes.tops_target: must be positive");
        const auto nonEmpty = [&](const auto &list, const char *key) {
            if (list.empty())
                complain(std::string("axes.") + key +
                         ": at least one value is required");
        };
        nonEmpty(axes.xCuts, "x_cuts");
        nonEmpty(axes.yCuts, "y_cuts");
        nonEmpty(axes.dramGBpsPerTops, "dram_gbps_per_tops");
        nonEmpty(axes.nocGBps, "noc_gbps");
        nonEmpty(axes.d2dRatio, "d2d_ratio");
        nonEmpty(axes.glbKiB, "glb_kib");
        nonEmpty(axes.macsPerCore, "macs_per_core");
        nonEmpty(axes.topologies, "topologies");
        if (schedule.rungs < 0)
            complain("schedule.rungs: must be >= 0");
        if (schedule.keepFraction < 0.0 || schedule.keepFraction > 1.0)
            complain("schedule.keep_fraction: must be within [0, 1]");
        if (schedule.baseIters < 1)
            complain("schedule.base_iters: must be >= 1");
        if (schedule.polishChains < 1)
            complain("schedule.polish_chains: must be >= 1");
    }

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
