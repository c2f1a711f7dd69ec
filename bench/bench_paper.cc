/**
 * @file
 * The paper's checkable numbers from one program: Fig. 5's headline
 * ratios and energy split, the Sec. VI-B2 folded-torus check, the Fig. 6-9
 * DSE, reuse and heatmap studies, Table I's candidate counts, the Sec. IV-B
 * space sizes and the SA operator ablation. Each number is one row of
 * BENCH_paper.json, with the paper's value beside it where the paper
 * states one. The run is deterministic, so scripts/bench_compare.py holds
 * every row to the committed baseline (effort 1). DESIGN.md "Paper
 * numbers" lists which rows reproduce the paper and which do not.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "src/arch/presets.hh"
#include "src/common/artifacts.hh"
#include "src/cost/mc_evaluator.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/candidates.hh"
#include "src/dse/dse.hh"
#include "src/dse/joint_reuse.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/space.hh"
#include "src/mapping/stripe.hh"

using namespace gemini;
using benchutil::effortLevel;
using benchutil::scaled;

namespace {

/** One checkable number; `value` and `paper` are JSON text. */
struct Row
{
    std::string name;
    const char *kind; ///< "real", "count" or "bool"
    std::string value;
    std::string paper; ///< "null" where the paper states no value
};

std::vector<Row> rows;

/** Reals are written at 4 significant digits; the gate compares them so. */
std::string
realText(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

void
real(const std::string &name, double v, std::optional<double> paper = {})
{
    rows.push_back({name, "real", realText(v),
                    paper ? realText(*paper) : "null"});
}

void
count(const std::string &name, long v)
{
    rows.push_back({name, "count", std::to_string(v), "null"});
}

void
flag(const std::string &name, bool v, std::optional<bool> paper = {})
{
    rows.push_back({name, "bool", v ? "true" : "false",
                    paper ? (*paper ? "true" : "false") : "null"});
}

mapping::MappingOptions
mappingOptions(std::int64_t batch, bool run_sa)
{
    mapping::MappingOptions o;
    o.batch = batch;
    o.runSa = run_sa;
    o.sa.iterations = scaled(300, 4000, 20000);
    o.sa.tStart = 0.1;
    o.maxGroupLayers = scaled(6, 10, 12);
    return o;
}

using Workloads = std::vector<std::pair<std::string, dnn::Graph>>;

/**
 * The Fig. 5 workloads: effort 0 uses the tiny zoo, 1+ the five paper
 * DNNs with PNASNet scaled (DESIGN.md "Scaled PNASNet"); effort 2 adds a
 * GPT-2-medium-class stress DNN that is not in the paper's suite.
 */
Workloads
paperWorkloads()
{
    Workloads out;
    if (effortLevel() == 0) {
        out.emplace_back("tiny-res", dnn::zoo::tinyResidual());
        out.emplace_back("tiny-tf", dnn::zoo::tinyTransformer(32, 64, 4, 1));
        return out;
    }
    out.emplace_back("RN-50", dnn::zoo::resnet50());
    out.emplace_back("RNX", dnn::zoo::resnext50());
    out.emplace_back("IRes", dnn::zoo::inceptionResnetV1());
    out.emplace_back("PNas", dnn::zoo::pnasnet(effortLevel() >= 2 ? 3 : 1));
    out.emplace_back("TF", dnn::zoo::transformerBase());
    if (effortLevel() >= 2)
        out.emplace_back("GPT2-M", dnn::zoo::gpt2Medium());
    return out;
}

eval::EvalBreakdown
mapTotal(const dnn::Graph &graph, const arch::ArchConfig &arch,
         std::int64_t batch, bool run_sa)
{
    mapping::MappingEngine engine(graph, arch, mappingOptions(batch, run_sa));
    return engine.run().total;
}

/**
 * Fig. 5 / Sec. VI-B1: G-Arch+G-Map against S-Arch+T-Map, geomean over
 * every DNN x batch point, plus each scheme's energy summed over the
 * points by component (DESIGN.md "Paper numbers" reads the gap from it).
 * The G-Arch is the paper's published design (arch::gArch72()); no DSE
 * runs here.
 */
void
fig5(const Workloads &workloads)
{
    const std::vector<std::int64_t> batches =
        effortLevel() == 0 ? std::vector<std::int64_t>{4}
                           : std::vector<std::int64_t>{64, 1};
    double log_perf = 0.0, log_eff = 0.0;
    int points = 0;
    std::map<std::string, double> energy;
    auto add_energy = [&](const std::string &scheme,
                          const eval::EvalBreakdown &t) {
        energy[scheme + ".intra"] += t.intraTileEnergy;
        energy[scheme + ".noc"] += t.nocEnergy;
        energy[scheme + ".d2d"] += t.d2dEnergy;
        energy[scheme + ".dram"] += t.dramEnergy;
    };
    for (const auto &[name, graph] : workloads) {
        for (std::int64_t batch : batches) {
            const auto s = mapTotal(graph, arch::simbaArch(), batch, false);
            const auto g = mapTotal(graph, arch::gArch72(), batch, true);
            log_perf += std::log(s.delay / g.delay);
            log_eff += std::log(s.totalEnergy() / g.totalEnergy());
            ++points;
            add_energy("s_arch_tmap", s);
            add_energy("published_g_arch_gmap", g);
        }
    }
    cost::McEvaluator mc;
    real("fig5.perf_x", std::exp(log_perf / points), 1.98);
    real("fig5.energy_eff_x", std::exp(log_eff / points), 1.41);
    real("fig5.mc_delta_pct",
         (mc.evaluate(arch::gArch72()).total() /
              mc.evaluate(arch::simbaArch()).total() -
          1.0) * 100.0,
         14.3);
    for (const auto &[key, joules] : energy)
        real("fig5.energy_j." + key, joules);
}

/**
 * Sec. VI-B2: the folded-torus G-Arch+G-Map against the monolithic
 * 120-core Grayskull-parameter T-Arch with T-Map. Effort 1 keeps the two
 * structurally extreme DNNs (residual CNN, attention), since the 120-core
 * T-Arch makes the DP pre-pass expensive. MC is estimated twice; DESIGN.md
 * "Modeling notes" explains the re-costing to Grayskull's published die.
 */
void
torus(const Workloads &workloads)
{
    std::vector<const Workloads::value_type *> picked;
    for (const auto &w : workloads)
        picked.push_back(&w);
    if (effortLevel() == 1)
        picked = {&workloads.front(), &workloads.back()};

    const std::int64_t batch = effortLevel() == 0 ? 4 : 64;
    const arch::ArchConfig t_arch = arch::tArchGrayskull();
    const arch::ArchConfig g_arch = arch::gArchTorus();
    double log_perf = 0.0, log_eff = 0.0;
    for (const auto *w : picked) {
        const auto t = mapTotal(w->second, t_arch, batch, false);
        const auto g = mapTotal(w->second, g_arch, batch, true);
        log_perf += std::log(t.delay / g.delay);
        log_eff += std::log(t.totalEnergy() / g.totalEnergy());
    }
    const double n = static_cast<double>(picked.size());
    real("torus.perf_x", std::exp(log_perf / n), 1.74);
    real("torus.energy_eff_x", std::exp(log_eff / n), 1.13);

    cost::McEvaluator mc;
    const double g_mc = mc.evaluate(g_arch).total();
    cost::CostParams grayskull = mc.params();
    grayskull.coreFixedAreaMm2 +=
        620.0 / t_arch.coreCount() -
        mc.coreAreaMm2(t_arch.macsPerCore, t_arch.glbKiB);
    real("torus.mc_delta_pct.template_area",
         (g_mc / mc.evaluate(t_arch).total() - 1.0) * 100.0, -40.1);
    real("torus.mc_delta_pct.grayskull_die",
         (g_mc / cost::McEvaluator(grayskull).evaluate(t_arch).total() -
          1.0) * 100.0,
         -40.1);
}

/** The small axis set that stands in for a paper DSE at effort 0. */
dse::DseAxes
smokeAxes(double tops)
{
    dse::DseAxes axes;
    axes.topsTarget = tops;
    axes.xCuts = {1, 2};
    axes.yCuts = {1};
    axes.dramGBpsPerTops = {2.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {256, 512};
    axes.macsPerCore = {256};
    return axes;
}

dnn::Graph
dseModel()
{
    return effortLevel() == 0 ? dnn::zoo::tinyTransformer(32, 64, 4, 1)
                              : dnn::zoo::transformerBase();
}

std::string
tag(double v)
{
    return std::to_string(static_cast<long>(v));
}

/**
 * Figs. 6 and 7 from one 128 TOPs DSE on Transformer at batch 64: the
 * median EDP (normalized to the MC*E*D winner) per chiplet count and per
 * core count; the core counts of the four objective winners; and the DRAM
 * bytes of the best candidate per core count, step by step, with the
 * paper's "DRAM access falls as cores grow" as a boolean.
 */
void
fig6And7()
{
    dnn::Graph model = dseModel();
    dse::DseOptions opt;
    if (effortLevel() == 0) {
        opt.axes = smokeAxes(1.0);
        opt.axes.yCuts = {1, 2};
        opt.axes.nocGBps = {16, 32};
        opt.axes.macsPerCore = {256, 512};
    } else {
        opt.axes = dse::DseAxes::paper128();
    }
    opt.models = {&model};
    opt.mapping = mappingOptions(effortLevel() == 0 ? 4 : 64, true);
    opt.mapping.sa.iterations = scaled(100, 800, 6000);
    opt.maxCandidates = static_cast<std::size_t>(scaled(24, 220, 0));
    const dse::DseResult result = dse::runDse(opt);

    const double edp0 = result.best().edp();
    std::map<int, std::vector<double>> by_chiplets, by_cores;
    std::map<int, const dse::DseRecord *> best_by_cores;
    for (const auto &rec : result.records) {
        if (!rec.feasible)
            continue;
        by_chiplets[rec.arch.chipletCount()].push_back(rec.edp() / edp0);
        by_cores[rec.arch.coreCount()].push_back(rec.edp() / edp0);
        auto &slot = best_by_cores[rec.arch.coreCount()];
        if (!slot || rec.objective < slot->objective)
            slot = &rec;
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    for (const auto &[chiplets, v] : by_chiplets)
        real("fig6.median_norm_edp.chiplets_" + std::to_string(chiplets),
             median(v));
    for (const auto &[cores, v] : by_cores)
        real("fig6.median_norm_edp.cores_" + std::to_string(cores),
             median(v));

    struct Objective
    {
        const char *name;
        double a, b, g;
    };
    for (const Objective &o : {Objective{"min_d", 0, 0, 1},
                               Objective{"min_e", 0, 1, 0},
                               Objective{"min_mc", 1, 0, 0},
                               Objective{"min_mced", 1, 1, 1}}) {
        const int idx = result.bestUnder(o.a, o.b, o.g);
        count(std::string("fig7.winner_cores.") + o.name,
              idx < 0 ? 0
                      : result.records[static_cast<std::size_t>(idx)]
                            .arch.coreCount());
    }

    // Paper: DRAM access falls 48% from 8 to 16 cores, ~19% from 16 to 32.
    const std::map<std::string, double> paper_steps = {{"8_to_16", 0.52},
                                                       {"16_to_32", 0.81}};
    bool falls = true;
    const dse::DseRecord *prev = nullptr;
    for (const auto &[cores, rec] : best_by_cores) {
        if (prev) {
            const double step =
                rec->perModel[0].dramBytes / prev->perModel[0].dramBytes;
            const std::string key =
                std::to_string(prev->arch.coreCount()) + "_to_" +
                std::to_string(cores);
            const auto paper = paper_steps.find(key);
            real("fig7.dram_step_x." + key, step,
                 paper == paper_steps.end()
                     ? std::nullopt
                     : std::optional<double>(paper->second));
            falls = falls && step < 1.0;
        }
        prev = rec;
    }
    flag("fig7.dram_falls_with_cores", falls, true);
}

/**
 * Fig. 8 / Sec. VII-B: (a) the chiplet count with the lowest MC when the
 * 72 TOPs G-Arch's 6x6 mesh is cut into 1..36 chiplets, at two D2D
 * bandwidths; (c) MC*E*D of the Joint Optimal chiplet and of Simba's
 * chiplet relative to each power target's own DSE optimum.
 */
void
fig8()
{
    cost::McEvaluator mc;
    for (double d2d : {16.0, 32.0}) {
        int best_chiplets = 0;
        double best_mc = 0.0;
        for (auto [xc, yc] : std::vector<std::pair<int, int>>{
                 {1, 1}, {2, 1}, {2, 2}, {3, 3}, {6, 3}, {6, 6}}) {
            arch::ArchConfig a = arch::gArch72();
            a.xCut = xc;
            a.yCut = yc;
            a.d2dBwGBps = d2d;
            const double total = mc.evaluate(a).total();
            if (best_chiplets == 0 || total < best_mc) {
                best_chiplets = a.chipletCount();
                best_mc = total;
            }
        }
        count("fig8.mc_min_chiplets.d2d_" + tag(d2d) + "gbps",
              best_chiplets);
    }

    const bool smoke = effortLevel() == 0;
    dnn::Graph model = dseModel();
    dse::DseOptions opt;
    opt.models = {&model};
    opt.mapping = mappingOptions(smoke ? 4 : 64, true);
    opt.mapping.sa.iterations = scaled(80, 300, 4000);
    // The 512 TOPs candidates have 256-core meshes; cap the DP effort so
    // the study stays laptop-scale at effort <= 1.
    opt.mapping.maxGroupLayers = scaled(4, 8, 12);
    if (effortLevel() < 2)
        opt.mapping.batchUnits = {1, 8};

    const std::vector<double> tops = {smoke ? 1.0 : 128.0,
                                      smoke ? 2.0 : 512.0};
    const std::vector<dse::DseAxes> axes =
        smoke ? std::vector<dse::DseAxes>{smokeAxes(1.0), smokeAxes(2.0)}
              : std::vector<dse::DseAxes>{dse::DseAxes::paper128(),
                                          dse::DseAxes::paper512()};
    const std::vector<int> per_target = {scaled(8, 36, 600),
                                         scaled(8, 24, 600)};
    dse::DseOptions joint_opt = opt;
    joint_opt.maxCandidates = static_cast<std::size_t>(scaled(6, 16, 400));
    const dse::JointCandidate joint =
        dse::runJointDse(axes[0], tops, joint_opt).front();

    auto med = [](const dse::DseRecord &r) {
        return r.mc.total() * r.energyGeo * r.delayGeo;
    };
    // Paper: Simba chiplets reach 8.4x the Optimal's MC*E*D at 512 TOPs,
    // and the Joint Optimal stays within ~34% of the Optimal.
    const std::vector<std::optional<double>> paper_simba = {std::nullopt,
                                                            8.4};
    for (std::size_t i = 0; i < tops.size(); ++i) {
        dse::DseOptions target = opt;
        target.axes = axes[i];
        target.maxCandidates = static_cast<std::size_t>(per_target[i]);
        const double optimal = med(dse::runDse(target).best());
        const dse::DseRecord simba = dse::evaluateCandidate(
            dse::scaleArchToTops(arch::simbaArch(), tops[i]), opt);
        const std::string at = "fig8.med_vs_optimal." + tag(tops[i]) + "tops";
        real(at + ".joint_optimal", med(joint.levels[i].record) / optimal,
             1.34);
        real(at + ".simba", med(simba) / optimal, paper_simba[i]);
    }
}

/** Hop-weighted link bytes: all links, and core-to-core D2D links. */
struct HopBytes
{
    double total = 0.0;
    double midD2d = 0.0;
};

/**
 * Whole-mapping traffic summed over groups (bytes per batch unit times
 * units). The paper's "-74% on the intermediate D2D links" counts the
 * core-to-core chiplet-boundary links; the IO-chiplet attach links carry
 * DRAM traffic set by the FD attributes, not by core placement.
 */
HopBytes
hopBytes(mapping::MappingEngine &engine, const mapping::MappingResult &r)
{
    noc::TrafficMap traffic;
    for (std::size_t g = 0; g < r.mapping.groups.size(); ++g) {
        const mapping::GroupAnalysis a = engine.analyzeGroup(r.mapping, g);
        traffic.addFrom(a.traffic, static_cast<double>(a.numUnits));
    }
    const noc::InterconnectModel &noc = engine.noc();
    HopBytes out;
    for (const auto &[key, bytes] : traffic.links()) {
        const noc::NodeId a = noc::linkFrom(key);
        const noc::NodeId b = noc::linkTo(key);
        out.total += bytes;
        if (noc.linkKind(a, b) == noc::LinkKind::D2D && !noc.isDramNode(a) &&
            !noc.isDramNode(b))
            out.midD2d += bytes;
    }
    return out;
}

/**
 * Fig. 9 / Sec. VII-C: the paper's 1-D stripe T-Map against the SA G-Map
 * on the 72 TOPs G-Arch, for a full-length (seq 512) Transformer block
 * whose QK -> softmax -> AV chain dwarfs the projection layers, as the
 * paper's heavy dependency chain does.
 */
void
fig9()
{
    const bool smoke = effortLevel() == 0;
    const dnn::Graph model = dnn::zoo::tinyTransformer(
        smoke ? 32 : 512, smoke ? 64 : 512, smoke ? 4 : 8, 1);
    const arch::ArchConfig garch = arch::gArch72();

    mapping::MappingEngine t_engine(model, garch,
                                    mappingOptions(smoke ? 4 : 64, false));
    mapping::LpMapping stripe = t_engine.run().mapping;
    for (auto &grp : stripe.groups)
        grp = mapping::naiveStripeMapping(model, garch, grp.layers,
                                          grp.batchUnit);
    const HopBytes t = hopBytes(t_engine, t_engine.evaluateMapping(stripe));

    mapping::MappingOptions g_opts = mappingOptions(smoke ? 4 : 64, true);
    g_opts.sa.iterations = scaled(500, 40000, 160000);
    mapping::MappingEngine g_engine(model, garch, g_opts);
    const HopBytes g = hopBytes(g_engine, g_engine.run());

    real("fig9.mid_d2d_change_pct", (g.midD2d / t.midD2d - 1.0) * 100.0,
         -74.0);
    real("fig9.total_hop_bytes_change_pct",
         (g.total / t.total - 1.0) * 100.0, -34.2);
}

/**
 * Table I's valid candidates after the XCut/YCut divisibility rule, and
 * Sec. IV-B's smallest margin (in orders of magnitude) of the LP SPM
 * space's lower bound over the Tangram heuristic's upper bound.
 */
void
spaces()
{
    count("table1.candidates.72tops",
          static_cast<long>(
              dse::enumerateCandidates(dse::DseAxes::paper72()).size()));
    count("table1.candidates.128tops",
          static_cast<long>(
              dse::enumerateCandidates(dse::DseAxes::paper128()).size()));
    count("table1.candidates.512tops",
          static_cast<long>(
              dse::enumerateCandidates(dse::DseAxes::paper512()).size()));

    double min_orders = 1e300;
    for (int m : {16, 36, 64, 120, 256})
        for (int n : {2, 4, 8, 12})
            min_orders = std::min(min_orders,
                                  mapping::log10SpaceSize(m, n) -
                                      mapping::log10TangramSpace(m, n));
    real("space.min_orders_of_magnitude", min_orders);
}

/**
 * Sec. V-B1 operator design: final E*D of the SA with operator classes
 * disabled, relative to all five, on Simba. Above 1 means the reduced
 * set found a worse scheme.
 */
void
ablation()
{
    const bool smoke = effortLevel() == 0;
    const dnn::Graph model = smoke ? dnn::zoo::tinyTransformer(32, 64, 4, 1)
                                   : dnn::zoo::tinyTransformer(256, 512, 8, 1);
    std::vector<std::pair<std::string, unsigned>> cases;
    for (int op = 0; op < mapping::kNumSaOperators; ++op)
        cases.emplace_back(std::string("without_") +
                               mapping::saOperatorName(
                                   static_cast<mapping::SaOperator>(op)),
                           0x1Fu & ~(1u << op));
    cases.emplace_back("op1_only", 0x01);
    cases.emplace_back("op2_op3_only", 0x06);

    auto cost = [&](unsigned mask) {
        mapping::MappingOptions o = mappingOptions(smoke ? 4 : 64, true);
        o.sa.iterations = scaled(300, 12000, 60000);
        o.sa.operatorMask = mask;
        mapping::MappingEngine engine(model, arch::simbaArch(), o);
        const eval::EvalBreakdown t = engine.run().total;
        return t.totalEnergy() * t.delay;
    };
    const double full = cost(0x1F);
    for (const auto &[name, mask] : cases)
        real("ablation.vs_full." + name, cost(mask) / full);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_dir = common::artifactDir(argc, argv);
    benchutil::printHeader("Paper numbers, one row each (BENCH_paper.json)",
                           "Figs. 5-9, Table I, Secs. IV-B, V-B1 and VI-B2");
    const Workloads workloads = paperWorkloads();
    fig5(workloads);
    torus(workloads);
    fig6And7();
    fig8();
    fig9();
    spaces();
    ablation();

    benchutil::ConsoleTable table({"row", "value", "paper"});
    for (const Row &r : rows)
        table.addRow(r.name, r.value, r.paper == "null" ? "" : r.paper);
    table.print();

    const std::string path =
        common::artifactPath(out_dir, "BENCH_paper.json");
    FILE *json = std::fopen(path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"effort\": %d,\n  \"rows\": [\n",
                 effortLevel());
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::fprintf(json,
                     "    {\"name\": \"%s\", \"kind\": \"%s\", "
                     "\"value\": %s, \"paper\": %s}%s\n",
                     rows[i].name.c_str(), rows[i].kind,
                     rows[i].value.c_str(), rows[i].paper.c_str(),
                     i + 1 < rows.size() ? "," : "");
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nrows -> %s\n", path.c_str());
    return 0;
}
