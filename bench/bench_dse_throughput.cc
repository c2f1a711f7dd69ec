/**
 * @file
 * DSE outer-loop throughput: exhaustive full-budget exploration versus the
 * multi-fidelity scheduler (screen -> race -> polish) on the paper's
 * 72 TOPs Table-I axes. Reports wall-clock, summed candidate-evaluation
 * CPU-seconds, SA iterations spent and the winning objective of both
 * drivers, prints the scheduler's per-rung ledger, and emits
 * BENCH_dse_throughput.json for CI trend tracking. The scheduler runs
 * five times and reports its median-CPU run. The scheduler's target
 * is >= 3x lower CPU time at an equal-or-better final objective.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "src/common/artifacts.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/dse.hh"
#include "src/dse/records.hh"

using namespace gemini;

namespace {

struct RunOutcome
{
    dse::DseResult result;
    double wallSeconds = 0.0;
};

RunOutcome
runOnce(const dse::DseOptions &options)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunOutcome out;
    out.result = dse::runDse(options);
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return out;
}

long
saItersTotal(const dse::DseResult &r)
{
    long total = 0;
    for (const auto &rec : r.records)
        total += rec.saIters;
    return total;
}

/**
 * Fraction of candidates pruned by the analytical bound at the screen,
 * per distinct value of one sweep axis (selected by `key`). Returned as
 * ordered (value, pruned, total) rows.
 */
struct PruneRow
{
    std::string value;
    int pruned = 0;
    int total = 0;
};

template <typename KeyFn>
std::vector<PruneRow>
pruneByAxis(const dse::DseResult &r, KeyFn key)
{
    std::map<std::string, std::pair<int, int>> acc;
    for (const auto &rec : r.records) {
        auto &slot = acc[key(rec)];
        slot.second += 1;
        if (rec.prunedByBound)
            slot.first += 1;
    }
    std::vector<PruneRow> rows;
    for (const auto &[value, counts] : acc)
        rows.push_back({value, counts.first, counts.second});
    return rows;
}

void
printPruneJson(FILE *json, const char *name,
               const std::vector<PruneRow> &rows, const char *tail)
{
    std::fprintf(json, "    \"%s\": {", name);
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::fprintf(json, "%s\"%s\": %.4f", i ? ", " : "",
                     rows[i].value.c_str(),
                     rows[i].total > 0
                         ? static_cast<double>(rows[i].pruned) /
                               rows[i].total
                         : 0.0);
    std::fprintf(json, "}%s\n", tail);
}

/** CPUs this process may run on (a taskset narrows it below online). */
int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_dir = common::artifactDir(argc, argv);
    benchutil::printHeader(
        "DSE throughput — exhaustive vs multi-fidelity scheduler",
        "Sec. V-A outer loop (flat 80-100-thread fan-out) + successive "
        "halving");

    dnn::Graph model =
        benchutil::effortLevel() == 0
            ? dnn::zoo::tinyTransformer(32, 64, 4, 1)
            : (benchutil::effortLevel() >= 2
                   ? dnn::zoo::transformerBase()
                   : dnn::zoo::tinyTransformer(64, 128, 4, 1));

    dse::DseOptions options;
    options.axes = dse::DseAxes::paper72();
    options.models = {&model};
    options.mapping.batch = benchutil::effortLevel() == 0 ? 8 : 64;
    options.mapping.maxGroupLayers = benchutil::scaled(4, 6, 12);
    options.mapping.sa.iterations = benchutil::scaled(768, 2048, 8000);
    options.maxCandidates =
        static_cast<std::size_t>(benchutil::scaled(24, 96, 384));

    // Exhaustive: every candidate gets the full SA budget (the paper's
    // driver). Serial chains per candidate; cpu_seconds sums each task's
    // thread CPU, so it reads ~= wall * busy CPUs.
    dse::DseOptions exhaustive = options;
    exhaustive.schedule.enabled = false;
    const RunOutcome flat = runOnce(exhaustive);

    // Scheduled: identical final (polish) budget, but only for finalists.
    // Analytic screening & seeding on top: the closed-form lower bound
    // prunes at the screen, SA starts from the analytical seed, and
    // plateaued chains stop early instead of burning their full budget.
    dse::DseOptions scheduled = options;
    scheduled.schedule.enabled = true;
    scheduled.schedule.rungs = 3;
    scheduled.schedule.keepFraction = 0.4;
    scheduled.schedule.baseIters =
        std::max(16, options.mapping.sa.iterations / 16);
    scheduled.schedule.minKeep = 3;
    scheduled.mapping.analyticSeed = true;
    // Plateau-aware termination lets the polish rung carry a 2x nominal
    // budget: chains that stall stop after the window, chains that keep
    // improving may run past the old fixed budget. Net executed
    // iterations stay far below the exhaustive driver's.
    scheduled.mapping.sa.plateauWindow =
        std::max(256, 3 * options.mapping.sa.iterations / 4);
    // The scheduled run is deterministic but short (under a second of
    // thread CPU), so one run's CPU time spreads with the host. Repeat it
    // and report the median-CPU run; every repetition must pick the same
    // winner with the same SA budget.
    constexpr std::size_t kScheduledRuns = 5;
    std::vector<RunOutcome> reps;
    for (std::size_t i = 0; i < kScheduledRuns; ++i)
        reps.push_back(runOnce(scheduled));
    for (const RunOutcome &r : reps) {
        if (r.result.bestIndex != reps[0].result.bestIndex ||
            (r.result.bestIndex >= 0 &&
             r.result.best().objective !=
                 reps[0].result.best().objective) ||
            saItersTotal(r.result) != saItersTotal(reps[0].result)) {
            std::fprintf(stderr, "FAIL: scheduled repetitions disagree\n");
            return 1;
        }
    }
    std::vector<double> rep_walls;
    for (const RunOutcome &r : reps)
        rep_walls.push_back(r.wallSeconds);
    std::sort(rep_walls.begin(), rep_walls.end());
    std::sort(reps.begin(), reps.end(),
              [](const RunOutcome &a, const RunOutcome &b) {
                  return a.result.stats.cpuSeconds() <
                         b.result.stats.cpuSeconds();
              });
    const RunOutcome &multi = reps[kScheduledRuns / 2];
    const double multi_wall = rep_walls[kScheduledRuns / 2];

    const double flat_obj = flat.result.bestIndex >= 0
                                ? flat.result.best().objective
                                : 0.0;
    const double multi_obj = multi.result.bestIndex >= 0
                                 ? multi.result.best().objective
                                 : 0.0;
    const double flat_cpu = flat.result.stats.cpuSeconds();
    const double multi_cpu = multi.result.stats.cpuSeconds();
    const double cpu_speedup = multi_cpu > 0.0 ? flat_cpu / multi_cpu : 0.0;
    const double wall_speedup =
        multi_wall > 0.0 ? flat.wallSeconds / multi_wall : 0.0;
    const double obj_ratio = flat_obj > 0.0 ? multi_obj / flat_obj : 0.0;

    benchutil::ConsoleTable t({"driver", "candidates", "sa_iters",
                               "cpu_s", "wall_s", "best objective"});
    t.addRow("exhaustive", static_cast<int>(flat.result.records.size()),
             static_cast<double>(saItersTotal(flat.result)), flat_cpu,
             flat.wallSeconds, flat_obj);
    t.addRow("scheduled", static_cast<int>(multi.result.records.size()),
             static_cast<double>(saItersTotal(multi.result)), multi_cpu,
             multi_wall, multi_obj);
    t.print();

    std::printf("scheduled: median of %zu runs; cpu_s per run:",
                kScheduledRuns);
    for (const RunOutcome &r : reps)
        std::printf(" %.3f", r.result.stats.cpuSeconds());
    std::printf("\nscheduler rung ledger (median run):\n");
    benchutil::ConsoleTable rt({"rung", "in", "out", "pruned bound",
                                "pruned rank", "sa_iters", "cpu_s",
                                "best objective"});
    for (const auto &rs : multi.result.stats.rungs)
        rt.addRow(rs.name, rs.entered, rs.advanced, rs.prunedBound,
                  rs.prunedRank, rs.saIters, rs.cpuSeconds,
                  rs.bestObjective);
    rt.print();

    const long flat_iters = saItersTotal(flat.result);
    const long multi_iters = saItersTotal(multi.result);
    const double sa_iters_speedup =
        multi_iters > 0 ? static_cast<double>(flat_iters) / multi_iters
                        : 0.0;
    int screen_pruned = 0;
    for (const auto &rec : multi.result.records)
        if (rec.prunedByBound)
            ++screen_pruned;
    const double screen_prune_fraction =
        multi.result.records.empty()
            ? 0.0
            : static_cast<double>(screen_pruned) /
                  multi.result.records.size();

    std::printf("cpu speedup %.2fx, wall speedup %.2fx, sa-iters speedup "
                "%.2fx, objective ratio %.4f (<= 1 means scheduled is "
                "equal or better)\n",
                cpu_speedup, wall_speedup, sa_iters_speedup, obj_ratio);
    std::printf("screen prune: %d/%zu candidates (%.1f%%) cut by the "
                "analytical bound\n",
                screen_pruned, multi.result.records.size(),
                100.0 * screen_prune_fraction);
    std::printf("targets: cpu speedup >= 3x %s, objective ratio <= 1 %s\n",
                cpu_speedup >= 3.0 ? "PASS" : "FAIL",
                obj_ratio <= 1.0 + 1e-9 ? "PASS" : "FAIL");

    multi.result.writeCsv(
        common::artifactPath(out_dir, "dse_scheduled_records.csv"),
        common::artifactPath(out_dir, "dse_scheduled_rungs.csv"));

    FILE *json = std::fopen(
        common::artifactPath(out_dir, "BENCH_dse_throughput.json").c_str(),
        "w");
    if (json) {
        std::fprintf(json, "{\n");
        // Host context, not gated: both drivers run one pool worker per
        // online CPU, and a taskset shares those workers among fewer CPUs.
        std::fprintf(json,
                     "  \"context\": {\"num_cpus\": %u, "
                     "\"affinity_cpus\": %d, \"build_type\": \"%s\"},\n",
                     std::thread::hardware_concurrency(), affinityCpus(),
                     GEMINI_BUILD_TYPE);
        std::fprintf(json, "  \"axes\": \"paper72\",\n");
        std::fprintf(json, "  \"model\": \"%s\",\n", model.name().c_str());
        std::fprintf(json, "  \"candidates\": %zu,\n",
                     flat.result.records.size());
        std::fprintf(json, "  \"sa_iterations_full\": %d,\n",
                     options.mapping.sa.iterations);
        std::fprintf(json,
                     "  \"exhaustive\": {\"cpu_seconds\": %.6f, "
                     "\"wall_seconds\": %.6f, \"sa_iters\": %ld, "
                     "\"best_objective\": %.10g, \"best_arch\": \"%s\"},\n",
                     flat_cpu, flat.wallSeconds, saItersTotal(flat.result),
                     flat_obj,
                     flat.result.bestIndex >= 0
                         ? flat.result.best().arch.toString().c_str()
                         : "none");
        std::fprintf(json,
                     "  \"scheduled\": {\"cpu_seconds\": %.6f, "
                     "\"wall_seconds\": %.6f, \"sa_iters\": %ld, "
                     "\"best_objective\": %.10g, \"best_arch\": \"%s\",\n",
                     multi_cpu, multi_wall,
                     saItersTotal(multi.result), multi_obj,
                     multi.result.bestIndex >= 0
                         ? multi.result.best().arch.toString().c_str()
                         : "none");
        std::fprintf(json, "    \"runs\": %zu, \"run_cpu_seconds\": [",
                     kScheduledRuns);
        for (std::size_t i = 0; i < reps.size(); ++i)
            std::fprintf(json, "%s%.6f", i ? ", " : "",
                         reps[i].result.stats.cpuSeconds());
        std::fprintf(json, "],\n");
        std::fprintf(json, "    \"rungs\": [\n");
        const auto &rungs = multi.result.stats.rungs;
        for (std::size_t i = 0; i < rungs.size(); ++i) {
            const auto &rs = rungs[i];
            std::fprintf(json,
                         "      {\"name\": \"%s\", \"entered\": %d, "
                         "\"advanced\": %d, \"pruned_bound\": %d, "
                         "\"pruned_rank\": %d, \"sa_iters\": %d, "
                         "\"cpu_seconds\": %.6f}%s\n",
                         rs.name.c_str(), rs.entered, rs.advanced,
                         rs.prunedBound, rs.prunedRank, rs.saIters,
                         rs.cpuSeconds,
                         i + 1 < rungs.size() ? "," : "");
        }
        std::fprintf(json, "    ]\n  },\n");
        std::fprintf(json, "  \"screen_prune\": {\n");
        std::fprintf(json, "    \"pruned\": %d,\n", screen_pruned);
        std::fprintf(json, "    \"total\": %zu,\n",
                     multi.result.records.size());
        std::fprintf(json, "    \"fraction\": %.4f,\n",
                     screen_prune_fraction);
        printPruneJson(json, "by_macs_per_core",
                       pruneByAxis(multi.result,
                                   [](const dse::DseRecord &rec) {
                                       return std::to_string(
                                           rec.arch.macsPerCore);
                                   }),
                       ",");
        printPruneJson(json, "by_glb_kib",
                       pruneByAxis(multi.result,
                                   [](const dse::DseRecord &rec) {
                                       return std::to_string(
                                           rec.arch.glbKiB);
                                   }),
                       ",");
        printPruneJson(json, "by_topology",
                       pruneByAxis(multi.result,
                                   [](const dse::DseRecord &rec) {
                                       return std::string(
                                           arch::topologyName(
                                               rec.arch.topology));
                                   }),
                       "");
        std::fprintf(json, "  },\n");
        std::fprintf(json, "  \"cpu_speedup\": %.4f,\n", cpu_speedup);
        std::fprintf(json, "  \"wall_speedup\": %.4f,\n", wall_speedup);
        std::fprintf(json, "  \"sa_iters_speedup\": %.4f,\n",
                     sa_iters_speedup);
        std::fprintf(json, "  \"objective_ratio\": %.6f\n", obj_ratio);
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("metrics -> BENCH_dse_throughput.json\n");
    }
    return 0;
}
