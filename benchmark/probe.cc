/**
 * @file
 * Outside-in layer replay for the end-to-end benchmark (benchmark/run.py).
 *
 * A benchmark run drives the `gemini` binary the way users do and keeps
 * what went in (spec files, captured HTTP request bytes) and what came out
 * (result documents). The probe then re-issues, through public functions
 * only, the calls each layer makes for that work — spec parsing, model
 * resolution, the DSE rungs candidate by candidate, the mapping engine,
 * the partitioner and SA, the result store and the HTTP parser — and wraps
 * every call in a span. It composes the public calls the dse layer
 * composes (rung budgets and seeds as DseSchedule documents them, the
 * shared intra-core memo) and copies no engine internals, so a change that
 * keeps results bit-identical keeps the replay valid. The replay must
 * reproduce every returned record bit-for-bit; each mismatch is reported
 * and fails the traced run.
 *
 *   gemini_probe simd                 print the active kernel variant
 *   gemini_probe replay MANIFEST OUT  replay the jobs MANIFEST lists,
 *                                     write spans + counters to OUT
 *
 * MANIFEST is JSON: {"workload", "threads", "scratch", "jobs": [{"job",
 * "spec", "result"}], "requests"} where "requests" (may be empty) names a
 * JSON array of raw HTTP request texts. Spans are {id, parent, name, job,
 * item, thread, t0_ns, t1_ns, cpu_ns}: wall times from CLOCK_MONOTONIC and
 * thread CPU from CLOCK_THREAD_CPUTIME_ID. They are kept in memory per
 * thread and written once at the end.
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/service.hh"
#include "src/api/spec.hh"
#include "src/api/store.hh"
#include "src/common/json.hh"
#include "src/common/simd.hh"
#include "src/cost/cost_stack.hh"
#include "src/dse/dse.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/graph_partition.hh"
#include "src/mapping/sa.hh"
#include "src/net/http.hh"
#include "src/noc/interconnect.hh"

using namespace gemini;
using common::json::Value;

namespace {

// ---- Tracing ---------------------------------------------------------------

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    int job = 0;
    long item = -1;
    int thread = 0;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::int64_t cpu = 0;
};

/** Work counted where it happens; summed over threads at the end. */
struct Counters
{
    std::uint64_t explorerHits = 0;
    std::uint64_t explorerMisses = 0;
    std::uint64_t boundCalls = 0;
    std::int64_t saIters = 0;
    std::size_t groupLayersMax = 0;
    std::uint64_t evalHits = 0, evalMisses = 0;
    std::uint64_t flowHits = 0, flowMisses = 0;
    std::uint64_t tileHits = 0, tileMisses = 0;
    std::uint64_t deltaApplies = 0;

    void
    add(const Counters &o)
    {
        explorerHits += o.explorerHits;
        explorerMisses += o.explorerMisses;
        boundCalls += o.boundCalls;
        saIters += o.saIters;
        groupLayersMax = std::max(groupLayersMax, o.groupLayersMax);
        evalHits += o.evalHits;
        evalMisses += o.evalMisses;
        flowHits += o.flowHits;
        flowMisses += o.flowMisses;
        tileHits += o.tileHits;
        tileMisses += o.tileMisses;
        deltaApplies += o.deltaApplies;
    }

    void
    countExplorer(const intracore::Explorer &e)
    {
        explorerHits += e.cacheHits();
        explorerMisses += e.cacheMisses();
    }

    void
    countGroups(const mapping::LpMapping &m)
    {
        for (const mapping::LayerGroupMapping &g : m.groups)
            groupLayersMax = std::max(groupLayersMax, g.layers.size());
    }
};

/**
 * Per-thread span and counter buffers. Slot 0 is the main thread; a
 * parallel loop's workers use slots 1..threads. Loops run one after
 * another, so a slot never has two writers at once.
 */
struct ThreadBuffer
{
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open; ///< ids of enclosing spans
    Counters counters;
};

std::vector<ThreadBuffer> g_buffers;
std::atomic<std::uint64_t> g_nextId{1};
thread_local int t_slot = 0;

ThreadBuffer &
buffer()
{
    return g_buffers[static_cast<std::size_t>(t_slot)];
}

Counters &
counters()
{
    return buffer().counters;
}

/** RAII span: the enclosing open span on this thread is its parent. */
class Span
{
  public:
    Span(std::string name, int job, long item = -1)
    {
        ThreadBuffer &b = buffer();
        rec_.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
        rec_.parent = b.open.empty() ? 0 : b.open.back();
        rec_.name = std::move(name);
        rec_.job = job;
        rec_.item = item;
        rec_.thread = t_slot;
        b.open.push_back(rec_.id);
        rec_.cpu = clockNs(CLOCK_THREAD_CPUTIME_ID);
        rec_.t0 = clockNs(CLOCK_MONOTONIC);
    }

    ~Span()
    {
        rec_.t1 = clockNs(CLOCK_MONOTONIC);
        rec_.cpu = clockNs(CLOCK_THREAD_CPUTIME_ID) - rec_.cpu;
        ThreadBuffer &b = buffer();
        b.open.pop_back();
        b.spans.push_back(std::move(rec_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }

  private:
    SpanRecord rec_;
};

/**
 * Run fn(k) for k in [0, n) on `threads` workers pulling from a shared
 * cursor; spans opened inside are children of `parent`. The first
 * exception is rethrown after every worker has joined.
 */
template <typename Fn>
void
parallelFor(int threads, std::size_t n, std::uint64_t parent, Fn fn)
{
    std::atomic<std::size_t> cursor{0};
    std::mutex mu;
    std::exception_ptr error;
    std::vector<std::thread> workers;
    const auto joinAll = [&] {
        for (std::thread &w : workers)
            w.join();
    };
    try {
        for (int slot = 1; slot <= threads; ++slot) {
            workers.emplace_back([&, slot] {
                t_slot = slot;
                buffer().open.assign(1, parent);
                for (;;) {
                    const std::size_t k = cursor.fetch_add(1);
                    if (k >= n)
                        break;
                    try {
                        fn(k);
                    } catch (...) {
                        std::lock_guard lock(mu);
                        if (!error)
                            error = std::current_exception();
                        cursor.store(n);
                    }
                }
                buffer().open.clear();
            });
        }
    } catch (...) {
        cursor.store(n); // a thread failed to start: stop and join the rest
        joinAll();
        throw;
    }
    joinAll();
    if (error)
        std::rethrow_exception(error);
}

// ---- Checks ----------------------------------------------------------------

/** Mismatches between the replay and the program's returned results. */
struct Checks
{
    std::mutex mu;
    std::size_t compared = 0;
    std::vector<std::string> mismatches;

    void
    countCompared()
    {
        std::lock_guard lock(mu);
        ++compared;
    }

    void
    fail(std::string what)
    {
        std::lock_guard lock(mu);
        mismatches.push_back(std::move(what));
    }
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Compare every field of a breakdown; returns the first differing one. */
const char *
breakdownDiff(const eval::EvalBreakdown &a, const eval::EvalBreakdown &b)
{
    if (!sameBits(a.delay, b.delay))
        return "delay_s";
    if (!sameBits(a.intraTileEnergy, b.intraTileEnergy))
        return "intra_tile_j";
    if (!sameBits(a.nocEnergy, b.nocEnergy))
        return "noc_j";
    if (!sameBits(a.d2dEnergy, b.d2dEnergy))
        return "d2d_j";
    if (!sameBits(a.dramEnergy, b.dramEnergy))
        return "dram_j";
    if (!sameBits(a.dramBytes, b.dramBytes))
        return "dram_bytes";
    if (!sameBits(a.hopBytes, b.hopBytes))
        return "hop_bytes";
    if (!sameBits(a.d2dHopBytes, b.d2dHopBytes))
        return "d2d_hop_bytes";
    if (!sameBits(a.glbOverflow, b.glbOverflow))
        return "glb_overflow";
    return nullptr;
}

std::string
where(int job, long item, std::size_t model)
{
    return "job " + std::to_string(job) + " record " + std::to_string(item) +
           " model " + std::to_string(model);
}

void
checkRecord(Checks &checks, int job, long item,
            const std::vector<eval::EvalBreakdown> &replayed,
            const std::vector<eval::EvalBreakdown> &returned)
{
    checks.countCompared();
    if (replayed.size() != returned.size()) {
        checks.fail(where(job, item, 0) + ": model count differs");
        return;
    }
    for (std::size_t m = 0; m < replayed.size(); ++m)
        if (const char *field = breakdownDiff(replayed[m], returned[m]))
            checks.fail(where(job, item, m) + ": " + field + " differs");
}

// ---- Replays ---------------------------------------------------------------

/** A manifest field of the expected type; throws when absent. */
const Value &
field(const Value &obj, const char *key, bool (Value::*is)() const)
{
    const Value *v = obj.find(key);
    if (!v || !(v->*is)())
        throw std::runtime_error(std::string("manifest: bad or missing \"") +
                                 key + "\"");
    return *v;
}

/** An integral manifest field within [lo, hi]; throws otherwise. */
int
intField(const Value &obj, const char *key, int lo, int hi)
{
    const double v = field(obj, key, &Value::isNumber).asNumber();
    if (!(v >= lo && v <= hi))
        throw std::runtime_error(std::string("manifest: \"") + key +
                                 "\" out of range");
    return static_cast<int>(v);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * The DSE runs' shared intra-core memo: candidates agreeing on
 * (macsPerCore, glbKiB) seed their explorers from one pooled memo and
 * merge back what they discover. Memo entries are exact, so sharing
 * moves only time, never results.
 */
class MemoPool
{
  public:
    explicit MemoPool(const arch::TechParams &tech) : tech_(tech) {}

    std::size_t
    seed(mapping::MappingEngine &engine)
    {
        std::lock_guard lock(mu_);
        engine.explorer().absorb(sharedOf(engine.arch()));
        return engine.explorer().cacheSize();
    }

    void
    collect(mapping::MappingEngine &engine, std::size_t seeded)
    {
        if (engine.explorer().cacheSize() == seeded)
            return;
        std::lock_guard lock(mu_);
        sharedOf(engine.arch()).absorb(engine.explorer());
    }

  private:
    intracore::Explorer &
    sharedOf(const arch::ArchConfig &cfg)
    {
        const std::pair<int, int> key{cfg.macsPerCore, cfg.glbKiB};
        auto it = pool_.find(key);
        if (it == pool_.end())
            it = pool_
                     .try_emplace(key, cfg.macsPerCore, cfg.glbBytes(),
                                  cfg.freqGHz, tech_)
                     .first;
        return it->second;
    }

    arch::TechParams tech_;
    std::mutex mu_;
    std::map<std::pair<int, int>, intracore::Explorer> pool_;
};

struct Job
{
    int id = 0;
    api::ExperimentSpec spec;
    api::ResolvedExperiment resolved;
    api::ExperimentResult result;
    std::vector<const dnn::Graph *> models;
};

double
lowerBound(const Job &job, const cost::CostStack &stack, double mc_total)
{
    const api::ExperimentSpec &s = job.spec;
    Span span("cost.bound_dp", job.id);
    ++counters().boundCalls;
    return stack.dseObjectiveLowerBound(
        job.models, s.mapping.batch, mc_total, s.alpha, s.beta, s.gamma,
        s.schedule.analyticBound ? s.mapping.maxGroupLayers : 0);
}

void
checkBound(Checks &checks, const Job &job, std::size_t i, double bound)
{
    const dse::DseRecord &rec = job.result.dse.records[i];
    if (!sameBits(bound, rec.objectiveLowerBound))
        checks.fail(where(job.id, static_cast<long>(i), 0) +
                    ": objective_lower_bound differs");
}

std::unique_ptr<mapping::MappingEngine>
makeEngine(const Job &job, const dnn::Graph &model,
           const arch::ArchConfig &cfg, const mapping::MappingOptions &mo,
           long item)
{
    Span span("mapping.engine_init", job.id, item);
    return std::make_unique<mapping::MappingEngine>(model, cfg, mo);
}

/** Per-candidate state carried from one rung to the next. */
struct Candidate
{
    std::vector<std::unique_ptr<mapping::MappingEngine>> engines;
    std::vector<mapping::LpMapping> mappings;
    std::vector<eval::EvalBreakdown> perModel;

    void
    release()
    {
        for (const auto &e : engines)
            counters().countExplorer(e->explorer());
        engines.clear();
        mappings.clear();
    }
};

/**
 * The scheduled DSE (screen -> race rounds -> polish), rung by rung: each
 * candidate is carried as deep as its record's rung_reached, with the
 * budgets and seeds DseSchedule documents for each rung.
 */
void
replayScheduled(const Job &job, int threads, std::uint64_t root,
                Checks &checks)
{
    const api::ExperimentSpec &s = job.spec;
    const std::vector<dse::DseRecord> &records = job.result.dse.records;
    const std::size_t n = records.size();
    mapping::MappingOptions mo = s.mapping;
    mo.saThreads = 1; // candidate tasks run their chains serially
    MemoPool memo(mo.tech);
    std::vector<Candidate> cands(n);

    parallelFor(threads, n, root, [&](std::size_t i) {
        const long item = static_cast<long>(i);
        const dse::DseRecord &rec = records[i];
        Span span("dse.screen", job.id, item);
        const cost::CostStack stack(rec.arch, mo.tech, s.costParams);
        checkBound(checks, job, i,
                   lowerBound(job, stack, stack.mcBreakdown().total()));
        mapping::MappingOptions screen = mo;
        screen.runSa = false;
        Candidate &c = cands[i];
        for (const dnn::Graph *model : job.models) {
            auto engine = makeEngine(job, *model, rec.arch, screen, item);
            std::size_t seeded = 0;
            {
                Span share("dse.memo_share", job.id, item);
                seeded = memo.seed(*engine);
            }
            mapping::MappingResult res;
            {
                Span tmap("mapping.tmap", job.id, item);
                res = engine->run();
            }
            {
                Span share("dse.memo_share", job.id, item);
                memo.collect(*engine, seeded);
            }
            counters().countExplorer(engine->explorer());
            counters().countGroups(res.mapping);
            c.mappings.push_back(std::move(res.mapping));
            c.perModel.push_back(res.total);
        }
        if (rec.rungReached == 0) {
            checkRecord(checks, job.id, item, c.perModel, rec.perModel);
            c.release();
        }
    });

    const int polish = std::max(0, s.schedule.rungs) + 1;
    for (int rung = 1; rung <= polish; ++rung) {
        std::vector<std::size_t> cohort;
        for (std::size_t i = 0; i < n; ++i)
            if (records[i].rungReached >= rung)
                cohort.push_back(i);
        // Race round r runs baseIters * 2^(r-1) iterations (saturating),
        // the polish the full SA budget over several chains.
        const long long grown =
            static_cast<long long>(std::max(1, s.schedule.baseIters))
            << std::min(rung - 1, 30);
        const int iters =
            rung == polish
                ? s.mapping.sa.iterations
                : static_cast<int>(std::min<long long>(
                      grown, std::numeric_limits<int>::max()));
        const int chains =
            rung == polish
                ? std::max({1, s.mapping.sa.chains, s.schedule.polishChains})
                : 1;
        const std::uint64_t seed =
            mapping::SaEngine::chainSeed(s.mapping.sa.seed, 0x5A + rung);
        parallelFor(threads, cohort.size(), root, [&](std::size_t k) {
            const std::size_t i = cohort[k];
            const long item = static_cast<long>(i);
            const dse::DseRecord &rec = records[i];
            Candidate &c = cands[i];
            Span span(rung == polish ? "dse.polish"
                                     : "dse.race" + std::to_string(rung),
                      job.id, item);
            if (c.engines.empty()) {
                for (const dnn::Graph *model : job.models) {
                    c.engines.push_back(
                        makeEngine(job, *model, rec.arch, mo, item));
                    Span share("dse.memo_share", job.id, item);
                    memo.seed(*c.engines.back());
                }
            }
            for (std::size_t m = 0; m < job.models.size(); ++m) {
                mapping::MappingEngine &engine = *c.engines[m];
                mapping::MappingOptions &opts = engine.mutableOptions();
                opts.runSa = true;
                opts.sa.iterations = iters;
                opts.sa.chains = chains;
                opts.sa.seed = seed;
                mapping::MappingResult res;
                {
                    Span sa("mapping.sa", job.id, item);
                    res = engine.runFrom(c.mappings[m]);
                }
                counters().saIters += res.saStats.itersRun;
                counters().countGroups(res.mapping);
                c.mappings[m] = std::move(res.mapping);
                c.perModel[m] = res.total;
            }
            if (rec.rungReached == rung) {
                checkRecord(checks, job.id, item, c.perModel, rec.perModel);
                c.release();
            }
        });
    }
}

/**
 * The flat exhaustive driver: one full-budget engine run per candidate,
 * issued as its T-Map start (run() with SA off) plus SA from that start
 * (runFrom), which is the same walk run() takes with SA on.
 */
void
replayFlat(const Job &job, int threads, std::uint64_t root, Checks &checks)
{
    const api::ExperimentSpec &s = job.spec;
    const std::vector<dse::DseRecord> &records = job.result.dse.records;
    mapping::MappingOptions mo = s.mapping;
    // Chains run serially here; results do not depend on chain threads.
    mo.saThreads = 1;

    parallelFor(threads, records.size(), root, [&](std::size_t i) {
        const long item = static_cast<long>(i);
        const dse::DseRecord &rec = records[i];
        Span span("dse.flat", job.id, item);
        const cost::CostStack stack(rec.arch, mo.tech, s.costParams);
        checkBound(checks, job, i,
                   lowerBound(job, stack, stack.mcBreakdown().total()));
        std::vector<eval::EvalBreakdown> perModel;
        for (const dnn::Graph *model : job.models) {
            auto engine = makeEngine(job, *model, rec.arch, mo, item);
            engine->mutableOptions().runSa = false;
            mapping::MappingResult res;
            {
                Span tmap("mapping.tmap", job.id, item);
                res = engine->run();
            }
            if (mo.runSa) {
                engine->mutableOptions().runSa = true;
                Span sa("mapping.sa", job.id, item);
                res = engine->runFrom(res.mapping);
            }
            counters().saIters += res.saStats.itersRun;
            counters().countGroups(res.mapping);
            counters().countExplorer(engine->explorer());
            perModel.push_back(res.total);
        }
        checkRecord(checks, job.id, item, perModel, rec.perModel);
    });
}

/**
 * Map mode, one model at a time, through the layers directly: the
 * interconnect model, explorer, cost stack and analyzer the engine is
 * built from, then partitionGraph and SaEngine::optimize.
 */
void
replayMap(const Job &job, Checks &checks)
{
    const api::ExperimentSpec &s = job.spec;
    const arch::ArchConfig &arch = *job.resolved.archConfig;
    const mapping::MappingOptions &mo = s.mapping;
    if (mo.sa.chains > 1 || mo.analyticSeed) {
        checks.fail("job " + std::to_string(job.id) +
                    ": map replay covers one chain without analytic seed");
        return;
    }
    for (std::size_t k = 0; k < job.models.size(); ++k) {
        const dnn::Graph &graph = *job.models[k];
        const long item = static_cast<long>(k);
        Span span("map.run", job.id, item);
        std::unique_ptr<noc::InterconnectModel> noc;
        std::unique_ptr<intracore::Explorer> explorer;
        std::unique_ptr<cost::CostStack> costs;
        std::unique_ptr<mapping::Analyzer> analyzer;
        std::unique_ptr<mapping::SaEngine> sa;
        {
            Span init("mapping.engine_init", job.id, item);
            {
                Span build("noc.build", job.id, item);
                noc = std::make_unique<noc::InterconnectModel>(arch);
            }
            explorer = std::make_unique<intracore::Explorer>(
                arch.macsPerCore, arch.glbBytes(), arch.freqGHz, mo.tech);
            costs = std::make_unique<cost::CostStack>(arch, mo.tech);
            analyzer = std::make_unique<mapping::Analyzer>(graph, arch, *noc,
                                                           *explorer);
            analyzer->setCacheCapacity(mo.analyzerCacheEntries);
            analyzer->setDeltaEval(mo.deltaEval);
            sa = std::make_unique<mapping::SaEngine>(graph, arch, *analyzer,
                                                     *costs);
        }
        mapping::PartitionOptions popt;
        popt.batch = mo.batch;
        popt.maxGroupLayers = mo.maxGroupLayers;
        popt.batchUnits = mo.batchUnits;
        popt.beta = mo.beta;
        popt.gamma = mo.gamma;
        mapping::LpMapping mapping;
        {
            Span tmap("mapping.tmap", job.id, item);
            mapping = mapping::partitionGraph(graph, arch, *analyzer, *costs,
                                              popt);
        }
        mapping::SaOptions sopt = mo.sa;
        sopt.beta = mo.beta;
        sopt.gamma = mo.gamma;
        mapping::SaStats stats;
        std::vector<eval::EvalBreakdown> groups;
        {
            Span walk("mapping.sa", job.id, item);
            groups = mo.runSa ? sa->optimize(mapping, sopt, &stats)
                              : sa->evaluateAll(mapping);
        }
        eval::EvalBreakdown total;
        for (const eval::EvalBreakdown &g : groups)
            total += g;

        Counters &c = counters();
        c.saIters += stats.itersRun;
        c.countGroups(mapping);
        c.countExplorer(*explorer);
        c.evalHits += analyzer->evalCacheHits();
        c.evalMisses += analyzer->evalCacheMisses();
        c.flowHits += analyzer->flowCacheHits();
        c.flowMisses += analyzer->flowCacheMisses();
        c.tileHits += analyzer->tileCacheHits();
        c.tileMisses += analyzer->tileCacheMisses();
        c.deltaApplies += analyzer->deltaApplies();

        if (k >= job.result.mappings.size()) {
            checks.fail(where(job.id, item, k) + ": no returned mapping");
            continue;
        }
        const mapping::MappingResult &got = job.result.mappings[k];
        checkRecord(checks, job.id, item, {total}, {got.total});
        if (!sameBits(stats.finalCost, got.saStats.finalCost))
            checks.fail(where(job.id, item, k) + ": final_cost differs");
    }
}

/** Spec parse/hash, result (de)serialization and store put/get. */
void
timeApi(const Job &job, const std::string &spec_text,
        const std::string &result_text, api::ResultStore &store,
        Checks &checks)
{
    {
        Span span("api.spec_hash", job.id);
        std::string error;
        const auto spec = api::ExperimentSpec::fromJsonText(spec_text, &error);
        if (!spec || !spec->validate().empty() ||
            spec->canonicalHash() != job.spec.canonicalHash())
            checks.fail("job " + std::to_string(job.id) +
                        ": spec does not re-parse to the same hash");
    }
    {
        Span span("api.result_json", job.id);
        std::string error;
        const auto v = common::json::parse(result_text, &error);
        const auto r = v ? api::ExperimentResult::fromJson(*v, &error)
                         : std::nullopt;
        if (!r || r->toJson().dump(2).empty())
            checks.fail("job " + std::to_string(job.id) +
                        ": result does not round-trip: " + error);
    }
    {
        Span span("api.store_put", job.id);
        std::string error;
        if (!store.put(job.result, &error))
            checks.fail("job " + std::to_string(job.id) + ": store put: " +
                        error);
    }
    {
        Span span("api.store_get", job.id);
        if (!store.get(job.spec.canonicalHash(), job.spec.canonicalText()))
            checks.fail("job " + std::to_string(job.id) +
                        ": store get missed");
    }
}

/** Interconnect construction, once per DSE candidate. */
void
timeNocBuilds(const Job &job, int threads, std::uint64_t root)
{
    const std::vector<dse::DseRecord> &records = job.result.dse.records;
    parallelFor(threads, records.size(), root, [&](std::size_t i) {
        Span span("noc.build", job.id, static_cast<long>(i));
        const noc::InterconnectModel model(records[i].arch);
        (void)model;
    });
}

void
replayJob(Job &job, const Value &entry, int threads, api::ResultStore &store,
          Checks &checks)
{
    const std::string spec_text =
        readFile(field(entry, "spec", &Value::isString).asString());
    const std::string result_text =
        readFile(field(entry, "result", &Value::isString).asString());
    std::string error;
    auto spec = api::ExperimentSpec::fromJsonText(spec_text, &error);
    if (!spec)
        throw std::runtime_error("spec: " + error);
    job.spec = std::move(*spec);
    const auto rv = common::json::parse(result_text, &error);
    auto result = rv ? api::ExperimentResult::fromJson(*rv, &error)
                     : std::nullopt;
    if (!result)
        throw std::runtime_error("result: " + error);
    job.result = std::move(*result);

    Span root("replay.job", job.id);
    {
        Span span("dnn.resolve", job.id);
        auto resolved = api::resolveExperiment(job.spec, &error);
        if (!resolved)
            throw std::runtime_error("resolve: " + error);
        job.resolved = std::move(*resolved);
    }
    for (const dnn::Graph &g : job.resolved.models)
        job.models.push_back(&g);

    const api::ExperimentSpec &s = job.spec;
    if (s.mode == api::ExperimentSpec::Mode::Map) {
        replayMap(job, checks);
    } else {
        for (const dse::DseRecord &rec : job.result.dse.records)
            if (rec.poisoned)
                checks.fail("job " + std::to_string(job.id) +
                            ": poisoned record cannot be replayed");
        if (s.schedule.enabled && s.mapping.runSa)
            replayScheduled(job, threads, root.id(), checks);
        else
            replayFlat(job, threads, root.id(), checks);
        timeNocBuilds(job, threads, root.id());
    }
    timeApi(job, spec_text, result_text, store, checks);
}

void
parseRequests(const std::string &path, Checks &checks)
{
    std::string error;
    const auto v = common::json::parse(readFile(path), &error);
    if (!v || !v->isArray())
        throw std::runtime_error("requests: " + error);
    long k = 0;
    for (const Value &raw : v->asArray()) {
        if (!raw.isString())
            throw std::runtime_error("requests: expected strings");
        bool ok = false;
        {
            Span span("net.parse", 0, k);
            net::HttpParser parser;
            const std::string &bytes = raw.asString();
            const std::size_t used = parser.feed(bytes);
            ok = parser.done() && used == bytes.size();
        }
        if (!ok)
            checks.fail("request " + std::to_string(k) + " does not parse");
        ++k;
    }
}

Value
spansToJson(const std::string &workload)
{
    Value spans = Value::array();
    for (const ThreadBuffer &b : g_buffers) {
        for (const SpanRecord &r : b.spans) {
            Value v = Value::object();
            v.set("id", r.id);
            v.set("parent", r.parent);
            v.set("name", r.name);
            v.set("workload", workload);
            v.set("job", r.job);
            v.set("item", static_cast<std::int64_t>(r.item));
            v.set("thread", r.thread);
            v.set("t0_ns", r.t0);
            v.set("t1_ns", r.t1);
            v.set("cpu_ns", r.cpu);
            spans.push(std::move(v));
        }
    }
    return spans;
}

Value
countersToJson(const Counters &c)
{
    Value v = Value::object();
    v.set("explorer_hits", c.explorerHits);
    v.set("explorer_misses", c.explorerMisses);
    v.set("bound_dp_calls", c.boundCalls);
    v.set("sa_iters", c.saIters);
    v.set("group_layers_max", static_cast<std::uint64_t>(c.groupLayersMax));
    v.set("analyzer_eval_hits", c.evalHits);
    v.set("analyzer_eval_misses", c.evalMisses);
    v.set("analyzer_flow_hits", c.flowHits);
    v.set("analyzer_flow_misses", c.flowMisses);
    v.set("analyzer_tile_hits", c.tileHits);
    v.set("analyzer_tile_misses", c.tileMisses);
    v.set("analyzer_delta_applies", c.deltaApplies);
    return v;
}

int
replay(const std::string &manifest_path, const std::string &out_path)
{
    std::string error;
    const auto manifest = common::json::parse(readFile(manifest_path), &error);
    if (!manifest || !manifest->isObject())
        throw std::runtime_error("manifest: " + error);
    const std::string &workload =
        field(*manifest, "workload", &Value::isString).asString();
    const int threads = intField(*manifest, "threads", 1, 64);
    g_buffers.resize(static_cast<std::size_t>(threads) + 1);

    Checks checks;
    api::ResultStore store(
        field(*manifest, "scratch", &Value::isString).asString());
    for (const Value &entry :
         field(*manifest, "jobs", &Value::isArray).asArray()) {
        Job job;
        job.id = intField(entry, "job", 0, 1 << 30);
        replayJob(job, entry, threads, store, checks);
    }
    if (const Value *req = manifest->find("requests");
        req && req->isString() && !req->asString().empty())
        parseRequests(req->asString(), checks);

    Counters total;
    for (const ThreadBuffer &b : g_buffers)
        total.add(b.counters);
    Value details = Value::array();
    for (std::size_t k = 0; k < checks.mismatches.size() && k < 20; ++k)
        details.push(checks.mismatches[k]);
    Value check = Value::object();
    check.set("records_compared", static_cast<std::uint64_t>(checks.compared));
    check.set("mismatches",
              static_cast<std::uint64_t>(checks.mismatches.size()));
    check.set("details", std::move(details));

    Value out = Value::object();
    out.set("workload", workload);
    out.set("threads", threads);
    out.set("simd", common::simdLevelName(common::activeSimdLevel()));
    out.set("counters", countersToJson(total));
    out.set("checks", std::move(check));
    out.set("spans", spansToJson(workload));
    std::ofstream f(out_path, std::ios::binary);
    f << out.dump() << "\n";
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("replayed %zu record(s), %zu mismatch(es)\n", checks.compared,
                checks.mismatches.size());
    return checks.mismatches.empty() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "simd") == 0) {
        std::printf("%s\n", common::simdLevelName(common::activeSimdLevel()));
        return 0;
    }
    if (argc != 4 || std::strcmp(argv[1], "replay") != 0) {
        std::fprintf(stderr, "usage: %s simd | replay MANIFEST OUT\n",
                     argv[0]);
        return 2;
    }
    try {
        return replay(argv[2], argv[3]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gemini_probe: %s\n", e.what());
        return 1;
    }
}
