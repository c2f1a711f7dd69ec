#include "src/dse/dse.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "src/common/cpu_clock.hh"
#include "src/common/logging.hh"
#include "src/common/thread_pool.hh"
#include "src/cost/cost_stack.hh"
#include "src/dse/journal.hh"
#include "src/noc/interconnect.hh"

namespace gemini::dse {

double
DseStats::cpuSeconds() const
{
    double total = 0.0;
    for (const DseRungStats &r : rungs)
        total += r.cpuSeconds;
    return total;
}

int
DseStats::poisonedCount() const
{
    int total = 0;
    for (const DseRungStats &r : rungs)
        total += r.poisoned;
    return total;
}

const DseRecord &
DseResult::best() const
{
    GEMINI_ASSERT(bestIndex >= 0 &&
                      static_cast<std::size_t>(bestIndex) < records.size(),
                  "DSE produced no feasible candidate");
    return records[static_cast<std::size_t>(bestIndex)];
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double
objectiveOf(const DseRecord &r, double alpha, double beta, double gamma)
{
    return cost::CostStack::dseObjective(r.mc.total(), r.energyGeo,
                                         r.delayGeo, alpha, beta, gamma);
}

/**
 * Fill the geometric means and objective of a record whose perModel list
 * is complete. A zero/degenerate delay or energy would feed std::log and
 * poison the geomeans with -inf/NaN — such records are marked infeasible
 * with an infinite objective instead, so bestUnder comparisons stay sound.
 */
void
finishRecord(DseRecord &rec, const DseOptions &options)
{
    rec.feasible = true;
    double log_delay = 0.0;
    double log_energy = 0.0;
    bool degenerate = false;
    for (const eval::EvalBreakdown &total : rec.perModel) {
        rec.feasible = rec.feasible && total.feasible();
        const double d = total.delay;
        const double e = total.totalEnergy();
        if (!(d > 0.0) || !(e > 0.0) || !std::isfinite(d) ||
            !std::isfinite(e)) {
            degenerate = true;
            continue;
        }
        log_delay += std::log(d);
        log_energy += std::log(e);
    }
    if (degenerate) {
        rec.feasible = false;
        rec.delayGeo = 0.0;
        rec.energyGeo = 0.0;
        rec.objective = kInf;
        return;
    }
    const double n = static_cast<double>(rec.perModel.size());
    rec.delayGeo = std::exp(log_delay / n);
    rec.energyGeo = std::exp(log_energy / n);
    rec.objective =
        objectiveOf(rec, options.alpha, options.beta, options.gamma);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Fill a record's monetary cost, its objective lower bound and the
 * bound's explanatory components (`noc` is the model of rec.arch). The
 * bound is the per-layer segmentation-DP bound, its DP capped by
 * maxGroupLayers as the partitioner is. Pure arithmetic: always computed
 * locally, even in worker mode.
 */
void
priceRecord(DseRecord &rec, const noc::InterconnectModel &noc,
            const DseOptions &options)
{
    const cost::CostStack stack(rec.arch, options.mapping.tech,
                                options.costParams);
    rec.mc = stack.mcBreakdown();
    cost::BoundComponents comps;
    rec.objectiveLowerBound = stack.dseObjectiveLowerBound(
        noc, options.models, options.mapping.batch, rec.mc.total(),
        options.alpha, options.beta, options.gamma,
        options.mapping.maxGroupLayers, &comps);
    rec.boundComputeSeconds = comps.computeSeconds;
    rec.boundDramSeconds = comps.dramSeconds;
    rec.boundNocSeconds = comps.nocSeconds;
    rec.boundRefetchBytes = comps.refetchBytes;
}

/**
 * Shared read-only intra-core memos: candidates that agree on
 * (macsPerCore, glbKiB) — tech and frequency are fixed within one DSE run
 * — search identical tile spaces, so the scheduled rungs pool their
 * Explorer caches: the screen seeds from and merges back into the pool,
 * later rungs only seed. A seed copies the shared memo into a throwaway
 * explorer that lives for one model evaluation of one task; a screen
 * cohort shares that explorer, so it seeds and merges once per model,
 * not once per candidate. Entries are exact, which keeps results
 * independent of sharing (and therefore of thread scheduling). One
 * pool-wide mutex guards both directions; on many-core hosts with huge
 * memos the seed-side full-map copy can contend — per-key locks or an
 * immutable snapshot handoff are the known next steps if the screen rung
 * ever stops scaling.
 */
class ExplorerPool
{
  public:
    explicit ExplorerPool(const arch::TechParams &tech) : tech_(tech) {}

    /**
     * Pre-warm `explorer`, the core of `cfg`, from the pool.
     * @return the explorer's entry count after seeding (pass to collect).
     */
    std::size_t
    seed(intracore::Explorer &explorer, const arch::ArchConfig &cfg)
    {
        std::lock_guard lock(mu_);
        explorer.absorb(sharedOf(cfg));
        return explorer.cacheSize();
    }

    /**
     * Merge `explorer`'s memo back into the pool. Skipped when the
     * explorer discovered nothing beyond its seed, so fully-warmed pools
     * stop paying the merge (the memo only ever grows).
     */
    void
    collect(const intracore::Explorer &explorer, const arch::ArchConfig &cfg,
            std::size_t seeded_size)
    {
        if (explorer.cacheSize() == seeded_size)
            return;
        std::lock_guard lock(mu_);
        sharedOf(cfg).absorb(explorer);
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

/**
 * Evaluate every model of `options` with `mo`'s SA budget for each record
 * of `cohort` (fragment-identical candidates, see fragmentIdentical, or
 * just one), whose interconnect models are `nocs`, filling each record's
 * perModel and returning each member's per-model mappings. Per model, the
 * cohort shares one explorer and runs as one MappingEngine::runCohort,
 * whose engines live one at a time and read the members' models, which
 * keeps memory flat in the candidate count.
 * Without `warm` every member starts cold from the partitioner; with it
 * (a cohort of one), model m resumes from (*warm)[m]. With `explorers`
 * the explorer is seeded from the pool, and a cold evaluation also
 * merges its memo back.
 */
std::vector<std::vector<mapping::LpMapping>>
evaluateModels(const std::vector<DseRecord *> &cohort,
               const std::vector<const noc::InterconnectModel *> &nocs,
               const DseOptions &options, const mapping::MappingOptions &mo,
               ExplorerPool *explorers,
               const std::vector<mapping::LpMapping> *warm)
{
    GEMINI_ASSERT(!warm || cohort.size() == 1,
                  "warm starts run one candidate per task");
    GEMINI_ASSERT(nocs.size() == cohort.size(),
                  "one interconnect model per cohort member");
    const arch::ArchConfig &lead = cohort.front()->arch;
    std::vector<std::vector<mapping::LpMapping>> mappings(cohort.size());
    for (std::size_t k = 0; k < cohort.size(); ++k) {
        mappings[k].reserve(options.models.size());
        cohort[k]->perModel.clear();
        cohort[k]->perModel.reserve(options.models.size());
    }
    for (std::size_t m = 0; m < options.models.size(); ++m) {
        intracore::Explorer explorer(lead.macsPerCore, lead.glbBytes(),
                                     lead.freqGHz, mo.tech);
        const std::size_t seeded =
            explorers ? explorers->seed(explorer, lead) : 0;
        std::vector<mapping::MappingResult> results;
        if (warm) {
            mapping::MappingEngine engine(*options.models[m],
                                          *nocs.front(), mo, &explorer);
            results.push_back(engine.runFrom((*warm)[m]));
        } else {
            results = mapping::MappingEngine::runCohort(
                *options.models[m], nocs, mo, explorer);
        }
        if (explorers && !warm)
            explorers->collect(explorer, lead, seeded);
        for (std::size_t k = 0; k < cohort.size(); ++k) {
            DseRecord &rec = *cohort[k];
            mapping::MappingResult &res = results[k];
            rec.perModel.push_back(res.total);
            rec.seededAnalytic = rec.seededAnalytic || res.seededAnalytic;
            // Actual executed iterations (all chains; 0 without SA): with
            // plateau termination this undercuts the budget, and it is
            // still deterministic for any thread count.
            rec.saIters += res.saStats.itersRun;
            mappings[k].push_back(std::move(res.mapping));
        }
    }
    return mappings;
}

/**
 * One rung of a DSE ladder. Rung 0 starts every candidate cold (the
 * partitioner's T-Map, priced and bounded); later rungs warm-start their
 * cohort from the previous rung's mappings.
 */
struct Rung
{
    std::string name;
    int id = 0;    ///< DseRecord::rungReached and RemoteEvalRequest::rung
    int iters = 0; ///< per-model SA iterations (0 = no SA)
    int chains = 1;
    std::uint64_t seed = 0;
};

/**
 * The rung ladder of one run. A schedule is screen -> race rounds ->
 * polish. Without one — or without SA, which the race and polish rungs
 * are — the ladder is the single exhaustive rung: every candidate once,
 * with the spec's own SA budget, seed and chains, no screen and no prune.
 */
std::vector<Rung>
ladderOf(const DseOptions &options)
{
    const mapping::SaOptions &sa = options.mapping.sa;
    if (!options.schedule.enabled || !options.mapping.runSa)
        return {{"exhaustive", -1, options.mapping.runSa ? sa.iterations : 0,
                 std::max(1, sa.chains), sa.seed}};

    // Fresh deterministic SA seed per rung (chains derive from it).
    const auto seed_of = [&](int rung) {
        return mapping::SaEngine::chainSeed(sa.seed, 0x5A + rung);
    };
    const int races = std::max(0, options.schedule.rungs);
    std::vector<Rung> ladder{{"screen", 0, 0, 1, 0}};
    for (int r = 1; r <= races; ++r) {
        // The race budget doubles every round, saturating (rather than
        // overflowing) for absurd rung counts.
        const auto grown =
            static_cast<long long>(std::max(1, options.schedule.baseIters))
            << std::min(r - 1, 30);
        ladder.push_back({"race" + std::to_string(r), r,
                          static_cast<int>(std::min<long long>(
                              grown, std::numeric_limits<int>::max())),
                          1, seed_of(r)});
    }
    ladder.push_back({"polish", races + 1, sa.iterations,
                      std::max({1, sa.chains, options.schedule.polishChains}),
                      seed_of(races + 1)});
    return ladder;
}

/**
 * The DSE driver: runs a rung ladder (see ladderOf) over the candidates.
 * All rungs stream over one shared thread pool: a candidate's next-rung
 * task is submitted the moment its cohort's keep-decision resolves, so
 * the pool never drains between rungs. Keep-decisions are computed by
 * whichever worker finishes a cohort last, from per-candidate objectives
 * that do not depend on scheduling — the whole run is deterministic for
 * any thread count.
 */
class MultiFidelityScheduler
{
  public:
    MultiFidelityScheduler(const DseOptions &options,
                           std::vector<arch::ArchConfig> candidates,
                           std::size_t threads)
        : opts_(options), candidates_(std::move(candidates)),
          ladder_(ladderOf(options)), explorers_(options.mapping.tech),
          remote_(options.execution == ExecutionMode::Workers &&
                  options.remoteEval),
          ownedPool_(options.pool ? nullptr
                                  : std::make_unique<ThreadPool>(threads)),
          pool_(options.pool ? *options.pool : *ownedPool_)
    {
        // Rung tasks each occupy one pool worker; chains run serially
        // inside them so candidate- and chain-level parallelism never
        // oversubscribe the machine.
        opts_.mapping.saThreads = 1;
        // Thread the run-level stop token into the mapping layer so a
        // cancelled SA run also stops at chain granularity.
        opts_.mapping.stop = opts_.stop;
    }

    DseResult
    run()
    {
        const std::size_t n = candidates_.size();
        result_.records.resize(n);
        warmStarts_.resize(n);

        const std::size_t n_rungs = ladder_.size();
        cohorts_.assign(n_rungs, {});
        done_.assign(n_rungs, 0);
        result_.stats.scheduled = n_rungs > 1;
        result_.stats.rungs.resize(n_rungs);
        for (std::size_t r = 0; r < n_rungs; ++r) {
            DseRungStats &rs = result_.stats.rungs[r];
            rs.name = ladder_[r].name;
            rs.saIters = ladder_[r].iters * ladder_[r].chains;
            rs.bestObjective = kInf;
        }

        int start = 0; // first rung whose cohort we evaluate
        journal_ = !opts_.journalPath.empty();
        if (journal_ && opts_.resume) {
            start = tryResume();
            if (resumedComplete_)
                return std::move(result_); // journal held the final record
        }
        if (journal_ && result_.stats.resumedRung < 0) {
            // Fresh (or failed-resume) run: any journal at this path is
            // stale — start over.
            std::string jerr;
            if (!journalStart(opts_.journalPath, &jerr)) {
                GEMINI_WARN("rung journal disabled: ", jerr);
                journal_ = false;
            }
        }

        if (start == 0) {
            auto &first = cohorts_[0];
            first.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                first.push_back(i);
            result_.stats.rungs[0].entered = static_cast<int>(n);
        }
        // Resumed starts (> 0) found cohorts_[start] and the stats ledger
        // already restored from the journal snapshot by tryResume().

        const std::vector<std::size_t> &cohort =
            cohorts_[static_cast<std::size_t>(start)];
        DseProgressEvent entered;
        entered.kind = DseProgressEvent::Kind::RungEntered;
        entered.rung = ladder_[static_cast<std::size_t>(start)].name;
        entered.entered = static_cast<int>(cohort.size());
        entered.bestObjective = bestSoFar_;
        emit(entered);

        for (std::vector<std::size_t> &task : tasksOf(start, cohort))
            enqueue([this, start, task = std::move(task)] {
                runTask(start, task);
            });

        // Wait on the run's own task latch, not pool_.waitIdle(): a shared
        // pool carries other jobs' tasks, which are not ours to wait for.
        std::exception_ptr task_error;
        {
            std::unique_lock lock(waitMu_);
            allDone_.wait(lock, [this] { return pending_ == 0; });
            task_error = error_;
        }
        // A task that threw aborted the run: remaining tasks drained
        // without evaluating, nothing was journaled past the last clean
        // rung, and the error propagates to the caller (the service
        // preserves it through JobHandle::rethrow()).
        if (task_error)
            std::rethrow_exception(task_error);

        result_.stats.cancelled = opts_.stop.cancelRequested();
        result_.stats.truncated = opts_.stop.deadlineExpired();

        // The winner comes from the last rung's cohort: only it carries
        // full-budget evaluations, so cross-fidelity objective
        // comparisons never decide the result.
        result_.bestIndex = -1;
        double best_obj = kInf;
        for (std::size_t i : cohorts_.back()) {
            const DseRecord &rec = result_.records[i];
            if (!rec.feasible || !std::isfinite(rec.objective))
                continue;
            if (rec.objective < best_obj) {
                best_obj = rec.objective;
                result_.bestIndex = static_cast<int>(i);
            }
        }

        // A stopped run's last rungs resolved with skipped candidates —
        // not the deterministic resolution — so they are never journaled;
        // a later resume redoes them from the last clean record.
        if (journal_ && !opts_.stop.stopRequested())
            journalFinal();
        return std::move(result_);
    }

  private:
    int lastRung() const { return static_cast<int>(ladder_.size()) - 1; }

    void
    emit(const DseProgressEvent &event)
    {
        if (opts_.progress)
            opts_.progress(event);
    }

    /**
     * Submit a task with run-local completion tracking. Next-rung tasks
     * are enqueued from inside a running task (resolveLocked), i.e. the
     * increment happens before that task's own decrement — pending_
     * reaching zero therefore means the whole run has drained.
     */
    void
    enqueue(std::function<void()> fn)
    {
        {
            std::lock_guard lock(waitMu_);
            ++pending_;
        }
        pool_.submit([this, fn = std::move(fn)] {
            try {
                fn();
            } catch (...) {
                // Capture the first failure and abort the run: later
                // tasks short-circuit (see the aborted_ checks), the
                // drained latch releases run(), and run() rethrows.
                aborted_.store(true, std::memory_order_relaxed);
                std::lock_guard lock(waitMu_);
                if (!error_)
                    error_ = std::current_exception();
            }
            std::lock_guard lock(waitMu_);
            if (--pending_ == 0)
                allDone_.notify_all();
        });
    }

    /** Append the keep-decision of `rung` to the journal (mu_ held). */
    void
    journalRungLocked(int rung, const std::vector<std::size_t> &survivors)
    {
        JournalRecord rec;
        rec.tag = opts_.journalTag;
        rec.rung = rung;
        rec.rungName = ladder_[static_cast<std::size_t>(rung)].name;
        rec.bestSoFar = bestSoFar_;
        rec.snapshot.records = result_.records;
        rec.snapshot.stats = result_.stats;
        rec.snapshot.bestIndex = -1; // no winner until the last rung
        rec.survivors = survivors;
        std::string jerr;
        if (!journalAppend(opts_.journalPath, rec, warmStarts_, &jerr)) {
            GEMINI_WARN("rung journal disabled: ", jerr);
            journal_ = false; // run on; only resumability is lost
        }
    }

    /** Append the final record (complete result, winner included). */
    void
    journalFinal()
    {
        JournalRecord rec;
        rec.tag = opts_.journalTag;
        rec.rung = lastRung();
        rec.rungName = ladder_.back().name;
        rec.final = true;
        rec.bestSoFar = bestSoFar_;
        rec.snapshot = result_;
        std::string jerr;
        if (!journalAppend(opts_.journalPath, rec, &jerr))
            GEMINI_WARN("cannot journal final record: ", jerr);
    }

    /**
     * Replay the journal's valid prefix. Returns the first rung left to
     * evaluate (cohort and ledger restored), or 0 for a fresh run. When
     * the journal already holds the final record, result_ is rebuilt
     * wholesale and resumedComplete_ is set instead.
     */
    int
    tryResume()
    {
        const std::string &path = opts_.journalPath;
        JournalLoadResult loaded = journalLoad(path, opts_.journalTag);
        if (!loaded.error.empty()) {
            GEMINI_WARN("cannot resume from ", path, ": ", loaded.error,
                        "; starting fresh");
            return 0;
        }
        if (loaded.records.empty()) {
            if (loaded.droppedTail > 0)
                GEMINI_WARN("journal ", path, ": no valid records (",
                            loaded.droppedTail,
                            " corrupt line(s)); starting fresh");
            return 0;
        }
        if (loaded.droppedTail > 0)
            GEMINI_WARN("journal ", path, ": dropped ", loaded.droppedTail,
                        " torn/corrupt trailing line(s); falling back one "
                        "rung");

        JournalRecord &last = loaded.records.back();
        if (last.snapshot.records.size() != candidates_.size() ||
            last.snapshot.stats.rungs.size() != ladder_.size()) {
            GEMINI_WARN("journal ", path, ": shape mismatch (different "
                        "candidate list or schedule); starting fresh");
            return 0;
        }

        if (last.final) {
            result_ = std::move(last.snapshot);
            result_.stats.resumedRung = last.rung;
            resumedComplete_ = true;
            return 0;
        }

        if (last.rung < 0 || last.rung >= lastRung() ||
            last.survivors.empty()) {
            GEMINI_WARN("journal ", path,
                        ": malformed last record; starting fresh");
            return 0;
        }
        for (std::size_t k = 0; k < last.survivors.size(); ++k) {
            const std::size_t i = last.survivors[k];
            if (i >= candidates_.size() ||
                !(candidates_[i] == last.snapshot.records[i].arch) ||
                last.warmStarts[k].size() != opts_.models.size()) {
                GEMINI_WARN("journal ", path, ": survivor set does not "
                            "match this experiment; starting fresh");
                return 0;
            }
            // Spec hashes name model paths, so an edited model file can
            // leave warm starts that no longer fit its graph.
            for (std::size_t m = 0; m < opts_.models.size(); ++m) {
                const std::string err = mapping::checkMappingValid(
                    *opts_.models[m], candidates_[i], last.warmStarts[k][m]);
                if (!err.empty()) {
                    GEMINI_WARN("journal ", path, ": stale warm start (",
                                err, "); starting fresh");
                    return 0;
                }
            }
        }

        // Torn tail gone from memory; make the file agree before our own
        // appends, so garbage can never glue onto the next record.
        std::string terr;
        if (loaded.validBytes > 0 &&
            !journalTruncate(path, loaded.validBytes, &terr))
            GEMINI_WARN("journal ", path, ": ", terr);

        result_.records = std::move(last.snapshot.records);
        result_.stats.rungs = std::move(last.snapshot.stats.rungs);
        result_.stats.resumedRung = last.rung;
        bestSoFar_ = last.bestSoFar;
        const int next = last.rung + 1;
        cohorts_[static_cast<std::size_t>(next)] = last.survivors;
        for (std::size_t k = 0; k < last.survivors.size(); ++k)
            warmStarts_[last.survivors[k]] = std::move(last.warmStarts[k]);
        return next;
    }

    /**
     * The pool tasks of rung `r`'s members. A cold rung without SA run
     * in-process (the screen, or an exhaustive rung without SA) groups
     * its members into fragment cohorts (see mapping::fragmentIdentical),
     * one task each, largest first; the largest cohorts are halved until
     * every pool thread has a task. Every other rung runs one candidate
     * per task.
     */
    std::vector<std::vector<std::size_t>>
    tasksOf(int r, const std::vector<std::size_t> &members) const
    {
        std::vector<std::vector<std::size_t>> tasks;
        if (r != 0 || ladder_.front().iters > 0 || remote_) {
            for (std::size_t i : members)
                tasks.push_back({i});
            return tasks;
        }
        // Routes depend only on these fields: one model per distinct
        // tuple serves every member with it (96 members share 48 models on
        // the dse_screen workload).
        const auto routing_of = [](const arch::ArchConfig &a) {
            return std::tuple(a.topology, a.xCores, a.yCores, a.xCut,
                              a.yCut, a.dramCount);
        };
        std::map<decltype(routing_of(candidates_.front())),
                 noc::InterconnectModel>
            models;
        struct Lead
        {
            const arch::ArchConfig *cfg;
            const noc::InterconnectModel *noc;
        };
        std::vector<Lead> leads; // one per cohort
        for (std::size_t i : members) {
            const arch::ArchConfig &cfg = candidates_[i];
            const noc::InterconnectModel &noc =
                models.try_emplace(routing_of(cfg), cfg).first->second;
            std::size_t c = 0;
            while (c < leads.size() &&
                   !mapping::fragmentIdentical(*leads[c].cfg, *leads[c].noc,
                                               cfg, noc))
                ++c;
            if (c == leads.size()) {
                leads.push_back({&cfg, &noc});
                tasks.emplace_back();
            }
            tasks[c].push_back(i);
        }
        const auto by_size = [](const std::vector<std::size_t> &a,
                                const std::vector<std::size_t> &b) {
            return a.size() < b.size();
        };
        while (tasks.size() < pool_.threadCount()) {
            std::vector<std::size_t> &largest =
                *std::max_element(tasks.begin(), tasks.end(), by_size);
            if (largest.size() < 2)
                break;
            const auto half = static_cast<std::ptrdiff_t>(largest.size() / 2);
            std::vector<std::size_t> tail(largest.begin() + half,
                                          largest.end());
            largest.resize(static_cast<std::size_t>(half));
            tasks.push_back(std::move(tail));
        }
        std::stable_sort(tasks.begin(), tasks.end(),
                         [&](const auto &a, const auto &b) {
                             return by_size(b, a);
                         });
        return tasks;
    }

    /**
     * Evaluate candidates `members` at rung `r` (one pool task): a
     * fragment cohort at a cold rung without SA, one candidate otherwise.
     */
    void
    runTask(int r, const std::vector<std::size_t> &members)
    {
        // An in-process task is charged the CPU its thread used. A remote
        // task's CPU is spent in the worker process, so it is charged the
        // wall time it waited.
        const auto t0 = std::chrono::steady_clock::now();
        const double cpu0 = common::threadCpuSeconds();
        const auto task_seconds = [&] {
            return remote_ ? secondsSince(t0)
                           : common::threadCpuSeconds() - cpu0;
        };
        const Rung &rung = ladder_[static_cast<std::size_t>(r)];
        const bool cold = r == 0;
        // Only a rung with a successor keeps warm starts, and only a
        // scheduled ladder pools tile memos. The exhaustive rung does
        // neither: its engines stay unpooled, so its memory stays flat in
        // the candidate count (pooling its memos cost +15% peak RSS).
        const bool feeds = r < lastRung();
        const bool pooled = ladder_.size() > 1;
        std::vector<DseRecord *> recs;
        for (std::size_t i : members) {
            recs.push_back(&result_.records[i]);
            if (cold)
                recs.back()->arch = candidates_[i];
        }
        if (opts_.stop.stopRequested() || abortRequested()) {
            // Cancelled: a warm record keeps its deepest completed
            // evaluation (still valid and comparable); a cold one was
            // never evaluated and must never look like a winner. Either
            // way the cohort still resolves normally.
            if (cold) {
                for (DseRecord *rec : recs) {
                    rec->feasible = false;
                    rec->objective = kInf;
                }
            }
            finishTask(r, members, task_seconds());
            return;
        }
        // One interconnect model per candidate for the whole task: its
        // bound, the cohort's identity check and every engine read it. It
        // dies with the task, so no model outlives its rung.
        std::vector<noc::InterconnectModel> nocs;
        std::vector<const noc::InterconnectModel *> noc_ptrs;
        if (cold || !remote_) {
            nocs.reserve(recs.size());
            for (const DseRecord *rec : recs)
                noc_ptrs.push_back(&nocs.emplace_back(rec->arch));
        }
        if (cold)
            for (std::size_t k = 0; k < recs.size(); ++k)
                priceRecord(*recs[k], nocs[k], opts_);

        std::vector<std::vector<mapping::LpMapping>> mappings;
        if (remote_) {
            const std::size_t i = members.front();
            DseRecord &rec = *recs.front();
            RemoteEvalRequest rq;
            rq.index = i;
            rq.arch = &candidates_[i];
            rq.rung = rung.id;
            rq.iters = rung.iters;
            rq.chains = rung.chains;
            rq.seed = rung.seed;
            rq.warmStarts = cold ? nullptr : &warmStarts_[i];
            RemoteEvalOutcome out = opts_.remoteEval(rq);
            if (out.poisoned) {
                markPoisoned(rec, r, std::move(out.poisonReason));
                finishTask(r, members, task_seconds());
                return;
            }
            mappings.push_back(std::move(out.mappings));
            rec.perModel = std::move(out.perModel);
            // The worker protocol does not ship SaStats back, so remote
            // records charge the budgeted (upper-bound) iterations.
            rec.saIters += rung.iters * rung.chains *
                           static_cast<int>(opts_.models.size());
        } else {
            mapping::MappingOptions mo = opts_.mapping;
            mo.runSa = rung.iters > 0;
            mo.sa.iterations = rung.iters;
            mo.sa.chains = rung.chains;
            mo.sa.seed = rung.seed;
            mappings = evaluateModels(
                recs, noc_ptrs, opts_, mo, pooled ? &explorers_ : nullptr,
                cold ? nullptr : &warmStarts_[members.front()]);
        }
        for (std::size_t k = 0; k < members.size(); ++k) {
            warmStarts_[members[k]] =
                feeds ? std::move(mappings[k])
                      : std::vector<mapping::LpMapping>{};
            finishRecord(*recs[k], opts_);
            recs[k]->rungReached = rung.id;
        }
        finishTask(r, members, task_seconds());
    }

    bool
    abortRequested() const
    {
        return aborted_.load(std::memory_order_relaxed);
    }

    /**
     * Quarantine a candidate whose evaluation exhausted its worker
     * retries: infeasible-with-inf (so it can never rank or win), tagged
     * poisoned with the supervisor's reason, and counted in the rung
     * ledger. The run continues; resolveLocked drops poisoned records
     * from every survivor set.
     */
    void
    markPoisoned(DseRecord &rec, int rung, std::string reason)
    {
        rec.feasible = false;
        rec.objective = kInf;
        rec.poisoned = true;
        rec.poisonReason = std::move(reason);
        GEMINI_WARN("candidate ", rec.arch.toString(), " quarantined at ",
                    ladder_[static_cast<std::size_t>(rung)].name, ": ",
                    rec.poisonReason);
        std::lock_guard lock(mu_);
        ++result_.stats.rungs[static_cast<std::size_t>(rung)].poisoned;
    }

    /**
     * Close a task of `rung`. A cohort's gathers serve every member, so
     * the task's seconds are split evenly over its candidates; the rung's
     * cpuSeconds still sums whole tasks.
     */
    void
    finishTask(int rung, const std::vector<std::size_t> &members,
               double seconds)
    {
        const double share = seconds / static_cast<double>(members.size());
        std::lock_guard lock(mu_);
        const auto r = static_cast<std::size_t>(rung);
        for (std::size_t i : members) {
            result_.stats.rungs[r].cpuSeconds += share;
            result_.records[i].evalSeconds += share;
            if (++done_[r] == cohorts_[r].size())
                resolveLocked(rung);
        }
    }

    /**
     * Cohort keep-decision, run by the cohort's last finisher (mu_ held):
     * the screen prunes by the objective lower bound, race rounds keep the
     * top keepFraction, and survivors' next-rung tasks are submitted
     * immediately onto the shared pool. The last rung only closes.
     */
    void
    resolveLocked(int rung)
    {
        DseRungStats &rs = result_.stats.rungs[static_cast<std::size_t>(rung)];
        const std::vector<std::size_t> &members =
            cohorts_[static_cast<std::size_t>(rung)];

        for (std::size_t i : members) {
            const DseRecord &rec = result_.records[i];
            if (rec.feasible && std::isfinite(rec.objective))
                rs.bestObjective = std::min(rs.bestObjective, rec.objective);
        }
        bestSoFar_ = std::min(bestSoFar_, rs.bestObjective);

        DseProgressEvent finished;
        finished.kind = DseProgressEvent::Kind::RungFinished;
        finished.rung = rs.name;
        finished.entered = rs.entered;
        finished.bestObjective = bestSoFar_;

        if (rung == lastRung()) {
            emit(finished);
            return;
        }
        std::vector<std::size_t> survivors;
        if (rung == 0) {
            // Sound prune: the screened best is achievable, so a candidate
            // whose lower bound exceeds it can never win, at any budget.
            const double best_achievable = rs.bestObjective;
            for (std::size_t i : members) {
                DseRecord &rec = result_.records[i];
                if (rec.poisoned) {
                    // Quarantined: never a survivor (and not counted as a
                    // prune — the rung ledger tracks it separately).
                    warmStarts_[i] = {};
                } else if (opts_.schedule.lowerBoundPrune &&
                           std::isfinite(best_achievable) &&
                           rec.objectiveLowerBound > best_achievable) {
                    rec.prunedByBound = true;
                    ++rs.prunedBound;
                    warmStarts_[i] = {};
                } else {
                    survivors.push_back(i);
                }
            }
        } else {
            // Rank by objective (infeasible and non-finite last), ties by
            // candidate index: deterministic for any completion order.
            // Poisoned candidates are out of the race entirely: their
            // exclusion must not depend on how many healthy candidates
            // the keep-fraction would otherwise retain.
            std::vector<std::size_t> ranked;
            ranked.reserve(members.size());
            for (std::size_t i : members) {
                if (result_.records[i].poisoned)
                    warmStarts_[i] = {};
                else
                    ranked.push_back(i);
            }
            auto key = [this](std::size_t i) {
                const DseRecord &rec = result_.records[i];
                return (rec.feasible && std::isfinite(rec.objective))
                           ? rec.objective
                           : kInf;
            };
            std::sort(ranked.begin(), ranked.end(),
                      [&](std::size_t a, std::size_t b) {
                          const double ka = key(a), kb = key(b);
                          return ka < kb || (ka == kb && a < b);
                      });
            // minKeep may exceed the cohort (the screen prune has no
            // survivor floor), so clamp the floor itself before applying.
            const auto want = static_cast<std::size_t>(std::ceil(
                static_cast<double>(ranked.size()) *
                std::clamp(opts_.schedule.keepFraction, 0.0, 1.0)));
            const std::size_t floor_keep = std::max<std::size_t>(
                1, std::min(opts_.schedule.minKeep, ranked.size()));
            const std::size_t keep =
                std::min(ranked.size(), std::max(want, floor_keep));
            survivors.assign(ranked.begin(),
                             ranked.begin() + static_cast<long>(keep));
            std::sort(survivors.begin(), survivors.end());
            for (std::size_t k = keep; k < ranked.size(); ++k) {
                ++rs.prunedRank;
                warmStarts_[ranked[k]] = {};
            }
        }

        rs.advanced = static_cast<int>(survivors.size());
        const int next = rung + 1;
        cohorts_[static_cast<std::size_t>(next)] = survivors;
        result_.stats.rungs[static_cast<std::size_t>(next)].entered =
            static_cast<int>(survivors.size());

        // Write-ahead: the keep-decision goes to stable storage before
        // any next-rung task is enqueued. A stopped (or error-aborted)
        // rung resolved with skipped candidates — not the deterministic
        // decision — so it is never journaled; resume redoes it from the
        // previous record.
        if (journal_ && !opts_.stop.stopRequested() && !abortRequested())
            journalRungLocked(rung, survivors);

        finished.advanced = rs.advanced;
        finished.prunedBound = rs.prunedBound;
        finished.prunedRank = rs.prunedRank;
        emit(finished);

        DseProgressEvent entered;
        entered.kind = DseProgressEvent::Kind::RungEntered;
        entered.rung = ladder_[static_cast<std::size_t>(next)].name;
        entered.entered = static_cast<int>(survivors.size());
        entered.bestObjective = bestSoFar_;
        emit(entered);

        for (std::size_t i : survivors)
            enqueue([this, next, i] { runTask(next, {i}); });
    }

    DseOptions opts_;
    std::vector<arch::ArchConfig> candidates_;
    const std::vector<Rung> ladder_;
    DseResult result_;
    /// Per candidate, per model: the mappings the next rung starts from.
    std::vector<std::vector<mapping::LpMapping>> warmStarts_;
    ExplorerPool explorers_;
    const bool remote_; ///< evaluate candidates via opts_.remoteEval
    std::unique_ptr<ThreadPool> ownedPool_; ///< null when opts_.pool set
    ThreadPool &pool_;
    std::mutex mu_;
    std::vector<std::vector<std::size_t>> cohorts_; ///< members per rung
    std::vector<std::size_t> done_;                 ///< finished per rung
    double bestSoFar_ = kInf; ///< best feasible objective, any rung

    bool journal_ = false; ///< journaling active (path set, no I/O error)
    bool resumedComplete_ = false; ///< journal held the final record

    // Run-local task latch (a shared pool cannot be waitIdle()d).
    std::mutex waitMu_;
    std::condition_variable allDone_;
    std::size_t pending_ = 0;
    std::exception_ptr error_;        ///< first escaped task exception
    std::atomic<bool> aborted_{false}; ///< error seen; tasks short-circuit
};

} // namespace

int
DseResult::bestUnder(double alpha, double beta, double gamma) const
{
    int best = -1;
    double best_obj = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (!records[i].feasible)
            continue;
        const double obj = objectiveOf(records[i], alpha, beta, gamma);
        if (!std::isfinite(obj))
            continue;
        if (best < 0 || obj < best_obj) {
            best = static_cast<int>(i);
            best_obj = obj;
        }
    }
    return best;
}

DseRecord
evaluateCandidate(const arch::ArchConfig &cfg, const DseOptions &options)
{
    GEMINI_ASSERT(!options.models.empty(), "DSE needs at least one model");
    DseRecord rec;
    rec.arch = cfg;
    const noc::InterconnectModel noc(cfg);
    priceRecord(rec, noc, options);
    evaluateModels({&rec}, {&noc}, options, options.mapping, nullptr,
                   nullptr);
    finishRecord(rec, options);
    return rec;
}

DseResult
runDse(const DseOptions &user_options)
{
    // Arm the wall-clock deadline (if any) on a run-local token: every
    // stop check below — and in the mapping layer, which inherits this
    // token — then reports stop on cancel *or* expiry, while the two
    // causes stay distinguishable for the stats flags.
    DseOptions options = user_options;
    if (options.deadlineSeconds > 0.0) {
        options.stop = options.stop.withDeadline(
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.deadlineSeconds)));
    }

    GEMINI_ASSERT(!options.models.empty(), "DSE needs at least one model");
    std::vector<arch::ArchConfig> candidates =
        enumerateCandidates(options.axes);
    GEMINI_ASSERT(!candidates.empty(), "axis lists produced no candidates");

    if (options.maxCandidates > 0 &&
        candidates.size() > options.maxCandidates) {
        // Deterministic stride subsampling keeps every axis populated
        // because the enumeration order interleaves all axes.
        std::vector<arch::ArchConfig> picked;
        picked.reserve(options.maxCandidates);
        const double stride = static_cast<double>(candidates.size()) /
                              static_cast<double>(options.maxCandidates);
        for (std::size_t i = 0; i < options.maxCandidates; ++i) {
            picked.push_back(
                candidates[static_cast<std::size_t>(i * stride)]);
        }
        candidates.swap(picked);
    }

    const std::size_t threads =
        options.threads > 0
            ? static_cast<std::size_t>(options.threads)
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return MultiFidelityScheduler(options, std::move(candidates), threads)
        .run();
}

} // namespace gemini::dse
