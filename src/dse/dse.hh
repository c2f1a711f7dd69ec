/**
 * @file
 * The DSE driver (Sec. V-A): explores architecture candidates with the
 * objective MC^alpha * E^beta * D^gamma, where E and D are the geometric
 * means of the mapping-engine results across the input DNNs and MC comes
 * from the Monetary Cost Evaluator. One driver runs every exploration as
 * a ladder of rungs over a thread pool (the paper uses 80-100 threads):
 * the paper's exhaustive loop is the one-rung ladder, and DseSchedule
 * turns it into the multi-fidelity screen -> race -> polish ladder.
 */

#ifndef GEMINI_DSE_DSE_HH
#define GEMINI_DSE_DSE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/stop_token.hh"
#include "src/cost/mc_evaluator.hh"
#include "src/dnn/graph.hh"
#include "src/dse/candidates.hh"
#include "src/eval/breakdown.hh"
#include "src/mapping/engine.hh"

namespace gemini {
class ThreadPool;
}

namespace gemini::dse {

/**
 * Streaming progress of one DSE run, at rung granularity. Rung-level
 * events are computed by the scheduler's cohort keep-decisions, which are
 * deterministic for any thread count — so the *sequence* of events (kind,
 * rung, counts, best objective) is identical across runs and thread
 * counts, which the API layer's tests rely on. Per-candidate events are
 * deliberately not emitted: their interleaving would depend on thread
 * scheduling, and firing a callback per candidate would put overhead on
 * the evaluation path.
 */
struct DseProgressEvent
{
    enum class Kind
    {
        RungEntered, ///< a rung's cohort was formed and submitted
        RungFinished ///< a rung's last candidate finished; counts final
    };

    Kind kind = Kind::RungEntered;
    std::string rung;    ///< "screen", "race1".., "polish", "exhaustive"
    int entered = 0;     ///< candidates in the rung's cohort
    int advanced = 0;    ///< RungFinished: candidates promoted
    int prunedBound = 0; ///< RungFinished: dropped by the lower bound
    int prunedRank = 0;  ///< RungFinished: dropped by ranking

    /** Best feasible objective seen so far (infinity until one exists). */
    double bestObjective = 0.0;
};

/**
 * Progress callback. Invoked from worker threads while the scheduler's
 * bookkeeping lock is held (this is what makes the sequence
 * deterministic), so it must be fast and must not call back into the run.
 */
using DseProgressFn = std::function<void(const DseProgressEvent &)>;

/**
 * Multi-fidelity schedule of the DSE outer loop: a *screen* rung evaluates
 * every candidate with the cheap stripe-only T-Map pipeline plus a
 * monetary-cost/peak-bandwidth lower bound that hard-prunes candidates
 * which cannot beat the best screened objective even with a perfect
 * mapping; a *race* of successive-halving rounds doubles the per-candidate
 * SA budget each round and keeps the top `keepFraction`, warm-starting
 * each survivor's SA from its previous rung's best mapping; a final
 * *polish* rung gives the finalists the full SaOptions budget and
 * multi-chain annealing. Disabled by default: the exhaustive ladder.
 */
struct DseSchedule
{
    /**
     * false = the one-rung "exhaustive" ladder: every candidate evaluated
     * once with the spec's own SA budget, seed and chains, with no screen
     * and no prune. The race/polish rungs are SA runs, so the exhaustive
     * ladder (stripe-only) also runs when MappingOptions::runSa is false.
     */
    bool enabled = false;

    /** Successive-halving race rounds between screen and polish. */
    int rungs = 3;

    /** Fraction of a race cohort promoted to the next round. */
    double keepFraction = 0.5;

    /** SA iterations of race round 1 (doubles every later round). */
    int baseIters = 64;

    /** Apply the screen-rung objective lower-bound prune. */
    bool lowerBoundPrune = true;

    /** Rank pruning never cuts a cohort below this many candidates. */
    std::size_t minKeep = 4;

    /**
     * The screen's prune oracle is always the per-layer segmentation-DP
     * analytical bound. Not settable: the spec refuses
     * `schedule.analytic_bound: false`, and the constant stays only
     * because benchmark/probe.cc still reads it.
     */
    static constexpr bool analyticBound = true;

    /**
     * Annealing chains of the polish rung (the effective count is the
     * larger of this and SaOptions::chains). Finalists are few, so
     * best-of-K polish costs little and recovers the quality a harsh
     * race schedule might lose.
     */
    int polishChains = 2;
};

/** Per-rung statistics of one DSE run. */
struct DseRungStats
{
    std::string name;    ///< "screen", "race1".., "polish" ("exhaustive")
    int entered = 0;     ///< candidates evaluated at this rung
    int advanced = 0;    ///< candidates promoted to the next rung
    int prunedBound = 0; ///< dropped by the objective lower bound
    int prunedRank = 0;  ///< dropped by the keep-fraction ranking
    int poisoned = 0;    ///< quarantined at this rung (worker mode)
    int saIters = 0;     ///< per-candidate per-model SA budget of the rung
    /**
     * Summed task seconds of the rung: thread CPU seconds for tasks run
     * in this process, elapsed wall seconds for worker-mode tasks (their
     * CPU is spent in the worker process).
     */
    double cpuSeconds = 0.0;
    double bestObjective = 0.0; ///< best feasible objective after the rung
};

/** Whole-run statistics attached to DseResult. */
struct DseStats
{
    bool scheduled = false; ///< ran a multi-rung (not the exhaustive) ladder
    std::vector<DseRungStats> rungs;

    /**
     * The run observed an *explicit* cancellation request: every rung
     * still resolved (the ledger above is complete and consistent) but
     * candidates whose evaluation had not started were skipped, so
     * records may carry a shallower rungReached than an uncancelled run
     * would produce.
     */
    bool cancelled = false;

    /**
     * The run hit its wall-clock deadline (DseOptions::deadlineSeconds)
     * and degraded gracefully: like `cancelled`, the result is valid
     * best-so-far with a complete rung ledger — but it reflects a time
     * budget, not a user's intent, so the API layer never caches it and
     * keeps the rung journal so the run can be resumed with more time.
     */
    bool truncated = false;

    /**
     * Rung this run resumed *after* via the rung journal (-1 = fresh
     * run). Rungs up to and including this index were replayed from the
     * journal, not re-evaluated.
     */
    int resumedRung = -1;

    /** Total candidate-evaluation CPU-seconds across all rungs. */
    double cpuSeconds() const;

    /** Total candidates quarantined as poisoned (all rungs). */
    int poisonedCount() const;
};

/**
 * How candidate evaluations execute (see ExecutionMode on DseOptions):
 * in the calling process (the default), or sharded across supervised
 * worker subprocesses so a crashing/hanging/runaway candidate cannot
 * take down the exploration (or, in the service, other tenants' jobs).
 */
enum class ExecutionMode
{
    InProcess,
    Workers
};

/**
 * One remote candidate-evaluation request, as handed to the API layer's
 * worker supervisor. The dse layer stays below the api layer: it only
 * describes *what* to evaluate; spec serialization, pipes and process
 * lifecycle live behind the RemoteEvaluator callback.
 */
struct RemoteEvalRequest
{
    std::size_t index = 0; ///< candidate index (stable fault/retry identity)
    const arch::ArchConfig *arch = nullptr;

    /**
     * The rung (as recorded in DseRecord::rungReached): -1 = the
     * exhaustive rung and 0 = the screen, both started cold from the
     * partitioner; 1..N = race/polish, warm-started from `warmStarts`.
     * Every rung runs the SA budget below; the screen's is 0.
     */
    int rung = -1;
    int iters = 0;          ///< per-model SA iterations (0 = no SA)
    int chains = 1;         ///< SA chains
    std::uint64_t seed = 0; ///< SA seed

    /** Per-model warm-start mappings (rungs >= 1; null otherwise). */
    const std::vector<mapping::LpMapping> *warmStarts = nullptr;
};

/** Outcome of one remote evaluation. */
struct RemoteEvalOutcome
{
    /**
     * The candidate exhausted its retry budget (worker crashes, hangs,
     * or resource-budget kills) and is quarantined: the scheduler marks
     * its record infeasible-with-inf and `poisoned`, excludes it from
     * survivor sets, and the run continues.
     */
    bool poisoned = false;
    std::string poisonReason;

    std::vector<eval::EvalBreakdown> perModel; ///< one per model
    std::vector<mapping::LpMapping> mappings;  ///< next warm starts
};

/**
 * Evaluation callback for ExecutionMode::Workers, installed by the API
 * layer (see api::WorkerSupervisor). Must be thread-safe: the scheduler
 * calls it concurrently from its candidate tasks. May throw to abort the
 * whole run (a poisoned *candidate* is reported in the outcome instead).
 */
using RemoteEvaluator =
    std::function<RemoteEvalOutcome(const RemoteEvalRequest &)>;

/** Options of one DSE run. */
struct DseOptions
{
    DseAxes axes;

    /** Models to co-optimize for (the paper defaults to Transformer). */
    std::vector<const dnn::Graph *> models;

    /** Objective exponents MC^alpha * E^beta * D^gamma. */
    double alpha = 1.0;
    double beta = 1.0;
    double gamma = 1.0;

    /** Mapping-engine knobs applied per candidate (batch, SA budget...). */
    mapping::MappingOptions mapping;

    cost::CostParams costParams;

    /** Worker threads (0 = hardware concurrency). */
    int threads = 0;

    /**
     * Evaluate at most this many candidates (0 = all), subsampled with a
     * deterministic stride so every axis stays represented. Benches use
     * this to keep runtimes laptop-friendly.
     */
    std::size_t maxCandidates = 0;

    /** Multi-fidelity budget allocation of the outer loop. */
    DseSchedule schedule;

    /**
     * Cooperative cancellation, checked once per pool task (one
     * candidate, or one screen cohort of them) and never on the SA inner
     * loop. A cancelled run terminates quickly and still returns a
     * structurally valid DseResult: already-evaluated records keep their
     * deepest completed evaluation, skipped records are marked
     * infeasible, and the per-rung stats ledger is complete with
     * stats.cancelled set. Default-constructed = never cancelled.
     */
    common::StopToken stop;

    /**
     * Wall-clock budget in seconds (0 = none). When set, the run's stop
     * token is armed with a deadline: past it the run winds down exactly
     * like a cancellation but reports stats.truncated instead of
     * stats.cancelled — a valid best-so-far result with the rung ledger
     * intact, distinguishable from a user abort.
     */
    double deadlineSeconds = 0.0;

    /**
     * Write-ahead rung journal file (empty = no journaling). Every
     * cohort keep-decision appends a checksummed record of the survivor
     * set and warm-start mappings (see dse/journal.hh), and a finished
     * run appends one final record of its whole result. The exhaustive
     * ladder has no keep-decision, so it journals only the final record.
     */
    std::string journalPath;

    /**
     * Resume from `journalPath` instead of starting fresh: completed
     * rungs are replayed from the journal and evaluation continues at
     * the first unresolved rung. Because keep-decisions and rung seeds
     * are deterministic, the resumed run produces the bit-identical
     * final winner of an uninterrupted run. A missing/torn/foreign
     * journal degrades to a fresh run (with a warning), never an error.
     */
    bool resume = false;

    /**
     * Identity tag stored in every journal record (the API layer passes
     * the canonical spec hash). Resume refuses records with a different
     * tag, so a stale journal from another experiment is never replayed.
     */
    std::uint64_t journalTag = 0;

    /** Optional rung-granular progress stream (see DseProgressEvent). */
    DseProgressFn progress;

    /**
     * Candidate execution mode. Workers is honored only when `remoteEval`
     * is also set (the API layer wires a supervisor in; with no evaluator
     * the run degrades to in-process, never errors). Keep-decisions are
     * bit-deterministic either way: a worker-mode run's winner equals the
     * in-process winner whenever no candidate was poisoned.
     */
    ExecutionMode execution = ExecutionMode::InProcess;

    /** Out-of-process evaluator (set by the API layer; see above). */
    RemoteEvaluator remoteEval;

    /**
     * External worker pool to run candidate tasks on (nullptr = the run
     * creates its own pool of `threads` workers). The API layer's
     * ExplorationService passes its long-lived shared pool here so
     * concurrent jobs interleave on one machine-wide worker set instead
     * of stacking pools. The caller keeps ownership; the pool must
     * outlive the run.
     */
    ThreadPool *pool = nullptr;
};

/** Result of one candidate evaluation. */
struct DseRecord
{
    arch::ArchConfig arch;
    cost::CostBreakdown mc;
    Seconds delayGeo = 0.0; ///< geometric mean over models
    Joules energyGeo = 0.0; ///< geometric mean over models
    double objective = 0.0; ///< MC^a * E^b * D^g
    bool feasible = true;
    std::vector<eval::EvalBreakdown> perModel;

    /**
     * Workload-independent objective lower bound (MC exact; energy/delay
     * from the analytical per-layer segmentation-DP floors, see
     * cost::analyticLowerBound). No mapping of this architecture can
     * score below it.
     */
    double objectiveLowerBound = 0.0;

    /**
     * Explanatory decomposition of the bound (geomean across models):
     * the binding floor says *why* a candidate was pruned. Seconds are
     * comparable to each other and to delayGeo; refetch is the DRAM
     * traffic proven beyond the naive weights+outputs compulsory set.
     */
    double boundComputeSeconds = 0.0;
    double boundDramSeconds = 0.0;
    double boundNocSeconds = 0.0;
    double boundRefetchBytes = 0.0;

    /**
     * The mapping engine's SA started from the closed-form analytic
     * seed (MappingOptions::analyticSeed) rather than the plain stripe
     * T-Map for at least one model (result provenance).
     */
    bool seededAnalytic = false;

    /**
     * Deepest rung this candidate was evaluated at: 0 = screen,
     * 1..rungs = race rounds, rungs+1 = polish. -1 = the exhaustive rung
     * (one full-budget evaluation), and the value of a record that no
     * rung evaluated (a cancelled run).
     */
    int rungReached = -1;

    /** Dropped at the screen because its lower bound cannot win. */
    bool prunedByBound = false;

    /**
     * Worker-mode quarantine: the candidate's evaluation kept killing its
     * worker (crash, hang, or budget overrun) through every retry, so it
     * was recorded infeasible-with-inf and dropped from all survivor
     * sets instead of aborting the run. `poisonReason` says why.
     */
    bool poisoned = false;
    std::string poisonReason;

    /**
     * Total SA iterations actually executed for this candidate (all
     * rungs, models and chains). With plateau-aware termination
     * (SaOptions::plateauWindow) this can be well below the budgeted
     * rung iterations; it is still deterministic for any thread count.
     */
    int saIters = 0;

    /**
     * Seconds spent evaluating this candidate: thread CPU seconds in
     * process, elapsed wall seconds in worker mode (the CPU is spent in
     * the worker process). A screen cohort's task is split evenly over
     * its members.
     */
    double evalSeconds = 0.0;

    double edp() const { return energyGeo * delayGeo; }
};

/** All evaluated candidates plus the winner. */
struct DseResult
{
    std::vector<DseRecord> records;
    int bestIndex = -1;
    DseStats stats;

    const DseRecord &best() const;

    /** Index of the best record under different exponents (Fig. 6/7). */
    int bestUnder(double alpha, double beta, double gamma) const;

    /**
     * Write the per-candidate records as CSV (see recordsTable in
     * records.hh); optionally also write the per-rung DseStats table.
     * Implemented in records.cc. @return false on I/O failure.
     */
    bool writeCsv(const std::string &path,
                  const std::string &rung_stats_path = "") const;
};

/** Evaluate a single candidate (exposed for tests and Fig. 8). */
DseRecord evaluateCandidate(const arch::ArchConfig &cfg,
                            const DseOptions &options);

/** Run the full exploration. */
DseResult runDse(const DseOptions &options);

} // namespace gemini::dse

#endif // GEMINI_DSE_DSE_HH
