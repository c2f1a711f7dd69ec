#include "src/api/service.hh"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/api/json_reader.hh"
#include "src/api/results.hh"
#include "src/api/store.hh"
#include "src/api/supervisor.hh"
#include "src/common/subprocess.hh"
#include "src/common/fault_injection.hh"
#include "src/common/logging.hh"
#include "src/cost/cost_stack.hh"

namespace gemini::api {

using common::json::Value;

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Cancelled: return "cancelled";
      case JobState::Failed: return "failed";
    }
    return "?";
}

namespace {

constexpr std::pair<ExperimentResult::ErrorKind, const char *> kErrorKinds[] =
    {{ExperimentResult::ErrorKind::None, "none"},
     {ExperimentResult::ErrorKind::InvalidSpec, "invalid_spec"},
     {ExperimentResult::ErrorKind::Runtime, "runtime"}};

} // namespace

/**
 * A failed result carries no payload; otherwise the spec's mode picks
 * it: the DSE ledger, or the architecture, its cost and one mapping per
 * model. The reader accepts (and ignores) the other mode's keys.
 */
template <class Io>
void
describe(Io &io, ExperimentResult &x)
{
    int schema = kSchemaVersion;
    io.field("schema_version", schema);
    io.check(schema <= kSchemaVersion, "schema_version",
             "written by a newer build (" + std::to_string(schema) + ")");
    io.derived("name", x.spec.name);
    io.hex("spec_hash", x.specHash, "0x");
    io.field("from_cache", x.fromCache);
    io.field("cancelled", x.cancelled);
    io.field("truncated", x.truncated);
    io.field("error", x.error);
    io.named("error_kind", x.errorKind, "kind", kErrorKinds);
    io.required("spec", x.spec);
    const bool dse = x.spec.mode == ExperimentSpec::Mode::Dse;
    const auto payload = [&](const char *key, auto &value, bool carried) {
        if (carried && !x.failed())
            io.required(key, value);
        else if (Io::kReading)
            io.field(key, value);
    };
    payload("dse", x.dse, dse);
    payload("arch", x.mapArch, !dse);
    payload("mc", x.mapArchMc, !dse);
    payload("mappings", x.mappings, !dse);
}

Value
ExperimentResult::toJson() const
{
    ObjectWriter w;
    describe(w, const_cast<ExperimentResult &>(*this));
    return w.take();
}

std::optional<ExperimentResult>
ExperimentResult::fromJson(const Value &v, std::string *error)
{
    ExperimentResult res;
    ObjectReader r(v, "result", error);
    describe(r, res);
    if (!r.finish())
        return std::nullopt;
    return res;
}

/**
 * Shared state between a job's handle copies and its controller thread.
 * The result pointer doubles as the "finished" flag.
 */
struct JobHandle::Shared
{
    mutable std::mutex mu;
    std::condition_variable done;
    JobState state = JobState::Queued;
    common::StopSource stop;
    std::uint64_t specHash = 0;
    std::shared_ptr<const ExperimentResult> result;
    std::exception_ptr exception; ///< original throw of a Runtime failure

    void
    finish(JobState final_state, std::shared_ptr<const ExperimentResult> r)
    {
        std::lock_guard lock(mu);
        state = final_state;
        result = std::move(r);
        done.notify_all();
    }
};

JobState
JobHandle::state() const
{
    std::lock_guard lock(state_->mu);
    return state_->state;
}

std::uint64_t
JobHandle::specHash() const
{
    return state_->specHash;
}

void
JobHandle::cancel()
{
    state_->stop.requestStop();
}

const ExperimentResult &
JobHandle::wait()
{
    std::unique_lock lock(state_->mu);
    state_->done.wait(lock, [this] { return state_->result != nullptr; });
    return *state_->result;
}

std::shared_ptr<const ExperimentResult>
JobHandle::result() const
{
    std::lock_guard lock(state_->mu);
    return state_->result;
}

void
JobHandle::rethrow()
{
    const ExperimentResult &r = wait();
    std::exception_ptr ep;
    {
        std::lock_guard lock(state_->mu);
        ep = state_->exception;
    }
    if (ep)
        std::rethrow_exception(ep);
    if (r.errorKind == ExperimentResult::ErrorKind::InvalidSpec)
        throw std::invalid_argument(r.error);
}

ExplorationService::ExplorationService(int threads,
                                       std::shared_ptr<ResultStore> store)
    : pool_(threads <= 0 ? 0 : static_cast<std::size_t>(threads)),
      store_(std::move(store))
{
}

ExplorationService::~ExplorationService()
{
    std::vector<Controller> controllers;
    {
        std::lock_guard lock(mu_);
        controllers.swap(controllers_);
    }
    for (Controller &c : controllers)
        c.thread.join();
}

void
ExplorationService::reapControllersLocked(std::vector<std::thread> &joinable)
{
    // Long-lived services submit many jobs; finished controllers must
    // not accumulate as joinable handles until destruction. The done
    // flag is set as the controller's last action, so join() below
    // blocks at most for a thread epilogue.
    auto keep = controllers_.begin();
    for (auto it = controllers_.begin(); it != controllers_.end(); ++it) {
        if (it->done->load(std::memory_order_acquire)) {
            joinable.push_back(std::move(it->thread));
        } else {
            // Guard against self-move: assigning a joinable std::thread
            // onto itself terminates.
            if (keep != it)
                *keep = std::move(*it);
            ++keep;
        }
    }
    controllers_.erase(keep, controllers_.end());
}

JobHandle
ExplorationService::submit(ExperimentSpec spec, ProgressFn progress)
{
    SubmitOptions options;
    options.progress = std::move(progress);
    return submit(std::move(spec), std::move(options));
}

JobHandle
ExplorationService::submit(ExperimentSpec spec, SubmitOptions options)
{
    // canonicalText(), not toJson().canonical(): execution-control knobs
    // (the deadline) must not change the experiment's identity.
    const std::string canonical = spec.canonicalText();
    auto shared = std::make_shared<JobHandle::Shared>();
    shared->specHash = common::json::fnv1a64(canonical);

    std::vector<std::thread> finished;
    {
        std::lock_guard lock(mu_);
        reapControllersLocked(finished);
        const auto hit = cache_.find(shared->specHash);
        // The canonical-text comparison guards against 64-bit hash
        // collisions: a colliding different spec runs for real instead
        // of silently receiving another experiment's result.
        if (hit != cache_.end() &&
            hit->second.canonicalSpec == canonical) {
            // Identical resubmission: serve the cached result instantly.
            // The copy exists only to set the fromCache marker.
            auto cached =
                std::make_shared<ExperimentResult>(*hit->second.result);
            cached->fromCache = true;
            shared->state = JobState::Done;
            shared->result = std::move(cached);
        }
    }
    for (std::thread &t : finished)
        t.join();

    if (!shared->result && store_) {
        // Memory miss: consult the durable store. A hit warms the
        // in-memory cache so later resubmissions skip the disk.
        if (std::shared_ptr<const ExperimentResult> stored =
                store_->get(shared->specHash, canonical)) {
            {
                std::lock_guard lock(mu_);
                cache_.emplace(shared->specHash,
                               CacheEntry{canonical, stored});
            }
            auto cached = std::make_shared<ExperimentResult>(*stored);
            cached->fromCache = true;
            shared->state = JobState::Done;
            shared->result = std::move(cached);
        }
    }
    if (shared->result)
        return JobHandle(std::move(shared));

    Controller controller;
    controller.done = std::make_shared<std::atomic<bool>>(false);
    controller.thread =
        std::thread([this, shared, done = controller.done,
                     spec = std::move(spec),
                     options = std::move(options)]() mutable {
            runJob(shared, std::move(spec), std::move(options));
            done->store(true, std::memory_order_release);
        });
    {
        std::lock_guard lock(mu_);
        controllers_.push_back(std::move(controller));
    }
    return JobHandle(std::move(shared));
}

void
ExplorationService::runJob(std::shared_ptr<JobHandle::Shared> job,
                           ExperimentSpec spec, SubmitOptions options)
{
    {
        std::lock_guard lock(job->mu);
        job->state = JobState::Running;
    }

    auto result = std::make_shared<ExperimentResult>();
    result->specHash = job->specHash;

    std::string error;
    std::optional<ResolvedExperiment> resolved =
        resolveExperiment(spec, &error);
    result->spec = std::move(spec);
    if (!resolved) {
        result->error = std::move(error);
        result->errorKind = ExperimentResult::ErrorKind::InvalidSpec;
        job->finish(JobState::Failed, std::move(result));
        return;
    }

    try {
        // Failpoint for the crash/failure matrix: lets tests exercise a
        // run that throws after validation passed.
        common::fault::throwIfDue("service.run");
        runJobBody(job, *result, options, *resolved);
    } catch (const std::exception &e) {
        {
            std::lock_guard lock(job->mu);
            job->exception = std::current_exception();
        }
        result->error = e.what();
        result->errorKind = ExperimentResult::ErrorKind::Runtime;
        job->finish(JobState::Failed, std::move(result));
        return;
    } catch (...) {
        {
            std::lock_guard lock(job->mu);
            job->exception = std::current_exception();
        }
        result->error = "run threw a non-std::exception";
        result->errorKind = ExperimentResult::ErrorKind::Runtime;
        job->finish(JobState::Failed, std::move(result));
        return;
    }

    const JobState final_state =
        result->cancelled ? JobState::Cancelled : JobState::Done;
    if (final_state == JobState::Done && !result->truncated) {
        {
            std::lock_guard lock(mu_);
            cache_.emplace(job->specHash,
                           CacheEntry{result->spec.canonicalText(),
                                      result});
        }
        if (store_) {
            std::string serr;
            if (store_->put(*result, &serr))
                store_->removeJournal(job->specHash); // spent: run is done
            else
                GEMINI_WARN("store: result not persisted: ", serr);
        }
    }
    // Truncated (deadline) results are deliberately NOT cached or
    // stored: they are valid but incomplete, and their journal stays so
    // a resume with more time continues the run.
    job->finish(final_state, std::move(result));
}

void
ExplorationService::runJobBody(const std::shared_ptr<JobHandle::Shared> &job,
                               ExperimentResult &result,
                               const SubmitOptions &options,
                               const ResolvedExperiment &resolved)
{
    const ExperimentSpec &s = result.spec;
    common::StopToken stop = job->stop.token();
    const ProgressFn &progress = options.progress;

    if (s.mode == ExperimentSpec::Mode::Dse) {
        dse::DseOptions dopts;
        dopts.axes = s.axes;
        dopts.schedule = s.schedule;
        dopts.maxCandidates = s.maxCandidates;
        dopts.alpha = s.alpha;
        dopts.beta = s.beta;
        dopts.gamma = s.gamma;
        dopts.mapping = s.mapping;
        dopts.costParams = s.costParams;
        dopts.threads = s.threads;
        dopts.models.reserve(resolved.models.size());
        for (const dnn::Graph &g : resolved.models)
            dopts.models.push_back(&g);
        dopts.stop = stop;
        dopts.progress = progress;
        dopts.pool = &pool_;
        dopts.deadlineSeconds = s.deadlineSeconds;
        if (store_) {
            // Crash safety: the spec sidecar enables `gemini resume
            // <hash>`, the journal makes the run itself resumable.
            store_->putSpec(s, job->specHash);
            dopts.journalPath = store_->journalPath(job->specHash);
            dopts.journalTag = job->specHash;
            dopts.resume = options.resume;
        }

        // Supervised execution: evaluations run in worker subprocesses
        // behind a supervisor. Must outlive runDse; if the first worker
        // cannot be brought up, degrade to in-process rather than fail
        // the job (winners are bit-identical either way).
        std::unique_ptr<WorkerSupervisor> supervisor;
        if (s.execution.mode == ExecutionSpec::Mode::Workers) {
            SupervisorOptions sopts;
            sopts.workers = s.execution.workers > 0
                                ? s.execution.workers
                                : static_cast<int>(pool_.threadCount());
            sopts.maxRetries = s.execution.maxRetries;
            sopts.candidateDeadlineSeconds =
                s.execution.candidateDeadlineSeconds;
            sopts.candidateRssMiB = s.execution.candidateRssMiB;
            sopts.specText = s.toJson().dump();
            const char *bin = std::getenv("GEMINI_WORKER_BIN");
            sopts.workerArgv = {bin && *bin ? std::string(bin)
                                            : common::selfExePath(),
                                "worker"};
            auto sup = std::make_unique<WorkerSupervisor>(sopts);
            std::string serr;
            if (sup->start(&serr)) {
                supervisor = std::move(sup);
                dopts.execution = dse::ExecutionMode::Workers;
                dopts.remoteEval =
                    [sup = supervisor.get()](
                        const dse::RemoteEvalRequest &rq) {
                        return sup->evaluate(rq);
                    };
            } else {
                GEMINI_WARN("worker mode unavailable (", serr,
                            "); degrading to in-process execution");
            }
        }

        result.dse = dse::runDse(dopts);
        result.cancelled = result.dse.stats.cancelled;
        result.truncated = result.dse.stats.truncated;
    } else {
        // Map mode: one engine run per model, driven serially from this
        // controller (chain-level parallelism inside the engine is the
        // spec's sa_threads knob). Progress is one entered/finished pair
        // per model — serial, hence deterministic.
        if (s.deadlineSeconds > 0.0) {
            // The deadline arms a local copy of the token; engines see it
            // through MappingOptions::stop and drain at chain boundaries.
            stop = stop.withDeadline(
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(s.deadlineSeconds)));
        }
        result.mapArch = *resolved.archConfig;
        result.mapArchMc =
            cost::McEvaluator(s.costParams).evaluate(result.mapArch);
        // One interconnect model for every model's engine, built after
        // the first progress event as each engine's own used to be.
        std::optional<noc::InterconnectModel> noc;
        for (std::size_t i = 0; i < resolved.models.size(); ++i) {
            const dnn::Graph &model = resolved.models[i];
            if (progress) {
                ProgressEvent entered;
                entered.kind = ProgressEvent::Kind::RungEntered;
                entered.rung = "map:" + model.name();
                entered.entered = 1;
                entered.bestObjective =
                    std::numeric_limits<double>::infinity();
                progress(entered);
            }
            mapping::MappingOptions mo = s.mapping;
            mo.stop = stop;
            if (!noc)
                noc.emplace(result.mapArch);
            mapping::MappingEngine engine(model, *noc, mo);
            result.mappings.push_back(engine.run());
            if (progress) {
                const mapping::MappingResult &mr = result.mappings.back();
                ProgressEvent finished;
                finished.kind = ProgressEvent::Kind::RungFinished;
                finished.rung = "map:" + model.name();
                finished.entered = 1;
                finished.advanced = 1;
                finished.bestObjective = cost::CostStack::saCost(
                    mr.groups, s.beta, s.gamma);
                progress(finished);
            }
        }
        result.cancelled = stop.cancelRequested();
        result.truncated = stop.deadlineExpired();
    }
}

std::shared_ptr<const ExperimentResult>
ExplorationService::lookupCached(const ExperimentSpec &spec)
{
    const std::string canonical = spec.canonicalText();
    const std::uint64_t hash = common::json::fnv1a64(canonical);
    std::shared_ptr<const ExperimentResult> found;
    {
        std::lock_guard lock(mu_);
        const auto hit = cache_.find(hash);
        if (hit != cache_.end() && hit->second.canonicalSpec == canonical)
            found = hit->second.result;
    }
    if (!found && store_) {
        found = store_->get(hash, canonical);
        if (found) {
            std::lock_guard lock(mu_);
            cache_.emplace(hash, CacheEntry{canonical, found});
        }
    }
    if (!found)
        return nullptr;
    auto marked = std::make_shared<ExperimentResult>(*found);
    marked->fromCache = true;
    return marked;
}

std::size_t
ExplorationService::cacheSize() const
{
    std::lock_guard lock(mu_);
    return cache_.size();
}

void
ExplorationService::clearCache()
{
    std::lock_guard lock(mu_);
    cache_.clear();
}

} // namespace gemini::api
