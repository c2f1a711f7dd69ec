#include "src/api/scheduler.hh"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "src/common/logging.hh"

namespace gemini::api {

std::string
jobId(std::uint64_t specHash, const std::string &tenant)
{
    return common::json::hex64(specHash) + "-" + tenant;
}

bool
validTenantName(const std::string &tenant)
{
    if (tenant.empty() || tenant.size() > 64)
        return false;
    return std::all_of(tenant.begin(), tenant.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
               c == '_' || c == '-';
    });
}

JobScheduler::JobScheduler(ExplorationService &service,
                           SchedulerOptions options)
    : service_(service), options_(options)
{
    options_.maxConcurrentJobs = std::max(1, options_.maxConcurrentJobs);
    options_.quantum = std::max(1, options_.quantum);
    paused_ = options_.startPaused;
}

void
JobScheduler::resume()
{
    std::unique_lock lock(mu_);
    if (!paused_)
        return;
    paused_ = false;
    pumpLocked();
    cv_.notify_all();
}

JobScheduler::~JobScheduler()
{
    stop(/*cancelJobs=*/true);
}

bool
JobScheduler::stopping() const
{
    std::lock_guard lock(mu_);
    return stopping_;
}

std::size_t
JobScheduler::pendingJobs()
{
    std::lock_guard lock(mu_);
    std::size_t n = 0;
    for (const auto &[name, tenant] : tenants_)
        n += tenant.queue.size();
    return n;
}

std::size_t
JobScheduler::runningJobs()
{
    std::lock_guard lock(mu_);
    return static_cast<std::size_t>(running_);
}

std::shared_ptr<JobScheduler::Job>
JobScheduler::findLocked(const std::string &id)
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

JobInfo
JobScheduler::infoLocked(const Job &job) const
{
    JobInfo info;
    info.id = job.id;
    info.specHash = job.hash;
    info.tenant = job.request.tenant;
    info.name = job.request.spec.name;
    info.priority = job.request.priority;
    info.weight = job.request.weight;
    info.state = job.state;
    info.fromCache = job.result && job.result->fromCache;
    info.submitSeq = job.submitSeq;
    info.dispatchSeq = job.dispatchSeq;
    info.events = job.events.size();
    info.error = job.error;
    if (job.state == JobState::Queued) {
        const auto t = tenants_.find(job.request.tenant);
        if (t != tenants_.end()) {
            const auto &q = t->second.queue;
            for (std::size_t i = 0; i < q.size(); ++i)
                if (q[i]->id == job.id) {
                    info.queuePosition = i;
                    break;
                }
        }
    }
    return info;
}

/**
 * The DRR core. Invariants: rotation_ holds exactly the tenants with a
 * nonempty queue, in first-enqueue order; cursor_ points at the tenant
 * whose "visit" is in progress. A visit tops the tenant's deficit up by
 * quantum x weight once, then dispatches one job per deficit unit until
 * the deficit or the queue runs dry — only then does the cursor move.
 * When the concurrency slots fill mid-visit, the loop simply returns;
 * the next pump (a job finished) resumes the same visit with the
 * remaining deficit, so slot availability never distorts the ratios —
 * and nothing here reads a clock or a thread id, which is what makes
 * dispatch order a pure function of the submission sequence.
 */
void
JobScheduler::pumpLocked()
{
    std::vector<std::shared_ptr<Job>> ready;
    while (!stopping_ && !paused_ &&
           running_ < options_.maxConcurrentJobs && !rotation_.empty()) {
        if (cursor_ >= rotation_.size())
            cursor_ = 0;
        Tenant &tenant = tenants_[rotation_[cursor_]];
        if (tenant.deficit < 1)
            tenant.deficit +=
                options_.quantum * std::max(1, tenant.weight);

        while (tenant.deficit >= 1 && !tenant.queue.empty() &&
               running_ < options_.maxConcurrentJobs) {
            std::shared_ptr<Job> job = tenant.queue.front();
            tenant.queue.pop_front();
            tenant.deficit -= 1;
            dispatchLocked(job);
            ready.push_back(std::move(job));
        }

        if (tenant.queue.empty()) {
            // Idle tenants carry no credit into their next burst.
            tenant.deficit = 0;
            rotation_.erase(rotation_.begin() +
                            static_cast<std::ptrdiff_t>(cursor_));
            if (cursor_ >= rotation_.size())
                cursor_ = 0;
        } else if (tenant.deficit < 1) {
            cursor_ = (cursor_ + 1) % rotation_.size();
        }
        // else: slots filled mid-visit — resume here on the next pump.
    }

    // The service submit (store I/O, controller bookkeeping) happens
    // outside mu_: a service controller thread may be blocked on our
    // progress callback, and submit() joining it while we hold mu_ would
    // deadlock.
    if (ready.empty())
        return;
    mu_.unlock();
    for (const std::shared_ptr<Job> &job : ready) {
        SubmitOptions options;
        options.resume = job->request.resume;
        options.progress = [this, job](const ProgressEvent &event) {
            std::lock_guard lock(mu_);
            job->events.push_back(event);
            cv_.notify_all();
        };
        JobHandle handle =
            service_.submit(job->request.spec, std::move(options));

        // Spawn and register the waiter under mu_ (spawning blocks on
        // nothing): the waiter needs mu_ to finish the job, so it is in
        // waiters_ before the job can turn terminal. Otherwise a job that
        // completes at once (a service cache hit, e.g. the same spec
        // under another tenant) could let stop() drain waiters_ before
        // this thread registers the waiter, and the scheduler would be
        // destroyed with a joinable thread.
        std::lock_guard lock(mu_);
        job->handle = handle;
        if (job->cancelRequested)
            handle.cancel();
        Waiter waiter;
        waiter.done = std::make_shared<std::atomic<bool>>(false);
        waiter.thread = std::thread(
            [this, job, handle, done = waiter.done]() mutable {
                handle.wait();
                {
                    std::unique_lock lock(mu_);
                    job->handle = handle;
                    finishJobLocked(job);
                    pumpLocked(); // NOTE: may unlock/relock mu_
                    cv_.notify_all();
                }
                done->store(true, std::memory_order_release);
            });
        waiters_.push_back(std::move(waiter));
    }
    mu_.lock();
}

void
JobScheduler::dispatchLocked(const std::shared_ptr<Job> &job)
{
    job->state = JobState::Running;
    job->dispatchSeq = ++dispatchCounter_;
    ++running_;
}

void
JobScheduler::finishJobLocked(const std::shared_ptr<Job> &job)
{
    std::shared_ptr<const ExperimentResult> result = job->handle.result();
    job->result = result;
    if (!result) {
        job->state = JobState::Failed;
        job->error = "job finished without a result (service bug)";
    } else if (result->failed()) {
        job->state = JobState::Failed;
        job->error = result->error;
    } else if (result->cancelled) {
        job->state = JobState::Cancelled;
    } else {
        job->state = JobState::Done;
    }
    --running_;
}

void
JobScheduler::reapWaitersLocked(std::vector<std::thread> &joinable)
{
    auto keep = waiters_.begin();
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
        if (it->done->load(std::memory_order_acquire)) {
            joinable.push_back(std::move(it->thread));
        } else {
            if (keep != it)
                *keep = std::move(*it);
            ++keep;
        }
    }
    waiters_.erase(keep, waiters_.end());
}

std::optional<JobInfo>
JobScheduler::submit(JobRequest request, std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };
    if (!validTenantName(request.tenant))
        return fail("tenant: expected [A-Za-z0-9._-]{1,64}, got \"" +
                    request.tenant + "\"");
    if (request.weight < 1)
        return fail("weight: must be >= 1, got " +
                    std::to_string(request.weight));
    const std::string problems = request.spec.validate();
    if (!problems.empty())
        return fail("invalid spec:\n" + problems);

    const std::string canonical = request.spec.canonicalText();
    const std::uint64_t hash = common::json::fnv1a64(canonical);
    const std::string id = jobId(hash, request.tenant);

    // Admission dedup stage 1 — the known-result fast path (service
    // cache, then store). Outside mu_: lookupCached takes the service
    // lock and may touch disk.
    std::shared_ptr<const ExperimentResult> cached =
        service_.lookupCached(request.spec);

    std::vector<std::thread> finished;
    std::optional<JobInfo> admitted;
    bool persistMeta = false;
    {
        std::unique_lock lock(mu_);
        reapWaitersLocked(finished);
        if (stopping_) {
            lock.unlock();
            for (std::thread &t : finished)
                t.join();
            return fail("scheduler is shutting down");
        }

        // Admission dedup stage 2 — an active (or completed) duplicate
        // of the same tenant: attach instead of queueing a second run.
        // Failed/cancelled terminal jobs do NOT dedup: resubmission is
        // the retry path, and replaces the dead record.
        if (const std::shared_ptr<Job> existing = findLocked(id)) {
            if (!terminalLocked(*existing) ||
                existing->state == JobState::Done) {
                JobInfo info = infoLocked(*existing);
                info.deduped = true;
                admitted = info;
            }
        }

        if (!admitted) {
            auto job = std::make_shared<Job>();
            job->request = std::move(request);
            job->id = id;
            job->hash = hash;
            job->canonical = canonical;
            job->submitSeq = ++submitCounter_;
            jobs_[id] = job; // replaces a failed/cancelled predecessor
            bySubmit_.push_back(job);

            if (cached) {
                job->state = JobState::Done;
                job->result = std::move(cached);
            } else {
                Tenant &tenant = tenants_[job->request.tenant];
                tenant.weight = job->request.weight;
                // Priority order within the tenant: higher first,
                // submission order among equals (stable insert).
                auto pos = tenant.queue.begin();
                while (pos != tenant.queue.end() &&
                       (*pos)->request.priority >= job->request.priority)
                    ++pos;
                tenant.queue.insert(pos, job);
                if (std::find(rotation_.begin(), rotation_.end(),
                              job->request.tenant) == rotation_.end())
                    rotation_.push_back(job->request.tenant);
                persistMeta = true;
                pumpLocked();
            }
            admitted = infoLocked(*job);
            cv_.notify_all();
        }
    }
    for (std::thread &t : finished)
        t.join();

    if (persistMeta && service_.store()) {
        // Identity sidecar for crash recovery: a restarted daemon
        // re-admits this job under the same tenant/priority/weight.
        common::json::Value meta = common::json::Value::object();
        meta.set("tenant", admitted->tenant);
        meta.set("priority", admitted->priority);
        meta.set("weight", admitted->weight);
        service_.store()->putJobMeta(hash, meta);
    }
    return admitted;
}

std::optional<JobInfo>
JobScheduler::info(const std::string &id)
{
    std::lock_guard lock(mu_);
    const std::shared_ptr<Job> job = findLocked(id);
    if (!job)
        return std::nullopt;
    return infoLocked(*job);
}

std::vector<JobInfo>
JobScheduler::list()
{
    std::lock_guard lock(mu_);
    std::vector<JobInfo> infos;
    infos.reserve(bySubmit_.size());
    for (const std::shared_ptr<Job> &job : bySubmit_) {
        // A replaced record (failed job resubmitted) stays in bySubmit_
        // but is no longer the job under its id; skip the shadow.
        if (jobs_.count(job->id) && jobs_.at(job->id) == job)
            infos.push_back(infoLocked(*job));
    }
    return infos;
}

bool
JobScheduler::cancel(const std::string &id)
{
    std::lock_guard lock(mu_);
    const std::shared_ptr<Job> job = findLocked(id);
    if (!job)
        return false;
    if (terminalLocked(*job))
        return true; // idempotent no-op
    if (job->state == JobState::Queued) {
        Tenant &tenant = tenants_[job->request.tenant];
        const auto it = std::find(tenant.queue.begin(),
                                  tenant.queue.end(), job);
        if (it != tenant.queue.end())
            tenant.queue.erase(it);
        if (tenant.queue.empty()) {
            tenant.deficit = 0;
            const auto rot = std::find(rotation_.begin(), rotation_.end(),
                                       job->request.tenant);
            if (rot != rotation_.end()) {
                const std::size_t idx = static_cast<std::size_t>(
                    rot - rotation_.begin());
                rotation_.erase(rot);
                if (idx < cursor_)
                    --cursor_;
                if (cursor_ >= rotation_.size())
                    cursor_ = 0;
            }
        }
        job->state = JobState::Cancelled;
        cv_.notify_all();
        return true;
    }
    // Running: cooperative request; the waiter observes the drain.
    job->cancelRequested = true;
    if (job->handle.valid())
        job->handle.cancel();
    return true;
}

std::shared_ptr<const ExperimentResult>
JobScheduler::result(const std::string &id)
{
    std::lock_guard lock(mu_);
    const std::shared_ptr<Job> job = findLocked(id);
    return job ? job->result : nullptr;
}

std::vector<JobEvent>
JobScheduler::events(const std::string &id, std::uint64_t afterSeq)
{
    std::lock_guard lock(mu_);
    std::vector<JobEvent> out;
    const std::shared_ptr<Job> job = findLocked(id);
    if (!job)
        return out;
    for (std::size_t i = static_cast<std::size_t>(afterSeq);
         i < job->events.size(); ++i)
        out.push_back(JobEvent{i + 1, job->events[i]});
    return out;
}

std::vector<JobEvent>
JobScheduler::waitEvents(const std::string &id, std::uint64_t afterSeq,
                         double timeoutSeconds)
{
    std::unique_lock lock(mu_);
    const std::shared_ptr<Job> job = findLocked(id);
    std::vector<JobEvent> out;
    if (!job)
        return out;
    cv_.wait_for(lock,
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::duration<double>(
                         std::max(0.0, timeoutSeconds))),
                 [&] {
                     return job->events.size() > afterSeq ||
                            terminalLocked(*job) || stopping_;
                 });
    for (std::size_t i = static_cast<std::size_t>(afterSeq);
         i < job->events.size(); ++i)
        out.push_back(JobEvent{i + 1, job->events[i]});
    return out;
}

bool
JobScheduler::wait(const std::string &id, double timeoutSeconds)
{
    std::unique_lock lock(mu_);
    const std::shared_ptr<Job> job = findLocked(id);
    if (!job)
        return false;
    const auto terminal = [&] { return terminalLocked(*job); };
    if (timeoutSeconds < 0.0)
        cv_.wait(lock, terminal);
    else
        cv_.wait_for(lock,
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::duration<double>(timeoutSeconds)),
                     terminal);
    return terminalLocked(*job);
}

int
JobScheduler::recoverInterrupted()
{
    const std::shared_ptr<ResultStore> &store = service_.store();
    if (!store)
        return 0;
    int recovered = 0;
    for (const std::uint64_t hash : store->orphanJournals()) {
        std::string error;
        std::optional<ExperimentSpec> spec =
            store->loadSpec(hash, &error);
        if (!spec) {
            GEMINI_WARN("recovery: journal ", common::json::hex64(hash),
                        " has no loadable spec sidecar (", error,
                        "); leaving it for manual `gemini resume`");
            continue;
        }
        JobRequest request;
        request.resume = true;
        request.spec = std::move(*spec);
        if (const std::optional<common::json::Value> meta =
                store->loadJobMeta(hash)) {
            if (const auto *t = meta->find("tenant");
                t && t->isString() && validTenantName(t->asString()))
                request.tenant = t->asString();
            if (const auto *p = meta->find("priority"); p && p->isNumber())
                request.priority = static_cast<int>(p->asNumber());
            if (const auto *w = meta->find("weight");
                w && w->isNumber() && w->asNumber() >= 1)
                request.weight = static_cast<int>(w->asNumber());
        }
        if (submit(std::move(request), &error)) {
            ++recovered;
        } else {
            GEMINI_WARN("recovery: cannot re-admit journal ",
                        common::json::hex64(hash), ": ", error);
        }
    }
    return recovered;
}

void
JobScheduler::stop(bool cancelJobs)
{
    std::vector<std::thread> joinable;
    {
        std::unique_lock lock(mu_);
        if (!stopping_) {
            if (paused_) { // a paused drain would never finish
                paused_ = false;
                if (!cancelJobs)
                    pumpLocked();
            }
            if (cancelJobs) {
                stopping_ = true; // halts the pump: nothing new dispatches
                for (auto &[name, tenant] : tenants_) {
                    for (const std::shared_ptr<Job> &job : tenant.queue) {
                        job->state = JobState::Cancelled;
                    }
                    tenant.queue.clear();
                    tenant.deficit = 0;
                }
                rotation_.clear();
                cursor_ = 0;
                for (const auto &[id, job] : jobs_) {
                    if (job->state != JobState::Running)
                        continue;
                    job->cancelRequested = true;
                    if (job->handle.valid())
                        job->handle.cancel();
                }
            }
            cv_.notify_all();
            // Drain: running jobs finish (cancelled cooperatively or
            // normally); in drain mode the pump keeps dispatching until
            // the queues are dry.
            cv_.wait(lock, [&] {
                if (running_ > 0)
                    return false;
                for (const auto &[name, tenant] : tenants_)
                    if (!tenant.queue.empty())
                        return false;
                return true;
            });
            stopping_ = true;
        }
        reapWaitersLocked(joinable);
        // Any waiter not yet flagged done is in its epilogue (the job
        // is finished — running_ is 0); join it too.
        for (Waiter &w : waiters_)
            joinable.push_back(std::move(w.thread));
        waiters_.clear();
    }
    for (std::thread &t : joinable)
        if (t.joinable())
            t.join();
}

} // namespace gemini::api
