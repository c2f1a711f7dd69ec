/**
 * @file
 * Tests for the multi-tenant fair-share JobScheduler: weighted
 * deficit-round-robin dispatch ratios, deterministic dispatch/completion
 * order at any service thread count, per-tenant priorities, admission
 * dedup against the cache and the store, cooperative cancel, and
 * crash recovery via orphan rung journals.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/scheduler.hh"
#include "src/api/service.hh"
#include "src/api/store.hh"
#include "src/common/fault_injection.hh"
#include "src/common/json.hh"

namespace gemini::api {
namespace {

namespace fs = std::filesystem;
namespace fault = common::fault;

/** Fast map-mode spec (one tiny model on a preset arch), unique per tag. */
ExperimentSpec
quickSpec(const std::string &tag)
{
    ExperimentSpec spec;
    spec.name = "sched-" + tag; // name is identity: distinct spec hashes
    spec.mode = ExperimentSpec::Mode::Map;
    spec.models = {{.zoo = "tiny_conv", .file = ""}};
    spec.arch.preset = "tiny";
    spec.mapping.batch = 2;
    spec.mapping.sa.iterations = 50;
    spec.mapping.maxGroupLayers = 4;
    spec.threads = 2;
    return spec;
}

/** The tiny DSE spec (4 candidates) for progress-event tests. */
ExperimentSpec
tinyDseSpec(const std::string &tag)
{
    ExperimentSpec spec;
    spec.name = "sched-dse-" + tag;
    spec.mode = ExperimentSpec::Mode::Dse;
    spec.models = {{.zoo = "tiny_conv", .file = ""}};
    spec.axes.topsTarget = 1.0;
    spec.axes.xCuts = {1, 2};
    spec.axes.yCuts = {1};
    spec.axes.dramGBpsPerTops = {2.0};
    spec.axes.nocGBps = {16, 32};
    spec.axes.d2dRatio = {0.5};
    spec.axes.glbKiB = {256};
    spec.axes.macsPerCore = {256};
    spec.mapping.batch = 2;
    spec.mapping.sa.iterations = 40;
    spec.mapping.maxGroupLayers = 4;
    spec.threads = 2;
    return spec;
}

JobRequest
request(const std::string &tenant, const std::string &tag, int priority = 0,
        int weight = 1)
{
    JobRequest rq;
    rq.tenant = tenant;
    rq.priority = priority;
    rq.weight = weight;
    rq.spec = quickSpec(tag);
    return rq;
}

class JobSchedulerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("gemini_sched_") + info->test_suite_name() +
                 "_" + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fault::reset();
        fs::remove_all(dir_);
    }

    std::string dir_;
};

TEST_F(JobSchedulerTest, IdAndTenantGrammar)
{
    EXPECT_EQ(jobId(0xabcull, "alice"), "0000000000000abc-alice");
    EXPECT_TRUE(validTenantName("team-a.prod_1"));
    EXPECT_FALSE(validTenantName(""));
    EXPECT_FALSE(validTenantName("has space"));
    EXPECT_FALSE(validTenantName("slash/y"));
    EXPECT_FALSE(validTenantName(std::string(65, 'a')));
}

TEST_F(JobSchedulerTest, RejectsInvalidAdmissions)
{
    ExplorationService service(2);
    JobScheduler scheduler(service);
    std::string error;

    JobRequest bad = request("bad tenant!", "a");
    EXPECT_FALSE(scheduler.submit(bad, &error).has_value());
    EXPECT_NE(error.find("tenant"), std::string::npos);

    JobRequest zeroWeight = request("t", "b", 0, /*weight=*/0);
    EXPECT_FALSE(scheduler.submit(zeroWeight, &error).has_value());
    EXPECT_NE(error.find("weight"), std::string::npos);

    JobRequest badSpec = request("t", "c");
    badSpec.spec.models.clear();
    EXPECT_FALSE(scheduler.submit(badSpec, &error).has_value());
    EXPECT_NE(error.find("invalid spec"), std::string::npos);
}

/**
 * The DRR ratio contract: tenants with weights 3:1, both with deep
 * queues, dispatch 3:1 while both have work. startPaused makes the
 * whole submission batch one atomic scheduling round, so the expected
 * dispatch sequence is exact, not statistical.
 */
TEST_F(JobSchedulerTest, WeightedFairShareRatios)
{
    ExplorationService service(2);
    SchedulerOptions options;
    options.maxConcurrentJobs = 1;
    options.startPaused = true;
    JobScheduler scheduler(service, options);

    std::string error;
    std::vector<std::string> heavy, light;
    for (int i = 0; i < 6; ++i) {
        const auto info = scheduler.submit(
            request("heavy", "h" + std::to_string(i), 0, 3), &error);
        ASSERT_TRUE(info.has_value()) << error;
        heavy.push_back(info->id);
    }
    for (int i = 0; i < 2; ++i) {
        const auto info = scheduler.submit(
            request("light", "l" + std::to_string(i), 0, 1), &error);
        ASSERT_TRUE(info.has_value()) << error;
        light.push_back(info->id);
    }
    EXPECT_EQ(scheduler.pendingJobs(), 8u);

    scheduler.resume();
    for (const auto &id : heavy)
        EXPECT_TRUE(scheduler.wait(id, 120.0));
    for (const auto &id : light)
        EXPECT_TRUE(scheduler.wait(id, 120.0));

    // Reconstruct dispatch order from dispatchSeq: h0 h1 h2 l0 h3 h4 h5 l1
    // (heavy's visit spends deficit 3, then light's 1, and so on).
    std::map<std::uint64_t, std::string> order;
    for (const JobInfo &info : scheduler.list()) {
        ASSERT_GT(info.dispatchSeq, 0u) << info.id;
        order[info.dispatchSeq] = info.tenant;
    }
    std::vector<std::string> tenants;
    for (const auto &[seq, tenant] : order)
        tenants.push_back(tenant);
    const std::vector<std::string> expected = {"heavy", "heavy", "heavy",
                                               "light", "heavy", "heavy",
                                               "heavy", "light"};
    EXPECT_EQ(tenants, expected);
}

/**
 * Determinism contract: with maxConcurrentJobs = 1 the completion order
 * equals the dispatch order, and the dispatch order is a pure function
 * of the submission sequence — so it is identical at any service thread
 * count.
 */
TEST_F(JobSchedulerTest, DispatchOrderIsThreadCountInvariant)
{
    std::vector<std::vector<std::string>> orders;
    for (const int threads : {1, 2, 4}) {
        ExplorationService service(threads);
        SchedulerOptions options;
        options.maxConcurrentJobs = 1;
        options.startPaused = true;
        JobScheduler scheduler(service, options);

        std::string error;
        std::vector<std::string> ids;
        // Interleaved tenants, mixed weights and priorities.
        const struct
        {
            const char *tenant;
            const char *tag;
            int priority;
            int weight;
        } subs[] = {
            {"a", "1", 0, 2}, {"b", "1", 0, 1}, {"a", "2", 5, 2},
            {"c", "1", 0, 1}, {"b", "2", 1, 1}, {"a", "3", 0, 2},
        };
        for (const auto &s : subs) {
            const auto info = scheduler.submit(
                request(s.tenant, s.tag, s.priority, s.weight), &error);
            ASSERT_TRUE(info.has_value()) << error;
            ids.push_back(info->id);
        }
        scheduler.resume();
        for (const auto &id : ids)
            ASSERT_TRUE(scheduler.wait(id, 120.0)) << id;

        std::map<std::uint64_t, std::string> bySeq;
        for (const JobInfo &info : scheduler.list())
            bySeq[info.dispatchSeq] = info.id;
        std::vector<std::string> order;
        for (const auto &[seq, id] : bySeq)
            order.push_back(id);
        orders.push_back(std::move(order));
    }
    EXPECT_EQ(orders[0], orders[1]);
    EXPECT_EQ(orders[0], orders[2]);
}

TEST_F(JobSchedulerTest, PriorityOrdersWithinTenantNotAcross)
{
    ExplorationService service(2);
    SchedulerOptions options;
    options.startPaused = true;
    JobScheduler scheduler(service, options);

    std::string error;
    const auto low = scheduler.submit(request("t", "low", 0), &error);
    const auto high = scheduler.submit(request("t", "high", 9), &error);
    const auto mid = scheduler.submit(request("t", "mid", 5), &error);
    ASSERT_TRUE(low && high && mid) << error;

    // Queue positions reflect priority before anything dispatches.
    EXPECT_EQ(scheduler.info(high->id)->queuePosition, 0u);
    EXPECT_EQ(scheduler.info(mid->id)->queuePosition, 1u);
    EXPECT_EQ(scheduler.info(low->id)->queuePosition, 2u);

    scheduler.resume();
    ASSERT_TRUE(scheduler.wait(low->id, 120.0));
    EXPECT_LT(scheduler.info(high->id)->dispatchSeq,
              scheduler.info(mid->id)->dispatchSeq);
    EXPECT_LT(scheduler.info(mid->id)->dispatchSeq,
              scheduler.info(low->id)->dispatchSeq);
}

TEST_F(JobSchedulerTest, AdmissionDedupAgainstCacheAndActiveJobs)
{
    auto store = std::make_shared<ResultStore>(dir_);
    ExplorationService service(2, store);
    JobScheduler scheduler(service);

    std::string error;
    const auto first = scheduler.submit(request("t", "same"), &error);
    ASSERT_TRUE(first.has_value()) << error;
    ASSERT_TRUE(scheduler.wait(first->id, 120.0));
    EXPECT_EQ(scheduler.info(first->id)->state, JobState::Done);

    // Identical resubmission by the same tenant: attaches, Done.
    const auto again = scheduler.submit(request("t", "same"), &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_TRUE(again->deduped);
    EXPECT_EQ(again->id, first->id);

    // Same spec, *different* tenant: a distinct job, served instantly
    // from the result cache without running.
    const auto other = scheduler.submit(request("u", "same"), &error);
    ASSERT_TRUE(other.has_value()) << error;
    EXPECT_NE(other->id, first->id);
    EXPECT_EQ(other->state, JobState::Done);
    EXPECT_TRUE(other->fromCache);
    EXPECT_EQ(other->dispatchSeq, 0u) << "never consumed a slot";

    // A fresh scheduler over the same *store* also answers instantly.
    ExplorationService service2(2, store);
    JobScheduler scheduler2(service2);
    const auto persisted = scheduler2.submit(request("v", "same"), &error);
    ASSERT_TRUE(persisted.has_value()) << error;
    EXPECT_EQ(persisted->state, JobState::Done);
    EXPECT_TRUE(persisted->fromCache);
}

TEST_F(JobSchedulerTest, CancelQueuedAndRunningJobs)
{
    ExplorationService service(2);
    SchedulerOptions options;
    options.startPaused = true;
    JobScheduler scheduler(service, options);

    std::string error;
    const auto a = scheduler.submit(request("t", "a"), &error);
    const auto b = scheduler.submit(request("t", "b"), &error);
    ASSERT_TRUE(a && b) << error;

    // Queued cancel: terminal immediately, no result, never dispatched.
    EXPECT_TRUE(scheduler.cancel(b->id));
    EXPECT_EQ(scheduler.info(b->id)->state, JobState::Cancelled);
    EXPECT_EQ(scheduler.result(b->id), nullptr);
    EXPECT_TRUE(scheduler.cancel(b->id)) << "idempotent";
    EXPECT_FALSE(scheduler.cancel("no-such-job"));

    scheduler.resume();
    ASSERT_TRUE(scheduler.wait(a->id, 120.0));
    EXPECT_EQ(scheduler.info(a->id)->state, JobState::Done);
    EXPECT_EQ(scheduler.info(b->id)->state, JobState::Cancelled)
        << "cancelled job must not be revived by the pump";
}

TEST_F(JobSchedulerTest, ProgressEventsAreRecordedAndTerminal)
{
    ExplorationService service(2);
    JobScheduler scheduler(service);
    std::string error;
    JobRequest rq;
    rq.tenant = "t";
    rq.spec = tinyDseSpec("events");
    rq.spec.schedule.enabled = true;
    rq.spec.schedule.rungs = 1;
    const auto info = scheduler.submit(rq, &error);
    ASSERT_TRUE(info.has_value()) << error;
    ASSERT_TRUE(scheduler.wait(info->id, 120.0));

    const std::vector<JobEvent> events = scheduler.events(info->id, 0);
    ASSERT_GE(events.size(), 2u) << "at least entered+finished per rung";
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, i + 1) << "contiguous 1-based sequence";
    // Replay from an offset yields exactly the suffix.
    const std::vector<JobEvent> tail =
        scheduler.events(info->id, events.size() - 1);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].seq, events.size());
    // waitEvents on a terminal job returns immediately (no hang).
    const std::vector<JobEvent> after =
        scheduler.waitEvents(info->id, events.size(), 30.0);
    EXPECT_TRUE(after.empty());
}

TEST_F(JobSchedulerTest, RecoverInterruptedResumesFromJournals)
{
    const ExperimentSpec spec = [&] {
        ExperimentSpec s = tinyDseSpec("recover");
        s.schedule.enabled = true;
        s.schedule.rungs = 1;
        s.deadlineSeconds = 3600.0;
        return s;
    }();

    // Reference: the uninterrupted winner.
    dse::DseResult reference;
    {
        ExplorationService service(2);
        JobHandle job = service.submit(spec);
        const ExperimentResult &r = job.wait();
        ASSERT_FALSE(r.failed()) << r.error;
        reference = r.dse;
    }

    // Interrupted publication: the run finishes but the injected
    // store.write fault loses the result, so the store is left exactly
    // as a SIGKILL at publish time leaves it — rung journal (with its
    // final record), spec sidecar and job meta present, result absent.
    {
        auto store = std::make_shared<ResultStore>(dir_);
        ExplorationService service(2, store);
        JobScheduler scheduler(service);
        std::string error;
        JobRequest rq;
        rq.tenant = "alice";
        rq.priority = 7;
        rq.weight = 3;
        rq.spec = spec;
        fault::configure("store.write");
        const auto info = scheduler.submit(rq, &error);
        ASSERT_TRUE(info.has_value()) << error;
        ASSERT_TRUE(scheduler.wait(info->id, 120.0));
        fault::reset();
        EXPECT_EQ(scheduler.info(info->id)->state, JobState::Done);
        ASSERT_FALSE(store->orphanJournals().empty())
            << "unpublished run must leave its journal behind";
    }

    // A new daemon generation over the same store recovers the job
    // under its original identity and finishes it — same winner as the
    // uninterrupted run.
    auto store = std::make_shared<ResultStore>(dir_);
    ExplorationService service(2, store);
    JobScheduler scheduler(service);
    EXPECT_EQ(scheduler.recoverInterrupted(), 1);
    const std::vector<JobInfo> jobs = scheduler.list();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].tenant, "alice");
    EXPECT_EQ(jobs[0].priority, 7);
    EXPECT_EQ(jobs[0].weight, 3);
    ASSERT_TRUE(scheduler.wait(jobs[0].id, 120.0));
    const auto result = scheduler.result(jobs[0].id);
    ASSERT_NE(result, nullptr);
    ASSERT_FALSE(result->failed()) << result->error;
    EXPECT_FALSE(result->truncated);
    ASSERT_GE(result->dse.bestIndex, 0);
    EXPECT_EQ(result->dse.bestIndex, reference.bestIndex);
    EXPECT_EQ(result->dse.best().objective, reference.best().objective)
        << "resumed winner must be bit-identical";

    // Nothing left to recover once the result is stored.
    EXPECT_TRUE(store->orphanJournals().empty());
    EXPECT_EQ(scheduler.recoverInterrupted(), 0);
}

TEST_F(JobSchedulerTest, RecoverySkipsSidecarsThatSetARemovedKnobToFalse)
{
    // Spec sidecars that set schedule.analytic_bound or
    // mapping.sa.incremental_cost to false, left by a build that still
    // ran those paths: recovery warns, re-admits neither and keeps going.
    const std::pair<std::string, std::string> knobs[] = {
        {"analytic_bound", "spec.schedule.analytic_bound"},
        {"incremental_cost", "spec.mapping.sa.incremental_cost"}};
    auto store = std::make_shared<ResultStore>(dir_);
    std::uint64_t orphan = 0x0123456789abcdefull;
    for (const auto &[key, path] : knobs) {
        std::string text = tinyDseSpec("removed-knob").toJson().dump();
        const std::string on = "\"" + key + "\":true";
        const std::size_t at = text.find(on);
        ASSERT_NE(at, std::string::npos) << on;
        text.replace(at, on.size(), "\"" + key + "\":false");
        ++orphan;
        std::ofstream(fs::path(dir_) /
                      (common::json::hex64(orphan) + ".spec.json"))
            << text << "\n";
        std::ofstream(store->journalPath(orphan)) << "";
    }
    ASSERT_EQ(store->orphanJournals().size(), 2u);

    ExplorationService service(2, store);
    JobScheduler scheduler(service);
    ::testing::internal::CaptureStderr();
    const int recovered = scheduler.recoverInterrupted();
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(recovered, 0);
    EXPECT_TRUE(scheduler.list().empty());
    for (const auto &[key, path] : knobs)
        EXPECT_NE(warnings.find(path + ": false is no longer supported"),
                  std::string::npos)
            << warnings;
}

TEST_F(JobSchedulerTest, StopDrainsOrCancels)
{
    ExplorationService service(2);
    SchedulerOptions options;
    options.startPaused = true;
    JobScheduler scheduler(service, options);
    std::string error;
    const auto a = scheduler.submit(request("t", "a"), &error);
    const auto b = scheduler.submit(request("t", "b"), &error);
    ASSERT_TRUE(a && b) << error;

    // Drain mode runs everything to completion (also un-pauses).
    scheduler.stop(/*cancelJobs=*/false);
    EXPECT_EQ(scheduler.info(a->id)->state, JobState::Done);
    EXPECT_EQ(scheduler.info(b->id)->state, JobState::Done);
    EXPECT_TRUE(scheduler.stopping());
    EXPECT_FALSE(scheduler.submit(request("t", "c"), &error).has_value())
        << "stopped scheduler must reject admissions";
}

} // namespace
} // namespace gemini::api
