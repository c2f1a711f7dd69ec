/**
 * @file
 * Loopback tests for the REST daemon: the acceptance criterion (a DSE
 * submitted over HTTP returns a result bit-identical to the in-process
 * run, timing observability aside), instant admission dedup, the
 * deterministic NDJSON event stream, every error path's JSON shape,
 * cancel over DELETE, and the exclusive store's locked-by-pid refusal.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/api/daemon.hh"
#include "src/api/scheduler.hh"
#include "src/api/service.hh"
#include "src/api/store.hh"
#include "src/common/fault_injection.hh"
#include "src/common/json.hh"
#include "src/net/client.hh"

namespace gemini::api {
namespace {

namespace fs = std::filesystem;
namespace fault = common::fault;
namespace json = common::json;

/** The tiny 4-candidate DSE spec, unique hash per tag. */
ExperimentSpec
tinyDseSpec(const std::string &tag)
{
    ExperimentSpec spec;
    spec.name = "daemon-dse-" + tag;
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

/** Fast map-mode spec for tests that only need *a* job. */
ExperimentSpec
quickSpec(const std::string &tag)
{
    ExperimentSpec spec;
    spec.name = "daemon-" + tag;
    spec.mode = ExperimentSpec::Mode::Map;
    spec.models = {{.zoo = "tiny_conv", .file = ""}};
    spec.arch.preset = "tiny";
    spec.mapping.batch = 2;
    spec.mapping.sa.iterations = 50;
    spec.mapping.maxGroupLayers = 4;
    spec.threads = 2;
    return spec;
}

/**
 * Remove the wall-clock observability fields (eval_seconds per record,
 * cpu_seconds per rung) so two runs of the same spec compare equal on
 * everything the exploration actually decided.
 */
void
stripTiming(json::Value &v)
{
    if (v.isObject()) {
        auto &obj = v.asObject();
        obj.erase(std::remove_if(obj.begin(), obj.end(),
                                 [](const auto &kv) {
                                     return kv.first == "eval_seconds" ||
                                            kv.first == "cpu_seconds";
                                 }),
                  obj.end());
        for (auto &kv : obj)
            stripTiming(kv.second);
    } else if (v.isArray()) {
        for (auto &item : v.asArray())
            stripTiming(item);
    }
}

/** The whole serving stack on a loopback ephemeral port. */
struct Stack
{
    std::shared_ptr<ResultStore> store;
    std::unique_ptr<ExplorationService> service;
    std::unique_ptr<JobScheduler> scheduler;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<net::HttpClient> client;

    Stack(const std::string &dir, SchedulerOptions schedOptions = {})
    {
        store = std::make_shared<ResultStore>(dir);
        service = std::make_unique<ExplorationService>(2, store);
        scheduler = std::make_unique<JobScheduler>(*service, schedOptions);
        DaemonOptions dopt;
        dopt.server.bindAddress = "127.0.0.1";
        dopt.server.port = 0;
        dopt.eventPollSeconds = 0.05;
        daemon = std::make_unique<Daemon>(*scheduler, dopt);
        std::string error;
        if (!daemon->start(&error))
            throw std::runtime_error("daemon start: " + error);
        client = std::make_unique<net::HttpClient>("127.0.0.1",
                                                   daemon->port(), 30.0);
    }

    ~Stack()
    {
        if (daemon)
            daemon->stop();
        if (scheduler)
            scheduler->stop(/*cancelJobs=*/true);
    }

    /** POST a wrapper submission; returns the parsed response body. */
    json::Value
    submit(const ExperimentSpec &spec, const std::string &tenant,
           int *statusOut = nullptr, const std::string &query = "")
    {
        json::Value wrapper = json::Value::object();
        wrapper.set("spec", spec.toJson());
        wrapper.set("tenant", tenant);
        std::string error;
        auto response =
            client->request("POST", "/v1/jobs" + query, wrapper.dump(),
                            &error);
        if (!response)
            throw std::runtime_error("submit transport: " + error);
        if (statusOut != nullptr)
            *statusOut = response->status;
        auto body = json::parse(response->body, &error);
        if (!body)
            throw std::runtime_error("submit body: " + error);
        return *body;
    }

    /** Poll GET /v1/jobs/{id} until the job is terminal. */
    json::Value
    waitTerminal(const std::string &id)
    {
        for (;;) {
            std::string error;
            auto response =
                client->request("GET", "/v1/jobs/" + id, "", &error);
            if (!response)
                throw std::runtime_error("status transport: " + error);
            auto body = json::parse(response->body, &error);
            if (!body)
                throw std::runtime_error("status body: " + error);
            const json::Value *state = body->find("state");
            if (state != nullptr && state->isString() &&
                (state->asString() == "done" ||
                 state->asString() == "failed" ||
                 state->asString() == "cancelled"))
                return *body;
            ::usleep(20 * 1000);
        }
    }
};

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("gemini_daemon_") + info->name()))
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

TEST_F(DaemonTest, HttpRunMatchesInProcessRunBitForBit)
{
    const ExperimentSpec spec = tinyDseSpec("acceptance");

    // In-process reference on its own store.
    const std::string refDir = dir_ + "/ref";
    fs::create_directories(refDir);
    json::Value reference;
    {
        auto store = std::make_shared<ResultStore>(refDir);
        ExplorationService service(2, store);
        JobHandle handle = service.submit(spec);
        const ExperimentResult &result = handle.wait();
        ASSERT_FALSE(result.failed()) << result.error;
        reference = result.toJson();
    }

    // The same spec over HTTP.
    const std::string srvDir = dir_ + "/srv";
    fs::create_directories(srvDir);
    Stack stack(srvDir);
    int status = 0;
    json::Value admitted = stack.submit(spec, "alice", &status);
    ASSERT_EQ(status, 202) << admitted.dump();
    const json::Value *id = admitted.find("id");
    ASSERT_NE(id, nullptr);

    json::Value terminal = stack.waitTerminal(id->asString());
    EXPECT_EQ(terminal.find("state")->asString(), "done");
    EXPECT_EQ(terminal.find("tenant")->asString(), "alice");

    std::string error;
    auto response = stack.client->request(
        "GET", "/v1/jobs/" + id->asString() + "/result", "", &error);
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_EQ(response->status, 200);
    auto overHttp = json::parse(response->body, &error);
    ASSERT_TRUE(overHttp.has_value()) << error;

    // Identical except wall-clock observability.
    stripTiming(reference);
    stripTiming(*overHttp);
    EXPECT_EQ(reference.canonical(), overHttp->canonical())
        << "HTTP result must be bit-identical to the in-process run";
}

TEST_F(DaemonTest, StatusStatsAreTheResultsStats)
{
    Stack stack(dir_);
    ExperimentSpec spec = tinyDseSpec("stats");
    spec.schedule.enabled = true;
    spec.schedule.rungs = 1;
    int status = 0;
    json::Value admitted = stack.submit(spec, "alice", &status);
    ASSERT_EQ(status, 202) << admitted.dump();
    const std::string id = admitted.find("id")->asString();
    json::Value terminal = stack.waitTerminal(id);
    ASSERT_EQ(terminal.find("state")->asString(), "done");

    std::string error;
    auto response = stack.client->request(
        "GET", "/v1/jobs/" + id + "/result", "", &error);
    ASSERT_TRUE(response.has_value()) << error;
    auto result = json::parse(response->body, &error);
    ASSERT_TRUE(result.has_value()) << error;

    // One writer for the ledger: every rung key, poisoned included.
    const json::Value *stats = terminal.find("stats");
    ASSERT_NE(stats, nullptr) << terminal.dump();
    EXPECT_EQ(stats->dump(), result->find("dse")->find("stats")->dump());
    const json::Value &rung = stats->find("rungs")->asArray().at(0);
    for (const char *key :
         {"poisoned", "sa_iters", "cpu_seconds", "best_objective"})
        EXPECT_NE(rung.find(key), nullptr) << key;
}

TEST_F(DaemonTest, SpecThatWouldCrashTheRunIsRefused)
{
    Stack stack(dir_);
    ExperimentSpec bad = tinyDseSpec("zero-cut");
    bad.axes.xCuts = {0};
    std::string error;
    auto r = stack.client->request("POST", "/v1/jobs?tenant=alice",
                                   bad.toJson().dump(), &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 400);
    EXPECT_NE(r->body.find("axes.x_cuts[0]"), std::string::npos) << r->body;

    // The daemon is still serving.
    r = stack.client->request("GET", "/healthz", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 200);
}

TEST_F(DaemonTest, OrphanJournalOfAnInvalidSpecDoesNotStopTheDaemon)
{
    // What an older build leaves behind when a spec it accepted killed
    // the run: the spec sidecar and a rung journal, but no result.
    ExperimentSpec bad = tinyDseSpec("zero-lanes");
    bad.schedule.enabled = true;
    bad.mapping.tech.lanesC = 0;
    const std::uint64_t hash = bad.canonicalHash();
    {
        ResultStore store(dir_);
        store.putSpec(bad, hash);
        std::ofstream(store.journalPath(hash)) << "";
        ASSERT_EQ(store.orphanJournals(),
                  (std::vector<std::uint64_t>{hash}));
    }

    Stack stack(dir_);
    EXPECT_EQ(stack.scheduler->recoverInterrupted(), 0);
    EXPECT_TRUE(stack.scheduler->list().empty());
    std::string error;
    auto r = stack.client->request("GET", "/healthz", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 200);
}

TEST_F(DaemonTest, ResubmissionIsAnsweredInstantly)
{
    Stack stack(dir_);
    const ExperimentSpec spec = quickSpec("dedup");

    int status = 0;
    json::Value first = stack.submit(spec, "alice", &status);
    ASSERT_EQ(status, 202);
    const std::string id = first.find("id")->asString();
    stack.waitTerminal(id);

    // Same tenant, same spec: the known result answers with 200.
    json::Value again = stack.submit(spec, "alice", &status);
    EXPECT_EQ(status, 200);
    EXPECT_EQ(again.find("id")->asString(), id);
    EXPECT_EQ(again.find("state")->asString(), "done");

    // Different tenant: new job id, served from the cache without a run.
    json::Value other = stack.submit(spec, "bob", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(other.find("id")->asString(), id);
    EXPECT_EQ(other.find("state")->asString(), "done");
    EXPECT_TRUE(other.find("from_cache")->asBool());
}

TEST_F(DaemonTest, QueryParametersOverrideTheWrapper)
{
    SchedulerOptions paused;
    paused.startPaused = true;
    Stack stack(dir_, paused);

    int status = 0;
    json::Value info = stack.submit(quickSpec("query"), "alice", &status,
                                    "?tenant=bob&priority=7&weight=3");
    ASSERT_EQ(status, 202) << info.dump();
    EXPECT_EQ(info.find("tenant")->asString(), "bob");
    EXPECT_EQ(info.find("priority")->asNumber(), 7);
    EXPECT_EQ(info.find("weight")->asNumber(), 3);
    EXPECT_EQ(info.find("state")->asString(), "queued");
}

TEST_F(DaemonTest, EventStreamIsDeterministicNdjson)
{
    Stack stack(dir_);
    ExperimentSpec spec = tinyDseSpec("events");
    spec.schedule.enabled = true;
    spec.schedule.rungs = 1;

    int status = 0;
    json::Value admitted = stack.submit(spec, "alice", &status);
    ASSERT_EQ(status, 202);
    const std::string id = admitted.find("id")->asString();
    stack.waitTerminal(id);

    // Follow the whole stream: contiguous 1-based seqs, then the done
    // trailer naming the terminal state.
    std::vector<json::Value> lines;
    std::string error;
    auto streamed = stack.client->stream(
        "/v1/jobs/" + id + "/events",
        [&](std::string_view line) {
            if (line.empty())
                return true;
            auto v = json::parse(line, &error);
            if (v)
                lines.push_back(*v);
            return true;
        },
        &error);
    ASSERT_TRUE(streamed.has_value()) << error;
    EXPECT_EQ(*streamed, 200);
    ASSERT_GE(lines.size(), 2u) << "at least one event plus the trailer";

    const json::Value &trailer = lines.back();
    ASSERT_NE(trailer.find("done"), nullptr);
    EXPECT_TRUE(trailer.find("done")->asBool());
    EXPECT_EQ(trailer.find("state")->asString(), "done");

    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
        const json::Value *seq = lines[i].find("seq");
        ASSERT_NE(seq, nullptr);
        EXPECT_EQ(seq->asNumber(), static_cast<double>(i + 1));
        EXPECT_NE(lines[i].find("kind"), nullptr);
    }

    // A reconnect from ?after=N replays exactly the suffix.
    const std::size_t events = lines.size() - 1;
    ASSERT_GE(events, 1u);
    std::vector<json::Value> suffix;
    streamed = stack.client->stream(
        "/v1/jobs/" + id + "/events?after=" + std::to_string(events - 1),
        [&](std::string_view line) {
            if (line.empty())
                return true;
            auto v = json::parse(line, &error);
            if (v)
                suffix.push_back(*v);
            return true;
        },
        &error);
    ASSERT_TRUE(streamed.has_value()) << error;
    ASSERT_EQ(suffix.size(), 2u) << "one replayed event plus the trailer";
    EXPECT_EQ(suffix[0].find("seq")->asNumber(),
              static_cast<double>(events));
    EXPECT_EQ(suffix[0].canonical(), lines[events - 1].canonical());
}

TEST_F(DaemonTest, CancelOverDelete)
{
    SchedulerOptions paused;
    paused.startPaused = true;
    Stack stack(dir_, paused);

    int status = 0;
    json::Value admitted = stack.submit(quickSpec("cancel"), "alice",
                                        &status);
    ASSERT_EQ(status, 202);
    const std::string id = admitted.find("id")->asString();

    std::string error;
    auto response =
        stack.client->request("DELETE", "/v1/jobs/" + id, "", &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->status, 200);

    json::Value terminal = stack.waitTerminal(id);
    EXPECT_EQ(terminal.find("state")->asString(), "cancelled");

    // Idempotent; unknown ids are 404.
    response = stack.client->request("DELETE", "/v1/jobs/" + id, "", &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->status, 200);
    response = stack.client->request(
        "DELETE", "/v1/jobs/0000000000000abc-ghost", "", &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->status, 404);
}

TEST_F(DaemonTest, ErrorPathsSpeakJson)
{
    SchedulerOptions paused;
    paused.startPaused = true;
    Stack stack(dir_, paused);
    std::string error;

    auto expectJsonError = [&](const net::HttpResponse &r) {
        auto body = json::parse(r.body, &error);
        ASSERT_TRUE(body.has_value()) << error << ": " << r.body;
        const json::Value *msg = body->find("error");
        ASSERT_NE(msg, nullptr) << r.body;
        EXPECT_FALSE(msg->asString().empty());
    };

    // Unknown job, unknown route, wrong method, malformed body.
    auto r = stack.client->request("GET", "/v1/jobs/nope", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 404);
    expectJsonError(*r);

    r = stack.client->request("GET", "/v1/nothing", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 404);

    r = stack.client->request("PUT", "/v1/jobs", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 405);
    expectJsonError(*r);

    r = stack.client->request("POST", "/v1/jobs", "{not json", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 400);
    expectJsonError(*r);

    r = stack.client->request("POST", "/v1/jobs?tenant=bad/slash",
                              quickSpec("err").toJson().dump(), &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 400);
    expectJsonError(*r);

    // A spec that validates structurally but would crash the run (a
    // batch unit that does not divide the batch) is refused up front.
    ExperimentSpec bad_units = quickSpec("units");
    bad_units.mapping.batchUnits = {3};
    r = stack.client->request("POST", "/v1/jobs?tenant=alice",
                              bad_units.toJson().dump(), &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 400);
    expectJsonError(*r);
    EXPECT_NE(r->body.find("mapping.batch_units[0]"), std::string::npos)
        << r->body;

    // A queued (paused) job has no result yet: 409 with guidance.
    int status = 0;
    json::Value admitted = stack.submit(quickSpec("pending"), "alice",
                                        &status);
    ASSERT_EQ(status, 202);
    r = stack.client->request(
        "GET", "/v1/jobs/" + admitted.find("id")->asString() + "/result",
        "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 409);
    expectJsonError(*r);
}

TEST_F(DaemonTest, HealthAndListReportTheQueues)
{
    SchedulerOptions paused;
    paused.startPaused = true;
    Stack stack(dir_, paused);

    std::string error;
    auto r = stack.client->request("GET", "/healthz", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 200);
    auto health = json::parse(r->body, &error);
    ASSERT_TRUE(health.has_value()) << error;
    EXPECT_NE(health->find("pending"), nullptr);

    int status = 0;
    stack.submit(quickSpec("list-a"), "alice", &status);
    stack.submit(quickSpec("list-b"), "bob", &status);

    r = stack.client->request("GET", "/v1/jobs", "", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->status, 200);
    auto list = json::parse(r->body, &error);
    ASSERT_TRUE(list.has_value()) << error;
    const json::Value *jobs = list->find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_TRUE(jobs->isArray());
    ASSERT_EQ(jobs->asArray().size(), 2u);
    EXPECT_EQ(jobs->asArray()[0].find("tenant")->asString(), "alice");
    EXPECT_EQ(jobs->asArray()[1].find("tenant")->asString(), "bob");
}

TEST_F(DaemonTest, SecondExclusiveStoreIsRefusedWithThePid)
{
    ResultStore owner(dir_, StoreOwnership::Exclusive);
    try {
        ResultStore second(dir_, StoreOwnership::Exclusive);
        FAIL() << "second exclusive open must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("locked by pid"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(::getpid())),
                  std::string::npos)
            << "message should name the holding pid: " << what;
    }
    // Shared opens coexist with the exclusive owner.
    ResultStore shared(dir_);
}

} // namespace
} // namespace gemini::api
