#include "src/api/worker.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

#include "src/api/json_reader.hh"
#include "src/api/results.hh"
#include "src/api/spec.hh"
#include "src/common/fault_injection.hh"
#include "src/common/subprocess.hh"
#include "src/mapping/engine.hh"

namespace gemini::api {

using common::json::Value;

namespace {

/** Cadence of the worker's I'm-alive frames during an evaluation. */
constexpr auto kHeartbeatInterval = std::chrono::milliseconds(100);

constexpr std::pair<WorkerRequest::Kind, const char *> kRequestKinds[] = {
    {WorkerRequest::Kind::Init, "init"},
    {WorkerRequest::Kind::Eval, "eval"},
    {WorkerRequest::Kind::Shutdown, "shutdown"}};

constexpr std::pair<WorkerResponse::Kind, const char *> kResponseKinds[] = {
    {WorkerResponse::Kind::Ready, "ready"},
    {WorkerResponse::Kind::Heartbeat, "heartbeat"},
    {WorkerResponse::Kind::Result, "result"},
    {WorkerResponse::Kind::Error, "error"}};

/** Parse one frame through its field list; `what` prefixes errors. */
template <class Frame>
bool
readFrame(const std::string &text, const char *what, Frame &out,
          std::string *error)
{
    const std::optional<Value> v = common::json::parse(text, error);
    if (!v) {
        if (error)
            *error = std::string(what) + ": JSON syntax error at " + *error;
        return false;
    }
    return readJson(*v, what, out, error);
}

} // namespace

/** A request carries only its own kind's keys. */
template <class Io>
void
describe(Io &io, WorkerRequest &x)
{
    io.required("kind", x.kind, "kind", kRequestKinds);
    io.field("seq", x.seq);
    if (x.kind == WorkerRequest::Kind::Init) {
        io.field("spec", x.specText);
    } else if (x.kind == WorkerRequest::Kind::Eval) {
        io.field("index", x.index);
        io.field("rung", x.rung);
        io.field("iters", x.iters);
        io.field("chains", x.chains);
        io.hex("seed", x.seed, "0x");
        io.required("arch", x.arch);
        io.field("warm_starts", x.warmStarts);
        // Reject what no rung of a ladder would send (see
        // dse::RemoteEvalRequest) rather than guess at it.
        io.check(x.rung >= -1, "rung",
                 "must be -1 (exhaustive), 0 (screen) or a warm-started "
                 "rung >= 1");
        io.check(x.iters >= 0, "iters", "must be >= 0");
        io.check(x.rung != 0 || x.iters == 0, "iters",
                 "the screen rung runs no SA, must be 0");
        io.check(x.chains >= 1, "chains", "must be >= 1");
        io.check(x.rung >= 1 || x.warmStarts.empty(), "warm_starts",
                 "only rungs >= 1 start warm");
    }
}

/** A response writes only its own kind's keys but accepts all of them. */
template <class Io>
void
describe(Io &io, WorkerResponse &x)
{
    io.required("kind", x.kind, "kind", kResponseKinds);
    io.field("seq", x.seq);
    if (Io::kReading || x.kind == WorkerResponse::Kind::Error)
        io.field("message", x.message);
    if (Io::kReading || x.kind == WorkerResponse::Kind::Result) {
        io.field("per_model", x.perModel);
        io.field("mappings", x.mappings);
    }
}

std::string
WorkerRequest::toText() const
{
    return writeJson(*this).dump();
}

bool
WorkerRequest::fromText(const std::string &text, WorkerRequest &out,
                        std::string *error)
{
    return readFrame(text, "request", out, error);
}

std::string
WorkerResponse::toText() const
{
    return writeJson(*this).dump();
}

bool
WorkerResponse::fromText(const std::string &text, WorkerResponse &out,
                         std::string *error)
{
    return readFrame(text, "response", out, error);
}

namespace {

/**
 * Evaluate one candidate exactly as the in-process DSE ladder would (see
 * runTask in dse.cc): throwaway engines per model, serial chains, the
 * request's SA budget (no SA at 0 iterations), started cold or — for
 * rungs >= 1 — from the request's warm starts.
 */
WorkerResponse
evalCandidate(const ExperimentSpec &spec, const ResolvedExperiment &resolved,
              const WorkerRequest &rq)
{
    // Deterministic crash simulation: the acceptance tests arm these to
    // prove a poisoned candidate cannot take down the run. _Exit, not
    // abort(): die like a crash, no atexit/leak-check noise.
    if (common::fault::shouldFail("worker.crash") ||
        common::fault::shouldFail("worker.crash.cand" +
                                  std::to_string(rq.index)))
        std::_Exit(70);

    mapping::MappingOptions mo = spec.mapping;
    // Chains run serially inside a worker (bit-identical to parallel
    // chains); candidate-level parallelism is the supervisor's pool.
    mo.saThreads = 1;
    mo.runSa = rq.iters > 0;
    mo.sa.iterations = rq.iters;
    mo.sa.chains = rq.chains;
    mo.sa.seed = rq.seed;

    WorkerResponse resp;
    resp.kind = WorkerResponse::Kind::Result;
    resp.seq = rq.seq;
    const bool warm = rq.rung >= 1;
    if (warm && rq.warmStarts.size() != resolved.models.size()) {
        resp.kind = WorkerResponse::Kind::Error;
        resp.message = "eval: warm_starts count does not match models";
        return resp;
    }
    for (std::size_t m = 0; m < resolved.models.size(); ++m) {
        mapping::MappingEngine engine(resolved.models[m], rq.arch, mo);
        mapping::MappingResult res =
            warm ? engine.runFrom(rq.warmStarts[m]) : engine.run();
        resp.mappings.push_back(std::move(res.mapping));
        resp.perModel.push_back(res.total);
    }
    return resp;
}

/**
 * Run one eval request with heartbeats: the evaluation runs here while a
 * helper thread emits heartbeat frames. The helper is joined before the
 * result frame is written, so stdout only ever carries whole frames from
 * one thread at a time.
 */
WorkerResponse
evalWithHeartbeats(const ExperimentSpec &spec,
                   const ResolvedExperiment &resolved,
                   const WorkerRequest &rq)
{
    std::atomic<bool> done{false};
    std::thread beat([&] {
        auto next = std::chrono::steady_clock::now() + kHeartbeatInterval;
        while (!done.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            if (std::chrono::steady_clock::now() < next)
                continue;
            next = std::chrono::steady_clock::now() + kHeartbeatInterval;
            WorkerResponse hb;
            hb.kind = WorkerResponse::Kind::Heartbeat;
            hb.seq = rq.seq;
            if (!common::writeFrame(1, hb.toText())) {
                // Supervisor gone: nothing left to compute for.
                std::_Exit(1);
            }
        }
    });

    // Simulated hang (the `worker.heartbeat` fault site): wedge the whole
    // request — no heartbeats, no result — so the supervisor's watchdog
    // is exercised for real. Respawned workers inherit the environment
    // and wedge again, which is how the poison path is driven end-to-end.
    if (common::fault::shouldFail("worker.heartbeat")) {
        done.store(true, std::memory_order_release);
        beat.join();
        for (;;)
            std::this_thread::sleep_for(std::chrono::hours(1));
    }

    WorkerResponse resp;
    try {
        resp = evalCandidate(spec, resolved, rq);
    } catch (const std::exception &e) {
        resp.kind = WorkerResponse::Kind::Error;
        resp.seq = rq.seq;
        resp.message = std::string("eval: ") + e.what();
    } catch (...) {
        resp.kind = WorkerResponse::Kind::Error;
        resp.seq = rq.seq;
        resp.message = "eval: non-std exception";
    }
    done.store(true, std::memory_order_release);
    beat.join();
    return resp;
}

} // namespace

int
runWorkerMain()
{
    const int in_fd = 0;
    const int out_fd = 1;
    std::optional<ExperimentSpec> spec;
    std::optional<ResolvedExperiment> resolved;

    std::string frame;
    for (;;) {
        const common::FrameStatus st =
            common::readFrame(in_fd, frame, /*timeout_seconds=*/-1.0);
        if (st == common::FrameStatus::Eof)
            return 0; // supervisor closed our stdin: clean exit
        if (st != common::FrameStatus::Ok) {
            std::fprintf(stderr, "[worker] request frame %s\n",
                         common::frameStatusName(st));
            return 1;
        }

        WorkerRequest rq;
        std::string perr;
        if (!WorkerRequest::fromText(frame, rq, &perr)) {
            WorkerResponse err;
            err.kind = WorkerResponse::Kind::Error;
            err.message = "bad request: " + perr;
            if (!common::writeFrame(out_fd, err.toText()))
                return 1;
            continue;
        }

        if (rq.kind == WorkerRequest::Kind::Shutdown)
            return 0;

        if (rq.kind == WorkerRequest::Kind::Init) {
            std::string err;
            spec = ExperimentSpec::fromJsonText(rq.specText, &err);
            if (spec)
                resolved = resolveExperiment(*spec, &err);
            WorkerResponse resp;
            resp.seq = rq.seq;
            if (spec && resolved) {
                resp.kind = WorkerResponse::Kind::Ready;
            } else {
                resp.kind = WorkerResponse::Kind::Error;
                resp.message = "init: " + err;
                spec.reset();
                resolved.reset();
            }
            if (!common::writeFrame(out_fd, resp.toText()))
                return 1;
            continue;
        }

        // Eval.
        if (!resolved) {
            WorkerResponse err;
            err.kind = WorkerResponse::Kind::Error;
            err.seq = rq.seq;
            err.message = "eval before a successful init";
            if (!common::writeFrame(out_fd, err.toText()))
                return 1;
            continue;
        }
        const WorkerResponse resp = evalWithHeartbeats(*spec, *resolved, rq);
        if (!common::writeFrame(out_fd, resp.toText()))
            return 1;
    }
}

} // namespace gemini::api
