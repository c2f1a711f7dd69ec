#include "src/api/worker.hh"

#include <atomic>
#include <chrono>
#include <cinttypes>
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

std::string
seedToHex(std::uint64_t seed)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, seed);
    return buf;
}

bool
seedFromHex(const std::string &text, std::uint64_t &out)
{
    if (text.rfind("0x", 0) != 0)
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str() + 2, &end, 16);
    return end && *end == '\0';
}

const char *
requestKindName(WorkerRequest::Kind k)
{
    switch (k) {
      case WorkerRequest::Kind::Init: return "init";
      case WorkerRequest::Kind::Eval: return "eval";
      case WorkerRequest::Kind::Shutdown: return "shutdown";
    }
    return "?";
}

const char *
responseKindName(WorkerResponse::Kind k)
{
    switch (k) {
      case WorkerResponse::Kind::Ready: return "ready";
      case WorkerResponse::Kind::Heartbeat: return "heartbeat";
      case WorkerResponse::Kind::Result: return "result";
      case WorkerResponse::Kind::Error: return "error";
    }
    return "?";
}

} // namespace

std::string
WorkerRequest::toText() const
{
    Value v = Value::object();
    v.set("kind", requestKindName(kind));
    v.set("seq", seq);
    if (kind == Kind::Init) {
        v.set("spec", specText);
    } else if (kind == Kind::Eval) {
        v.set("index", static_cast<std::uint64_t>(index));
        v.set("rung", rung);
        v.set("iters", iters);
        v.set("chains", chains);
        v.set("seed", seedToHex(seed));
        v.set("arch", archConfigToJson(arch));
        Value warm = Value::array();
        for (const mapping::LpMapping &m : warmStarts)
            warm.push(lpMappingToJson(m));
        v.set("warm_starts", std::move(warm));
    }
    return v.dump();
}

bool
WorkerRequest::fromText(const std::string &text, WorkerRequest &out,
                        std::string *error)
{
    const std::optional<Value> v = common::json::parse(text, error);
    if (!v) {
        if (error)
            *error = "request: JSON syntax error at " + *error;
        return false;
    }
    WorkerRequest rq;
    ObjectReader r(*v, "request", error);
    std::string kind;
    r.getString("kind", kind);
    if (!r.ok())
        return false;
    if (kind == "init") {
        rq.kind = Kind::Init;
    } else if (kind == "eval") {
        rq.kind = Kind::Eval;
    } else if (kind == "shutdown") {
        rq.kind = Kind::Shutdown;
    } else {
        if (error && error->empty())
            *error = "request.kind: unknown kind \"" + kind + "\"";
        return false;
    }
    r.getInt("seq", rq.seq);
    if (rq.kind == Kind::Init) {
        r.getString("spec", rq.specText);
    } else if (rq.kind == Kind::Eval) {
        r.getInt("index", rq.index);
        r.getInt("rung", rq.rung);
        r.getInt("iters", rq.iters);
        r.getInt("chains", rq.chains);
        std::string seed_hex = seedToHex(0);
        r.getString("seed", seed_hex);
        if (r.ok() && !seedFromHex(seed_hex, rq.seed)) {
            if (error && error->empty())
                *error = "request.seed: expected a 0x-prefixed hex string";
            return false;
        }
        if (const Value *archv = r.require("arch")) {
            if (!archConfigFromJson(*archv, "request.arch", rq.arch, error))
                return false;
        }
        if (const Value *warm = r.child("warm_starts")) {
            if (!warm->isArray()) {
                if (error && error->empty())
                    *error = "request.warm_starts: expected an array";
                return false;
            }
            std::size_t i = 0;
            for (const Value &mv : warm->asArray()) {
                mapping::LpMapping m;
                if (!lpMappingFromJson(mv,
                                       "request.warm_starts[" +
                                           std::to_string(i) + "]",
                                       m, error))
                    return false;
                rq.warmStarts.push_back(std::move(m));
                ++i;
            }
        }
        if (r.ok()) {
            // Reject what no rung of a ladder would send (see
            // dse::RemoteEvalRequest) rather than guess at it.
            const char *bad = nullptr;
            if (rq.rung < -1)
                bad = "request.rung: must be -1 (exhaustive), 0 (screen) "
                      "or a warm-started rung >= 1";
            else if (rq.iters < 0)
                bad = "request.iters: must be >= 0";
            else if (rq.rung == 0 && rq.iters != 0)
                bad = "request.iters: the screen rung runs no SA, must be 0";
            else if (rq.chains < 1)
                bad = "request.chains: must be >= 1";
            else if (rq.rung < 1 && !rq.warmStarts.empty())
                bad = "request.warm_starts: only rungs >= 1 start warm";
            if (bad) {
                if (error && error->empty())
                    *error = bad;
                return false;
            }
        }
    }
    if (!r.finish())
        return false;
    out = std::move(rq);
    return true;
}

std::string
WorkerResponse::toText() const
{
    Value v = Value::object();
    v.set("kind", responseKindName(kind));
    v.set("seq", seq);
    if (kind == Kind::Error) {
        v.set("message", message);
    } else if (kind == Kind::Result) {
        Value per_model = Value::array();
        for (const eval::EvalBreakdown &b : perModel)
            per_model.push(evalBreakdownToJson(b));
        v.set("per_model", std::move(per_model));
        Value maps = Value::array();
        for (const mapping::LpMapping &m : mappings)
            maps.push(lpMappingToJson(m));
        v.set("mappings", std::move(maps));
    }
    return v.dump();
}

bool
WorkerResponse::fromText(const std::string &text, WorkerResponse &out,
                         std::string *error)
{
    const std::optional<Value> v = common::json::parse(text, error);
    if (!v) {
        if (error)
            *error = "response: JSON syntax error at " + *error;
        return false;
    }
    WorkerResponse resp;
    ObjectReader r(*v, "response", error);
    std::string kind;
    r.getString("kind", kind);
    if (!r.ok())
        return false;
    if (kind == "ready") {
        resp.kind = Kind::Ready;
    } else if (kind == "heartbeat") {
        resp.kind = Kind::Heartbeat;
    } else if (kind == "result") {
        resp.kind = Kind::Result;
    } else if (kind == "error") {
        resp.kind = Kind::Error;
    } else {
        if (error && error->empty())
            *error = "response.kind: unknown kind \"" + kind + "\"";
        return false;
    }
    r.getInt("seq", resp.seq);
    r.getString("message", resp.message);
    if (const Value *per_model = r.child("per_model")) {
        if (!per_model->isArray()) {
            if (error && error->empty())
                *error = "response.per_model: expected an array";
            return false;
        }
        std::size_t i = 0;
        for (const Value &bv : per_model->asArray()) {
            eval::EvalBreakdown b;
            if (!evalBreakdownFromJson(
                    bv, "response.per_model[" + std::to_string(i) + "]", b,
                    error))
                return false;
            resp.perModel.push_back(b);
            ++i;
        }
    }
    if (const Value *maps = r.child("mappings")) {
        if (!maps->isArray()) {
            if (error && error->empty())
                *error = "response.mappings: expected an array";
            return false;
        }
        std::size_t i = 0;
        for (const Value &mv : maps->asArray()) {
            mapping::LpMapping m;
            if (!lpMappingFromJson(
                    mv, "response.mappings[" + std::to_string(i) + "]", m,
                    error))
                return false;
            resp.mappings.push_back(std::move(m));
            ++i;
        }
    }
    if (!r.finish())
        return false;
    out = std::move(resp);
    return true;
}

namespace {

/**
 * Evaluate one candidate exactly as the in-process DSE ladder would (see
 * runRung in dse.cc): throwaway engines per model, serial chains, the
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
