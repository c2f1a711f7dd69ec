#include "src/api/daemon.hh"

#include <cstdlib>
#include <limits>
#include <vector>

#include "src/api/results.hh"
#include "src/common/json.hh"

namespace gemini::api {

using common::json::Value;

namespace {

net::HttpResponse
errorResponse(int status, const std::string &message)
{
    Value v = Value::object();
    v.set("error", message);
    return net::jsonResponse(status, v.dump());
}

/** Strict base-10 integer; nullopt on junk (no silent zero). */
std::optional<long>
parseInt(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    char *end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return std::nullopt;
    return value;
}

std::optional<bool>
parseBool(const std::string &text)
{
    if (text == "1" || text == "true")
        return true;
    if (text == "0" || text == "false")
        return false;
    return std::nullopt;
}

Value
jobInfoToJson(const JobInfo &info)
{
    Value v = Value::object();
    v.set("id", info.id);
    v.set("spec_hash", common::json::hex64(info.specHash));
    v.set("tenant", info.tenant);
    v.set("name", info.name);
    v.set("priority", info.priority);
    v.set("weight", info.weight);
    v.set("state", jobStateName(info.state));
    v.set("deduped", info.deduped);
    v.set("from_cache", info.fromCache);
    v.set("submit_seq", info.submitSeq);
    v.set("dispatch_seq", info.dispatchSeq);
    if (info.state == JobState::Queued)
        v.set("queue_position", info.queuePosition);
    v.set("events", info.events);
    if (!info.error.empty())
        v.set("error", info.error);
    return v;
}

const char *
eventKindName(ProgressEvent::Kind kind)
{
    return kind == ProgressEvent::Kind::RungEntered ? "rung_entered"
                                                    : "rung_finished";
}

Value
eventToJson(const JobEvent &event)
{
    Value v = Value::object();
    v.set("seq", event.seq);
    v.set("kind", eventKindName(event.event.kind));
    v.set("rung", event.event.rung);
    v.set("entered", event.event.entered);
    v.set("advanced", event.event.advanced);
    v.set("pruned_bound", event.event.prunedBound);
    v.set("pruned_rank", event.event.prunedRank);
    // Infinity is not JSON: the event stream spells it "none".
    if (event.event.bestObjective ==
        std::numeric_limits<double>::infinity())
        v.set("best_objective", "none");
    else
        v.set("best_objective", event.event.bestObjective);
    return v;
}

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> segments;
    std::size_t start = 0;
    while (start < path.size()) {
        if (path[start] == '/') {
            ++start;
            continue;
        }
        std::size_t end = path.find('/', start);
        if (end == std::string::npos)
            end = path.size();
        segments.push_back(path.substr(start, end - start));
        start = end;
    }
    return segments;
}

} // namespace

Daemon::Daemon(JobScheduler &scheduler, DaemonOptions options)
    : scheduler_(scheduler), options_(std::move(options)),
      server_([this](const net::HttpRequest &rq,
                     net::ResponseWriter &w) { handle(rq, w); },
              options_.server)
{
}

bool
Daemon::start(std::string *error)
{
    return server_.start(error);
}

void
Daemon::handle(const net::HttpRequest &request, net::ResponseWriter &w)
{
    const std::vector<std::string> seg = splitPath(request.path);

    if (seg.size() == 1 && seg[0] == "healthz") {
        if (request.method != "GET" && request.method != "HEAD") {
            w.send(errorResponse(405, "healthz is GET-only"));
            return;
        }
        handleHealth(w);
        return;
    }

    if (seg.size() >= 2 && seg[0] == "v1" && seg[1] == "jobs") {
        if (seg.size() == 2) {
            if (request.method == "POST")
                handleSubmit(request, w);
            else if (request.method == "GET")
                handleList(w);
            else
                w.send(errorResponse(405, "jobs collection supports GET "
                                          "(list) and POST (submit)"));
            return;
        }
        const std::string &id = seg[2];
        if (seg.size() == 3) {
            if (request.method == "GET")
                handleStatus(id, w);
            else if (request.method == "DELETE")
                handleCancel(id, w);
            else
                w.send(errorResponse(405, "a job supports GET (status) "
                                          "and DELETE (cancel)"));
            return;
        }
        if (seg.size() == 4 && seg[3] == "result") {
            if (request.method != "GET")
                w.send(errorResponse(405, "result is GET-only"));
            else
                handleResult(id, w);
            return;
        }
        if (seg.size() == 4 && seg[3] == "events") {
            if (request.method != "GET")
                w.send(errorResponse(405, "events is GET-only"));
            else
                handleEvents(request, id, w);
            return;
        }
    }

    w.send(errorResponse(404, "no such endpoint: " + request.method + " " +
                                  request.path));
}

void
Daemon::handleHealth(net::ResponseWriter &w)
{
    Value v = Value::object();
    v.set("ok", !scheduler_.stopping());
    v.set("pending", scheduler_.pendingJobs());
    v.set("running", scheduler_.runningJobs());
    w.send(net::jsonResponse(200, v.dump()));
}

void
Daemon::handleSubmit(const net::HttpRequest &request,
                     net::ResponseWriter &w)
{
    std::string error;
    const std::optional<Value> body =
        common::json::parse(request.body, &error);
    if (!body) {
        w.send(errorResponse(400, "request body: " + error));
        return;
    }

    JobRequest jr;
    const Value *specValue = &*body;
    if (body->isObject() && body->find("spec") != nullptr) {
        // Wrapper form: identity fields beside the spec.
        specValue = body->find("spec");
        if (const Value *t = body->find("tenant")) {
            if (!t->isString()) {
                w.send(errorResponse(400, "tenant: expected a string"));
                return;
            }
            jr.tenant = t->asString();
        }
        if (const Value *p = body->find("priority")) {
            if (!p->isNumber()) {
                w.send(errorResponse(400, "priority: expected a number"));
                return;
            }
            jr.priority = static_cast<int>(p->asNumber());
        }
        if (const Value *wt = body->find("weight")) {
            if (!wt->isNumber()) {
                w.send(errorResponse(400, "weight: expected a number"));
                return;
            }
            jr.weight = static_cast<int>(wt->asNumber());
        }
        if (const Value *r = body->find("resume")) {
            if (!r->isBool()) {
                w.send(errorResponse(400, "resume: expected a bool"));
                return;
            }
            jr.resume = r->asBool();
        }
    }

    // Query parameters win over the wrapper (identity in the URL).
    if (const std::string t = request.queryParam("tenant"); !t.empty())
        jr.tenant = t;
    if (const std::string p = request.queryParam("priority"); !p.empty()) {
        const std::optional<long> value = parseInt(p);
        if (!value) {
            w.send(errorResponse(400, "priority: not an integer: " + p));
            return;
        }
        jr.priority = static_cast<int>(*value);
    }
    if (const std::string wt = request.queryParam("weight"); !wt.empty()) {
        const std::optional<long> value = parseInt(wt);
        if (!value) {
            w.send(errorResponse(400, "weight: not an integer: " + wt));
            return;
        }
        jr.weight = static_cast<int>(*value);
    }
    if (const std::string r = request.queryParam("resume"); !r.empty()) {
        const std::optional<bool> value = parseBool(r);
        if (!value) {
            w.send(errorResponse(400, "resume: expected 0/1/true/false"));
            return;
        }
        jr.resume = *value;
    }

    std::optional<ExperimentSpec> spec =
        ExperimentSpec::fromJson(*specValue, &error);
    if (!spec) {
        w.send(errorResponse(400, "spec: " + error));
        return;
    }
    jr.spec = std::move(*spec);

    const std::optional<JobInfo> info = scheduler_.submit(std::move(jr),
                                                          &error);
    if (!info) {
        const int status =
            scheduler_.stopping() ? 503 : 400;
        w.send(errorResponse(status, error));
        return;
    }
    // 202 = admitted and will run; 200 = answered at admission (cache
    // hit or attached to an existing job).
    const bool instant = info->deduped || info->state == JobState::Done;
    w.send(net::jsonResponse(instant ? 200 : 202,
                             jobInfoToJson(*info).dump()));
}

void
Daemon::handleList(net::ResponseWriter &w)
{
    Value jobs = Value::array();
    for (const JobInfo &info : scheduler_.list())
        jobs.push(jobInfoToJson(info));
    Value v = Value::object();
    v.set("jobs", std::move(jobs));
    w.send(net::jsonResponse(200, v.dump()));
}

void
Daemon::handleStatus(const std::string &id, net::ResponseWriter &w)
{
    const std::optional<JobInfo> info = scheduler_.info(id);
    if (!info) {
        w.send(errorResponse(404, "no such job: " + id));
        return;
    }
    Value v = jobInfoToJson(*info);
    const std::shared_ptr<const ExperimentResult> result =
        scheduler_.result(id);
    v.set("result_ready", result != nullptr);
    if (result && result->spec.mode == ExperimentSpec::Mode::Dse)
        v.set("stats", writeJson(result->dse.stats));
    w.send(net::jsonResponse(200, v.dump()));
}

void
Daemon::handleResult(const std::string &id, net::ResponseWriter &w)
{
    const std::optional<JobInfo> info = scheduler_.info(id);
    if (!info) {
        w.send(errorResponse(404, "no such job: " + id));
        return;
    }
    const std::shared_ptr<const ExperimentResult> result =
        scheduler_.result(id);
    if (!result) {
        w.send(errorResponse(
            409, "job " + id + " is " + jobStateName(info->state) +
                     "; no result yet (GET /v1/jobs/" + id +
                     "/events to follow progress)"));
        return;
    }
    net::HttpResponse response =
        net::jsonResponse(200, result->toJson().dump(2));
    w.send(response);
}

void
Daemon::handleCancel(const std::string &id, net::ResponseWriter &w)
{
    if (!scheduler_.cancel(id)) {
        w.send(errorResponse(404, "no such job: " + id));
        return;
    }
    const std::optional<JobInfo> info = scheduler_.info(id);
    Value v = Value::object();
    v.set("cancelled", true);
    if (info)
        v.set("state", jobStateName(info->state));
    w.send(net::jsonResponse(200, v.dump()));
}

void
Daemon::handleEvents(const net::HttpRequest &request, const std::string &id,
                     net::ResponseWriter &w)
{
    if (!scheduler_.info(id)) {
        w.send(errorResponse(404, "no such job: " + id));
        return;
    }
    std::uint64_t after = 0;
    if (const std::string a = request.queryParam("after"); !a.empty()) {
        const std::optional<long> value = parseInt(a);
        if (!value || *value < 0) {
            w.send(errorResponse(400, "after: not a sequence number"));
            return;
        }
        after = static_cast<std::uint64_t>(*value);
    }

    net::HttpResponse head;
    head.status = 200;
    head.setHeader("Content-Type", "application/x-ndjson");
    if (!w.beginStream(std::move(head)))
        return;

    for (;;) {
        const std::vector<JobEvent> batch =
            scheduler_.waitEvents(id, after, options_.eventPollSeconds);
        for (const JobEvent &event : batch) {
            if (!w.writeChunk(eventToJson(event).dump() + "\n"))
                return; // peer gone / injected fault: drop the stream
            after = event.seq;
        }
        const std::optional<JobInfo> info = scheduler_.info(id);
        if (!info)
            break;
        const bool terminal = info->state == JobState::Done ||
                              info->state == JobState::Failed ||
                              info->state == JobState::Cancelled;
        if (terminal && after >= info->events) {
            Value fin = Value::object();
            fin.set("done", true);
            fin.set("state", jobStateName(info->state));
            fin.set("events", info->events);
            if (!info->error.empty())
                fin.set("error", info->error);
            w.writeChunk(fin.dump() + "\n");
            break;
        }
        if (w.serverStopping() || w.broken())
            break;
    }
    w.endStream();
}

} // namespace gemini::api
