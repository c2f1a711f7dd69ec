/**
 * @file
 * The `gemini` command-line front end: drive the whole co-exploration
 * loop from a JSON ExperimentSpec, no C++ required.
 *
 *   gemini run <spec.json> [--out DIR] [--store DIR] [--deadline SEC]
 *              [--resume] [--workers N] execute; write result.json (+ CSVs)
 *   gemini resume <hash|spec.json> --store DIR [--out DIR] [--workers N]
 *                                       continue an interrupted run from
 *                                       its rung journal
 *   gemini store ls|gc [--dry-run] [--store DIR]
 *                                       inspect / garbage-collect a store
 *   gemini worker                       supervised-mode worker loop
 *                                       (spawned by the service, not by
 *                                       hand; frames on stdin/stdout)
 *   gemini validate <spec.json>         parse + validate, report problems
 *   gemini models                       list model-zoo registry names
 *   gemini presets                      list architecture preset names
 *
 *   gemini serve [--port N] --store DIR [--jobs N] [--bind ADDR]
 *                                       HTTP exploration daemon with
 *                                       multi-tenant fair-share scheduling
 *   gemini submit <spec.json> --server URL [--tenant T] [--priority N]
 *                 [--weight N] [--resume] [--wait]
 *   gemini status|result|cancel|watch <job-id> --server URL
 *                                       client commands against a daemon
 *                                       (see tools/gemini_serve_cmds.cc)
 *
 * Artifacts route through common/artifacts (--out DIR or GEMINI_OUT_DIR;
 * default: the current directory), matching every bench harness. The
 * store directory comes from --store or GEMINI_STORE_DIR. result.json is
 * published atomically (temp + rename), so a killed run never leaves a
 * half-written file behind.
 */

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "src/api/results.hh"
#include "tools/gemini_serve_cmds.hh"
#include "src/api/service.hh"
#include "src/api/spec.hh"
#include "src/api/store.hh"
#include "src/api/worker.hh"
#include "src/arch/presets.hh"
#include "src/common/artifacts.hh"
#include "src/common/fs_atomic.hh"
#include "src/common/json.hh"
#include "src/dnn/zoo.hh"

using namespace gemini;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <command> [args]\n"
        "  run <spec.json> [--out DIR] [--store DIR] [--deadline SEC] "
        "[--resume] [--workers N]\n"
        "                               execute an experiment spec; "
        "write result.json\n"
        "  resume <hash|spec.json> --store DIR [--out DIR] [--workers N]\n"
        "                               continue an interrupted run from "
        "its journal\n"
        "  store ls|gc [--dry-run] [--store DIR]\n"
        "                               list / garbage-collect stored "
        "results\n"
        "  worker                       supervised-mode worker loop "
        "(spawned by the service)\n"
        "  validate <spec.json>         check a spec, report problems\n"
        "  models                       list model-zoo names\n"
        "  presets                      list architecture presets\n"
        "  serve [--port N] --store DIR [--jobs N] [--bind ADDR] "
        "[--port-file P]\n"
        "                               run the HTTP exploration daemon\n"
        "  submit <spec.json> --server URL [--tenant T] [--priority N]\n"
        "         [--weight N] [--resume] [--wait]\n"
        "                               admit a job on a daemon\n"
        "  status <job-id> --server URL    job state + stats\n"
        "  result <job-id> --server URL [--out DIR]\n"
        "                               fetch a finished job's result.json\n"
        "  cancel <job-id> --server URL    cooperative cancel\n"
        "  watch  <job-id> --server URL [--after N]\n"
        "                               stream progress events (NDJSON)\n"
        "\n"
        "  --store DIR defaults to the GEMINI_STORE_DIR environment "
        "variable.\n"
        "  --deadline SEC bounds wall-clock time; a hit deadline returns "
        "the\n"
        "  best-so-far result flagged \"truncated\" and keeps the rung "
        "journal\n"
        "  so `resume` can continue with more time.\n"
        "  --workers N evaluates DSE candidates in N supervised worker\n"
        "  subprocesses (crash isolation + poison quarantine); 0 = one "
        "per\n"
        "  pool thread. Winners are bit-identical to in-process runs.\n",
        argv0);
    return 2;
}

/** `--store DIR` from argv, else GEMINI_STORE_DIR, else "". */
std::string
storeDir(int argc, char **argv)
{
    for (int i = 2; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--store") == 0)
            return argv[i + 1];
    const char *env = std::getenv("GEMINI_STORE_DIR");
    return env ? env : "";
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 2; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/** `--deadline SEC` from argv; negative = not given. */
double
deadlineArg(int argc, char **argv)
{
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--deadline") != 0)
            continue;
        char *end = nullptr;
        const double v = std::strtod(argv[i + 1], &end);
        if (end == argv[i + 1] || *end != '\0' || v < 0.0) {
            std::fprintf(stderr, "--deadline: expected seconds >= 0, got "
                         "\"%s\"\n", argv[i + 1]);
            std::exit(2);
        }
        return v;
    }
    return -1.0;
}

/** `--workers N` from argv; negative = not given (0 = auto). */
int
workersArg(int argc, char **argv)
{
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") != 0)
            continue;
        char *end = nullptr;
        const long v = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || *end != '\0' || v < 0) {
            std::fprintf(stderr, "--workers: expected a count >= 0, got "
                         "\"%s\"\n", argv[i + 1]);
            std::exit(2);
        }
        return static_cast<int>(v);
    }
    return -1;
}

/** Parse + validate a spec file; nullopt (with diagnostics) on failure. */
std::optional<api::ExperimentSpec>
loadSpec(const std::string &path)
{
    std::string error;
    std::optional<api::ExperimentSpec> spec =
        api::ExperimentSpec::fromFile(path, &error);
    if (!spec) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return std::nullopt;
    }
    const std::string problems = spec->validate();
    if (!problems.empty()) {
        std::fprintf(stderr, "%s: invalid spec:\n%s\n", path.c_str(),
                     problems.c_str());
        return std::nullopt;
    }
    return spec;
}

int
cmdValidate(const std::string &path)
{
    const std::optional<api::ExperimentSpec> spec = loadSpec(path);
    if (!spec)
        return 1;
    std::printf("%s: OK (name \"%s\", mode %s, %zu model(s), spec hash "
                "0x%016" PRIx64 ")\n",
                path.c_str(), spec->name.c_str(),
                spec->mode == api::ExperimentSpec::Mode::Map ? "map" : "dse",
                spec->models.size(), spec->canonicalHash());
    return 0;
}

void
printProgress(const api::ProgressEvent &e)
{
    if (e.kind == api::ProgressEvent::Kind::RungEntered) {
        std::fprintf(stderr, "[gemini] %-10s entered  in=%d\n",
                     e.rung.c_str(), e.entered);
        return;
    }
    std::fprintf(stderr,
                 "[gemini] %-10s finished out=%d pruned(bound/rank)=%d/%d "
                 "best=%.4g\n",
                 e.rung.c_str(), e.advanced, e.prunedBound, e.prunedRank,
                 e.bestObjective);
}

/** Run `spec` (optionally resuming) and publish artifacts. */
int
executeSpec(api::ExperimentSpec spec, bool resume, int argc, char **argv)
{
    const std::string out_dir = common::artifactDir(argc, argv);
    const std::string store_dir = storeDir(argc, argv);
    const double deadline = deadlineArg(argc, argv);
    if (deadline >= 0.0)
        spec.deadlineSeconds = deadline;
    const int workers = workersArg(argc, argv);
    if (workers >= 0) {
        spec.execution.mode = api::ExecutionSpec::Mode::Workers;
        spec.execution.workers = workers;
    }
    if (resume && store_dir.empty()) {
        std::fprintf(stderr, "resume needs --store DIR (or "
                     "GEMINI_STORE_DIR): the rung journal lives in the "
                     "store\n");
        return 2;
    }

    std::shared_ptr<api::ResultStore> store;
    if (!store_dir.empty())
        store = std::make_shared<api::ResultStore>(store_dir);

    api::ExplorationService service(spec.threads, store);
    api::SubmitOptions options;
    options.progress = printProgress;
    options.resume = resume;
    api::JobHandle job = service.submit(std::move(spec), std::move(options));
    const api::ExperimentResult &result = job.wait();
    if (result.failed()) {
        std::fprintf(stderr, "job failed: %s\n", result.error.c_str());
        return 1;
    }
    if (result.fromCache)
        std::printf("served from cache (hash 0x%016" PRIx64 ")\n",
                    result.specHash);

    const std::string result_json =
        common::artifactPath(out_dir, "result.json");
    std::string werror;
    if (!common::writeFileAtomic(result_json,
                                 result.toJson().dump(2) + "\n", &werror)) {
        std::fprintf(stderr, "%s\n", werror.c_str());
        return 1;
    }

    if (result.spec.mode == api::ExperimentSpec::Mode::Dse) {
        const std::string records_csv =
            common::artifactPath(out_dir, "dse_result.csv");
        const std::string rungs_csv =
            common::artifactPath(out_dir, "dse_rungs.csv");
        result.dse.writeCsv(records_csv, rungs_csv);
        if (result.dse.bestIndex >= 0) {
            const dse::DseRecord &best = result.dse.best();
            std::printf("winner: %s  MC=$%.2f D=%.3fms E=%.3fJ obj=%.4g\n",
                        best.arch.toString().c_str(), best.mc.total(),
                        best.delayGeo * 1e3, best.energyGeo,
                        best.objective);
        } else {
            std::printf("no feasible candidate%s\n",
                        result.cancelled ? " (run was cancelled)" : "");
        }
        std::printf("records -> %s\nrungs   -> %s\n", records_csv.c_str(),
                    rungs_csv.c_str());
    } else {
        for (std::size_t i = 0; i < result.mappings.size(); ++i) {
            const mapping::MappingResult &m = result.mappings[i];
            std::printf("model %zu: delay %.3f ms, energy %.4f J, "
                        "%zu groups\n",
                        i, m.total.delay * 1e3, m.total.totalEnergy(),
                        m.mapping.groups.size());
        }
    }
    std::printf("result  -> %s\n", result_json.c_str());
    if (result.truncated) {
        std::printf("deadline hit: result is best-so-far (truncated)");
        if (store)
            std::printf("; continue with\n  gemini resume 0x%016" PRIx64
                        " --store %s",
                        result.specHash, store->dir().c_str());
        std::printf("\n");
        return 3; // distinguishable from success and from failure
    }
    return 0;
}

int
cmdRun(const std::string &path, int argc, char **argv)
{
    std::optional<api::ExperimentSpec> spec = loadSpec(path);
    if (!spec)
        return 1;
    return executeSpec(std::move(*spec), hasFlag(argc, argv, "--resume"),
                       argc, argv);
}

int
cmdResume(const std::string &target, int argc, char **argv)
{
    // `resume <16-hex-hash>` pulls the spec sidecar from the store;
    // `resume <spec.json>` rehashes the file. Both then run with
    // SubmitOptions::resume so the journal warm-starts the scheduler.
    std::string hex = target.rfind("0x", 0) == 0 ? target.substr(2) : target;
    std::transform(hex.begin(), hex.end(), hex.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    const std::optional<std::uint64_t> hash = common::json::parseHex64(hex);
    if (!hash) {
        std::optional<api::ExperimentSpec> spec = loadSpec(target);
        if (!spec)
            return 1;
        return executeSpec(std::move(*spec), /*resume=*/true, argc, argv);
    }

    const std::string store_dir = storeDir(argc, argv);
    if (store_dir.empty()) {
        std::fprintf(stderr, "resume <hash> needs --store DIR (or "
                     "GEMINI_STORE_DIR)\n");
        return 2;
    }
    api::ResultStore store(store_dir);
    std::string error;
    std::optional<api::ExperimentSpec> spec = store.loadSpec(*hash, &error);
    if (!spec) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return executeSpec(std::move(*spec), /*resume=*/true, argc, argv);
}

int
cmdStore(const std::string &sub, int argc, char **argv)
{
    const std::string store_dir = storeDir(argc, argv);
    if (store_dir.empty()) {
        std::fprintf(stderr, "store %s needs --store DIR (or "
                     "GEMINI_STORE_DIR)\n", sub.c_str());
        return 2;
    }
    api::ResultStore store(store_dir);
    if (sub == "ls") {
        const std::vector<api::StoreEntry> entries = store.list();
        int poisoned = 0;
        for (const api::StoreEntry &e : entries) {
            std::printf("0x%016" PRIx64 "  %8" PRIu64 " B%s", e.hash,
                        e.bytes, e.hasJournal ? "  [journal]" : "");
            if (e.poisoned > 0)
                std::printf("  [%d poisoned]", e.poisoned);
            std::printf("\n");
            poisoned += e.poisoned;
        }
        std::printf("%zu result(s) in %s (%d poisoned candidate(s), "
                    "%d quarantined file(s))\n",
                    entries.size(), store.dir().c_str(), poisoned,
                    store.quarantinedFiles());
        return 0;
    }
    if (sub == "gc") {
        const bool dry = hasFlag(argc, argv, "--dry-run");
        const api::StoreGcStats stats = store.gc(dry);
        for (const std::string &p : stats.paths)
            std::printf("%s %s\n", dry ? "would remove" : "removed",
                        p.c_str());
        std::printf("%s %d quarantined, %d temp file(s), %d spent "
                    "journal(s)\n",
                    dry ? "would remove" : "removed", stats.quarantined,
                    stats.tmpFiles, stats.journals);
        return 0;
    }
    std::fprintf(stderr, "store: unknown subcommand \"%s\" (ls|gc)\n",
                 sub.c_str());
    return 2;
}

template <typename Names>
int
printNames(const Names &names)
{
    for (const std::string &n : names)
        std::printf("%s\n", n.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string cmd = argv[1];
    if (cmd == "worker")
        return api::runWorkerMain();
    if (cmd == "models")
        return printNames(dnn::zoo::available());
    if (cmd == "presets")
        return printNames(arch::presets::names());
    if (cmd == "validate") {
        if (argc < 3) {
            std::fprintf(stderr, "validate: missing spec file\n");
            return 2;
        }
        return cmdValidate(argv[2]);
    }
    if (cmd == "run") {
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "run: missing spec file\n");
            return 2;
        }
        return cmdRun(argv[2], argc, argv);
    }
    if (cmd == "resume") {
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "resume: missing hash or spec file\n");
            return 2;
        }
        return cmdResume(argv[2], argc, argv);
    }
    if (cmd == "store") {
        if (argc < 3) {
            std::fprintf(stderr, "store: missing subcommand (ls|gc)\n");
            return 2;
        }
        return cmdStore(argv[2], argc, argv);
    }
    if (cmd == "serve")
        return cli::cmdServe(argc, argv);
    if (cmd == "submit") {
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "submit: missing spec file\n");
            return 2;
        }
        return cli::cmdSubmit(argv[2], argc, argv);
    }
    if (cmd == "status" || cmd == "result" || cmd == "cancel" ||
        cmd == "watch") {
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "%s: missing job id\n", cmd.c_str());
            return 2;
        }
        if (cmd == "status")
            return cli::cmdStatus(argv[2], argc, argv);
        if (cmd == "result")
            return cli::cmdResult(argv[2], argc, argv);
        if (cmd == "cancel")
            return cli::cmdCancel(argv[2], argc, argv);
        return cli::cmdWatch(argv[2], argc, argv);
    }
    return usage(argv[0]);
}
