"""`run.py --selftest`: checks the benchmark's own logic without a build.

Covers the percentile picker, failed-operation counting, the golden and
repeat checkers, and that run.py computes exactly the workloads and
metrics BENCHMARK.json declares.
"""

import ast
import copy
import inspect
import json

import checks
import run
import stats


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def test_tail_picker():
    # The highest ladder percentile leaving >= 10 samples beyond it.
    for n, want in ((96, 85), (288, 95), (100, 90), (1000, 99),
                    (20, 50), (19, None), (40, 75)):
        got = stats.pick_tail(n)
        expect(got == want, f"pick_tail({n}) = {got}, want {want}")
    expect(stats.percentile(list(range(1, 101)), 90) == 90, "nearest rank")
    summary = stats.summarize([float(x) for x in range(96)])
    expect(summary["tail_p"] == 85 and summary["n"] == 96, "summarize")


def test_failed_counting():
    tally = checks.Tally()
    for fails in ([], ["submit answered 500"], [], ["a", "b"], []):
        tally.op(fails)
    expect((tally.attempted, tally.failed) == (5, 2), "tally counts")
    expect(tally.failed_frac() == 0.4, "failed_frac")
    expect(tally.reasons == ["submit answered 500", "a", "b"], "reasons")


def sample_doc():
    rec = {"arch": {"name": "c0", "x_cores": 6}, "objective": 0.15253716,
           "objective_lower_bound": 0.1, "feasible": True,
           "eval_seconds": 0.5, "pruned_by_bound": False}
    other = dict(rec, arch={"name": "c1", "x_cores": 3}, objective=0.2)
    return {"error": "", "truncated": False, "cancelled": False,
            "dse": {"records": [rec, other], "best_index": 0,
                    "stats": {"rungs": [{"name": "screen",
                                         "cpu_seconds": 1.0}]}}}


def test_golden_flip():
    doc = sample_doc()
    golden = checks.golden_of(doc)
    expect(not checks.check_golden(golden, checks.golden_of(doc), "w"),
           "golden matches itself")
    flipped = dict(golden)
    text = flipped["best_objective"]
    flipped["best_objective"] = text[:-1] + str((int(text[-1]) + 1) % 10)
    expect(checks.check_golden(flipped, checks.golden_of(doc), "w"),
           "a golden with its last digit flipped must be rejected")


def test_repeat_checker():
    first = sample_doc()
    same = copy.deepcopy(first)
    expect(not checks.same_payload(first, same), "identical repeat passes")
    differs = copy.deepcopy(first)
    differs["dse"]["records"][1]["objective"] = 0.20000000000000004
    expect(checks.same_payload(first, differs),
           "a repeat whose document differs must be rejected")
    timing = copy.deepcopy(first)
    timing["dse"]["records"][0]["eval_seconds"] = 0.7
    expect(checks.same_payload(first, timing),
           "repeats are byte-identical, timing fields included")
    expect(not checks.same_payload(first, timing, timing=False),
           "a rerun may differ in timing fields only")
    below = copy.deepcopy(first)
    below["dse"]["records"][0]["objective_lower_bound"] = 0.2
    expect(checks.check_result(below), "objective below its bound")


def dict_keys(tree, pred):
    """Keys of the dict literals whose assignment or return matches."""
    found = []
    for node in ast.walk(tree):
        value = None
        if isinstance(node, ast.Assign) and pred(node.targets[0]):
            value = node.value
        elif isinstance(node, ast.Return) and pred(node):
            value = node.value
        if isinstance(value, ast.Dict):
            found.append({k.value for k in value.keys})
    return found


def test_declared_metrics():
    workloads, e2e, layers = run.spec_names()
    expect(sorted(workloads) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    tree = ast.parse(inspect.getsource(run))
    per_workload = dict_keys(tree, lambda t: isinstance(t, ast.Attribute)
                             and t.attr == "metrics")
    expect(len(per_workload) == 2, "one metrics dict per workload kind")
    for keys in per_workload:
        expect(keys == set(e2e), f"end-to-end metrics: declared "
                                 f"{sorted(e2e)}, computed {sorted(keys)}")
    layer_keys = dict_keys(ast.parse(inspect.getsource(run.layer_metrics)),
                           lambda t: isinstance(t, ast.Return))
    expect(len(layer_keys) == 1 and layer_keys[0] == set(layers),
           f"per-layer metrics: declared {sorted(layers)}, computed "
           f"{sorted(layer_keys[0]) if layer_keys else None}")


def test_serve_mix_blocks():
    # Every block of fresh specs carries the same mix of work.
    block = len(run.SERVE_MODELS) * len(run.SERVE_CANDIDATES)
    for seed in (1, 2):
        mix = sorted((s["models"][0]["zoo"], s["max_candidates"])
                     for s in (run.serve_spec(seed, 4, i)
                               for i in range(block, 2 * block)))
        expect(mix == sorted((m, c) for m in run.SERVE_MODELS
                             for c in run.SERVE_CANDIDATES), "block mix")
    expect(run.serve_spec(1, 4, 5) == run.serve_spec(1, 4, 5),
           "same seed, same inputs")
    expect(json.dumps(run.serve_spec(1, 4, 5)) !=
           json.dumps(run.serve_spec(2, 4, 5)), "seeds differ")


def main():
    tests = [test_tail_picker, test_failed_counting, test_golden_flip,
             test_repeat_checker, test_declared_metrics,
             test_serve_mix_blocks]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {test.__name__}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} selftests passed")
    return 1 if failed else 0
