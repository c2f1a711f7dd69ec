#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly-emitted benchmark JSON against a committed baseline and
fails (exit 1) on a regression. No check is ever skipped: a row, pair
member or column the gate reads that is missing from either file fails,
and the failure names it. Three file formats are understood:

* google-benchmark JSON (``BENCH_sa_throughput.json``): the gate holds a
  fixed table of same-run pairs (``SA_PAIRS``), each a numerator row over
  a denominator row of the same file. Both sides of a pair run on the
  same host in the same run, so their ratio barely depends on the host;
  a pair's current ratio may fall at most ``--tolerance`` below its
  baseline ratio. A row run with ``--benchmark_repetitions`` reads as the
  median ``items_per_second`` over its repetitions, which is
  google-benchmark's median aggregate; a file that kept aggregates only
  is read through that aggregate. Absolute throughput is printed beside each file's
  host context and is not gated. Every baseline row must be present, and
  every repetition of a row that reports ``best_cost`` must match the
  baseline *bit-exactly*: the SA walk is seeded, so a changed cost (FP
  reassociation, operator reordering, RNG drift) is a correctness bug,
  not noise. A pair's ratio does not move when both sides slow down
  equally; the end-to-end benchmark's parent/change A/B catches that.

* the DSE throughput JSON (``BENCH_dse_throughput.json``): the
  scheduler's ``cpu_speedup`` and ``sa_iters_speedup`` (within-run
  ratios) must not regress, and ``objective_ratio`` must stay <= 1 + eps
  (the scheduled driver must not find worse designs than the exhaustive
  one). Both drivers' winners are held to the baseline exactly:
  ``best_objective`` at the ``%.10g`` the bench writes, and ``best_arch``
  as written. Both drivers are seeded, so a different winner is a
  correctness bug, not noise.

* the paper-numbers JSON (``BENCH_paper.json``): one row per checkable
  paper number, each with a ``kind`` (``real``, ``count`` or ``bool``),
  a ``value`` and the paper's value or null. ``bench_paper`` is
  deterministic, so every baseline row must be present with the same
  kind, value and paper value, and the current file may add no row.
  Booleans and counts match exactly; reals match at the 4 significant
  digits the bench writes, as ``best_objective`` does at ``%.10g``.

Usage:
    bench_compare.py BASELINE CURRENT [--tolerance 0.10]
    bench_compare.py --selftest
"""

import argparse
import copy
import contextlib
import io
import json
import os
import statistics
import struct
import sys


# (numerator, denominator) rows of BENCH_sa_throughput.json: the delta
# path over the full merge on the same workload, and the optimized engine
# over the one with every mechanism off.
SA_PAIRS = (
    [("BM_SaThroughputOptimized", "BM_SaThroughputBaseline")]
    + [(f"BM_SaThroughputLarge/{k}", f"BM_SaThroughputLargeFullMerge/{k}")
       for k in range(4)]
    + [(f"BM_SaThroughputLargeScaling/{g}",
        f"BM_SaThroughputLargeScalingFullMerge/{g}")
       for g in (25, 50, 100, 157)]
)


def load(path):
    with open(path) as f:
        return json.load(f)


def sa_rows(doc):
    """name -> the entries the gate reads: the row's repetitions, or its
    median aggregate when the file kept aggregates only."""
    reps, medians = {}, {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        if b.get("run_type", "iteration") == "iteration":
            reps.setdefault(name, []).append(b)
        elif b.get("aggregate_name") == "median":
            medians[name] = [b]
    return {**medians, **reps}


def throughput(reps):
    """Median items_per_second over a row's repetitions, or None."""
    values = [r.get("items_per_second") for r in reps]
    if not values or None in values:
        return None
    return statistics.median(float(v) for v in values)


def print_context(label, doc):
    ctx = doc.get("context", {})
    print(f"{label}: {ctx.get('num_cpus', '?')} CPUs at "
          f"{ctx.get('mhz_per_cpu', '?')} MHz, "
          f"{ctx.get('gemini_build_type', 'unknown')} build, "
          f"{ctx.get('date', '?')}")


def compare_google(base_doc, cur_doc, tolerance):
    """Rows, costs and pairs are each checked, whatever the others find:
    best_cost matters most exactly when throughput moved."""
    base = sa_rows(base_doc)
    cur = sa_rows(cur_doc)
    print_context("baseline", base_doc)
    print_context("current ", cur_doc)
    rows_ok = compare_sa_rows(base, cur)
    costs_ok = compare_best_costs(base, cur)
    pairs_ok = compare_pairs(base, cur, tolerance)
    return rows_ok and costs_ok and pairs_ok


def compare_sa_rows(base, cur):
    """Print each row's absolute throughput (not gated); every baseline
    row must still be measured."""
    print(f"\n{'row (not gated)':<44} {'reps':>5} {'base it/s':>11} "
          f"{'cur it/s':>11}")
    def show(rows):
        v = throughput(rows)
        return f"{v:>11.0f}" if v is not None else f"{'-':>11}"

    missing = []
    for name in sorted(base.keys() | cur.keys()):
        reps = cur.get(name, [])
        print(f"{name:<44} {len(reps):>5} {show(base.get(name, []))} "
              f"{show(reps)}")
        if name in base and name not in cur:
            missing.append(name)
    if missing:
        print(f"\nFAIL: {len(missing)} baseline row(s) missing from the "
              "current file: " + ", ".join(missing))
        return False
    return True


def compare_best_costs(base, cur):
    """Seeded-walk results must be bit-identical run over run, in every
    repetition."""
    failures = []
    for name, reps in sorted(base.items()):
        if "best_cost" not in reps[0] or name not in cur:
            continue
        want = float(reps[0]["best_cost"])
        got = [r.get("best_cost") for r in reps[1:] + cur[name]]
        bad = [g for g in got if g is None or float(g) != want]
        if bad:
            failures.append(name)
            print(f"best_cost DIVERGED on {name}: baseline {want!r}, "
                  f"{len(bad)} of {len(got)} repetitions differ, e.g. "
                  f"{bad[0]!r}")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) changed best_cost — "
              "the seeded SA walk is no longer bit-identical: "
              + ", ".join(failures))
        return False
    return True


def compare_pairs(base, cur, tolerance):
    """Each same-run pair's ratio may fall at most `tolerance` below the
    baseline's ratio."""
    print(f"\n{'pair (gated)':<84} {'base':>6} {'cur':>6} {'cur/base':>8}")
    failures = []
    for num, den in SA_PAIRS:
        pair = f"{num} / {den}"
        sides = [throughput(doc.get(name, []))
                 for doc in (base, cur) for name in (num, den)]
        if None in sides or 0.0 in sides:
            failures.append(pair)
            print(f"{pair:<84} MISSING a member or its items_per_second")
            continue
        b = sides[0] / sides[1]
        c = sides[2] / sides[3]
        flag = ""
        if c < b * (1.0 - tolerance):
            failures.append(pair)
            flag = "  << REGRESSION"
        print(f"{pair:<84} {b:>6.3f} {c:>6.3f} {c / b:>7.2f}x{flag}")
    if failures:
        print(f"\nFAIL: {len(failures)} pair(s) missing or more than "
              f"{tolerance * 100:.0f}% below the baseline ratio: "
              + ", ".join(failures))
        return False
    print(f"\nOK: no pair fell more than {tolerance * 100:.0f}%")
    return True


def dse_field(doc, path, label, failures):
    """doc[path[0]][path[1]]...; a missing field is a named failure."""
    value = doc
    for key in path:
        if not isinstance(value, dict) or key not in value:
            failures.append(f"{label} lacks {'.'.join(path)}")
            print(f"FAIL: {label} lacks {'.'.join(path)}")
            return None
        value = value[key]
    return value


def compare_dse(base_doc, cur_doc, tolerance):
    for label, doc in (("baseline", base_doc), ("current ", cur_doc)):
        print(f"{label} context: {json.dumps(doc.get('context'))}")
    failures = []

    def both(path):
        return (dse_field(base_doc, path, "baseline", failures),
                dse_field(cur_doc, path, "current", failures))

    for column, what in (("cpu_speedup", "cpu"),
                         ("sa_iters_speedup", "sa-iteration")):
        base, cur = both((column,))
        if base is None or cur is None:
            continue
        print(f"dse {column}: baseline {float(base):.2f}x, "
              f"current {float(cur):.2f}x")
        if float(cur) < float(base) * (1.0 - tolerance):
            failures.append(column)
            print(f"FAIL: scheduler {what} speedup ({column}) regressed "
                  f"more than {tolerance * 100:.0f}%")
    _, cur_obj = both(("objective_ratio",))
    if cur_obj is not None:
        print(f"dse objective_ratio: {float(cur_obj):.6f} (<= 1 means "
              "scheduled is equal or better)")
        if float(cur_obj) > 1.0 + 1e-6:
            failures.append("objective_ratio")
            print("FAIL: scheduled driver found a worse design than the "
                  "exhaustive one")
    for driver in ("exhaustive", "scheduled"):
        base, cur = both((driver, "best_objective"))
        if base is not None and cur is not None:
            base_obj = f"{float(base):.10g}"
            cur_obj = f"{float(cur):.10g}"
            print(f"dse {driver} best_objective: baseline {base_obj}, "
                  f"current {cur_obj}")
            if cur_obj != base_obj:
                failures.append(f"{driver}.best_objective")
                print(f"FAIL: {driver} best_objective differs from the "
                      "baseline")
        base, cur = both((driver, "best_arch"))
        if base is not None and cur is not None and cur != base:
            failures.append(f"{driver}.best_arch")
            print(f"FAIL: {driver} best_arch differs from the baseline: "
                  f"{base!r} != {cur!r}")
    if failures:
        print("\nFAIL: " + ", ".join(failures))
        return False
    print("OK: DSE throughput within tolerance")
    return True


def compare_paper(base_doc, cur_doc):
    """Every paper row must reproduce the baseline's row exactly."""
    if base_doc["effort"] != cur_doc["effort"]:
        print(f"FAIL: baseline is effort {base_doc['effort']}, current is "
              f"effort {cur_doc['effort']}")
        return False
    base = {r["name"]: r for r in base_doc["rows"]}
    cur = {r["name"]: r for r in cur_doc["rows"]}
    show = json.dumps
    failures = []
    for name, row in base.items():
        if name not in cur:
            failures.append(name)
            print(f"MISSING {name}: baseline {show(row['value'])}")
        elif cur[name] != row:
            failures.append(name)
            print(f"CHANGED {name}: baseline {show(row['value'])} "
                  f"(paper {show(row['paper'])}), current "
                  f"{show(cur[name]['value'])} "
                  f"(paper {show(cur[name]['paper'])})")
    for name in sorted(cur.keys() - base.keys()):
        failures.append(name)
        print(f"NEW {name}: {show(cur[name]['value'])} has no baseline row")
    if failures:
        print(f"\nFAIL: {len(failures)} of {len(base)} paper row(s) differ "
              "from the baseline: " + ", ".join(failures))
        return False
    print(f"OK: all {len(base)} paper rows match the baseline")
    return True


def compare(base_doc, cur_doc, tolerance):
    if "rows" in base_doc:
        return compare_paper(base_doc, cur_doc)
    if "cpu_speedup" in base_doc:
        return compare_dse(base_doc, cur_doc, tolerance)
    return compare_google(base_doc, cur_doc, tolerance)


def flip_low_bit(x):
    """x with the lowest bit of its IEEE-754 mantissa flipped."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


def paper_cases(doc):
    """A changed real, a flipped boolean and a missing row."""
    def mutated(kind, change):
        cur = copy.deepcopy(doc)
        row = next(r for r in cur["rows"] if r["kind"] == kind)
        change(cur, row)
        return cur, row["name"]

    return {
        "changed real": mutated(
            "real", lambda d, r: r.update(value=r["value"] + 0.001)),
        "flipped bool": mutated(
            "bool", lambda d, r: r.update(value=not r["value"])),
        "missing row": mutated(
            "count", lambda d, r: d["rows"].remove(r)),
    }


def sa_cases(doc):
    """A pair's numerator 20% slower, one best_cost bit flipped and a
    deleted row."""
    def mutated(name, change):
        cur = copy.deepcopy(doc)
        for b in cur["benchmarks"]:
            if b.get("run_name", b["name"]) == name:
                change(b)
        cur["benchmarks"] = [b for b in cur["benchmarks"] if b]
        return cur

    num, den = SA_PAIRS[1]
    costed = SA_PAIRS[-1][0]
    return {
        "20% slower numerator": (mutated(num, lambda b: b.update(
            items_per_second=b["items_per_second"] * 0.8)),
            f"{num} / {den}"),
        "flipped best_cost bit": (mutated(costed, lambda b: b.update(
            best_cost=flip_low_bit(b["best_cost"]))), costed),
        "deleted row": (mutated(den, lambda b: b.clear()), den),
    }


def dse_cases(doc):
    """A 20% cpu_speedup drop, a changed best_arch and a missing
    sa_iters_speedup."""
    slower = copy.deepcopy(doc)
    slower["cpu_speedup"] *= 0.8
    other_arch = copy.deepcopy(doc)
    other_arch["scheduled"]["best_arch"] += " "
    no_iters = copy.deepcopy(doc)
    del no_iters["sa_iters_speedup"]
    return {
        "20% cpu_speedup drop": (slower, "cpu_speedup"),
        "changed best_arch": (other_arch, "scheduled.best_arch"),
        "missing sa_iters_speedup": (no_iters, "sa_iters_speedup"),
    }


def selftest():
    """Each gate against its committed baseline: an identical copy
    passes (and, for the SA gate, so does a uniform 2x throughput drop
    on every row), and every case in *_cases fails, naming the row, pair
    or column it changed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run(base, cur):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ok = compare(base, cur, 0.10)
        return ok, out.getvalue()

    count = 0
    for file, cases in (("BENCH_paper.json", paper_cases),
                        ("BENCH_sa_throughput.json", sa_cases),
                        ("BENCH_dse_throughput.json", dse_cases)):
        base = load(os.path.join(root, file))
        passing = {"identical copy": copy.deepcopy(base)}
        if "benchmarks" in base:
            halved = copy.deepcopy(base)
            for b in halved["benchmarks"]:
                if "items_per_second" in b:
                    b["items_per_second"] *= 0.5
            passing["uniform 2x slowdown"] = halved
        for what, cur in passing.items():
            ok, text = run(base, cur)
            if not ok:
                raise AssertionError(f"{file}: an {what} must pass\n{text}")
        for what, (cur, name) in cases(base).items():
            ok, text = run(base, cur)
            named = any(name in line for line in text.splitlines()
                        if line.startswith("FAIL"))
            if ok or not named:
                raise AssertionError(
                    f"{file}: a {what} ({name}) must fail, naming it\n{text}")
        count += len(passing) + len(cases(base))
    print(f"bench_compare selftest: ok ({count} cases)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--selftest", action="store_true",
                    help="check every gate against its committed baseline")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.baseline or not args.current:
        ap.error("BASELINE and CURRENT are required")

    ok = compare(load(args.baseline), load(args.current), args.tolerance)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
