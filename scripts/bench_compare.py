#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly-emitted benchmark JSON against a committed baseline and
fails (exit 1) on a regression. Three file formats are understood:

* google-benchmark JSON (``BENCH_sa_throughput.json``): every benchmark
  present in both files is compared on ``items_per_second``. Because CI
  runners and developer machines differ in absolute speed, throughputs are
  normalized by an anchor benchmark measured in the *same* file (default:
  ``BM_SaThroughputSeed``, a frozen verbatim port of the seed-commit hot
  path) — the gate therefore compares machine-independent speedup ratios,
  not raw numbers. Benchmarks that report a ``best_cost`` counter are
  additionally held to *bit-exact* equality with the baseline: the SA
  walk is seeded, so any optimization that changes the visited costs (FP
  reassociation, operator reordering, RNG drift) is a correctness bug,
  not noise.

* the DSE throughput JSON (``BENCH_dse_throughput.json``): the scheduler's
  ``cpu_speedup`` (itself a within-run ratio) must not regress, and
  ``objective_ratio`` must stay <= 1 + eps (the scheduled driver must not
  find worse designs than the exhaustive one). Both drivers' winners are
  held to the baseline exactly: ``best_objective`` at the ``%.10g`` the
  bench writes, and ``best_arch`` as written. Both drivers are seeded, so
  a different winner is a correctness bug, not noise.

* the paper-numbers JSON (``BENCH_paper.json``): one row per checkable
  paper number, each with a ``kind`` (``real``, ``count`` or ``bool``),
  a ``value`` and the paper's value or null. ``bench_paper`` is
  deterministic, so every baseline row must be present with the same
  kind, value and paper value, and the current file may add no row.
  Booleans and counts match exactly; reals match at the 4 significant
  digits the bench writes, as ``best_objective`` does at ``%.10g``.

Usage:
    bench_compare.py BASELINE CURRENT [--tolerance 0.10]
                     [--anchor BM_SaThroughputSeed]
    bench_compare.py --selftest
"""

import argparse
import copy
import contextlib
import io
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def google_benchmarks(doc):
    """name -> items_per_second for plain (non-aggregate) entries."""
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        ips = b.get("items_per_second")
        if ips:
            out[b["name"]] = float(ips)
    return out


def best_costs(doc):
    """name -> best_cost for entries that report the counter."""
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        cost = b.get("best_cost")
        if cost is not None:
            out[b["name"]] = float(cost)
    return out


def compare_best_costs(base_doc, cur_doc):
    """Seeded-walk results must be bit-identical run over run."""
    base = best_costs(base_doc)
    cur = best_costs(cur_doc)
    failures = []
    for name in sorted(set(base) & set(cur)):
        if cur[name] != base[name]:
            failures.append(name)
            print(f"best_cost DIVERGED on {name}: baseline "
                  f"{base[name]!r} != current {cur[name]!r}")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) changed best_cost — "
              "the seeded SA walk is no longer bit-identical")
        return False
    return True


def compare_google(base_doc, cur_doc, tolerance, anchor):
    """Throughput and bit-exactness are both checked, whatever the other
    finds: best_cost matters most exactly when throughput moved."""
    throughput_ok = compare_throughput(base_doc, cur_doc, tolerance, anchor)
    costs_ok = compare_best_costs(base_doc, cur_doc)
    return throughput_ok and costs_ok


def compare_throughput(base_doc, cur_doc, tolerance, anchor):
    base = google_benchmarks(base_doc)
    cur = google_benchmarks(cur_doc)
    if anchor not in base or anchor not in cur:
        print(f"anchor '{anchor}' missing; comparing raw throughput")
        base_anchor = cur_anchor = 1.0
    else:
        base_anchor = base[anchor]
        cur_anchor = cur[anchor]

    failures = []
    shared = sorted(set(base) & set(cur) - {anchor})
    if not shared:
        print("error: no common benchmarks between baseline and current")
        return False
    print(f"{'benchmark':<44} {'base(norm)':>10} {'cur(norm)':>10} "
          f"{'ratio':>7}")
    for name in shared:
        b = base[name] / base_anchor
        c = cur[name] / cur_anchor
        ratio = c / b if b > 0 else float("inf")
        flag = ""
        if c < b * (1.0 - tolerance):
            failures.append(name)
            flag = "  << REGRESSION"
        print(f"{name:<44} {b:>10.3f} {c:>10.3f} {ratio:>6.2f}x{flag}")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{tolerance * 100:.0f}% (anchor-normalized): "
              + ", ".join(failures))
        return False
    print(f"\nOK: no benchmark regressed more than {tolerance * 100:.0f}%")
    return True


def compare_dse(base_doc, cur_doc, tolerance):
    base_speedup = float(base_doc["cpu_speedup"])
    cur_speedup = float(cur_doc["cpu_speedup"])
    cur_obj = float(cur_doc["objective_ratio"])
    ok = True
    print(f"dse cpu_speedup: baseline {base_speedup:.2f}x, "
          f"current {cur_speedup:.2f}x")
    if cur_speedup < base_speedup * (1.0 - tolerance):
        print(f"FAIL: scheduler cpu speedup regressed more than "
              f"{tolerance * 100:.0f}%")
        ok = False
    print(f"dse objective_ratio: {cur_obj:.6f} (<= 1 means scheduled is "
          f"equal or better)")
    if cur_obj > 1.0 + 1e-6:
        print("FAIL: scheduled driver found a worse design than the "
              "exhaustive one")
        ok = False
    if not compare_dse_winners(base_doc, cur_doc):
        ok = False
    # SA-iteration efficiency gate (skipped against baselines that predate
    # the analytical screening & seeding work and lack the column).
    if "sa_iters_speedup" in base_doc and "sa_iters_speedup" in cur_doc:
        base_iters = float(base_doc["sa_iters_speedup"])
        cur_iters = float(cur_doc["sa_iters_speedup"])
        print(f"dse sa_iters_speedup: baseline {base_iters:.2f}x, "
              f"current {cur_iters:.2f}x")
        if cur_iters < base_iters * (1.0 - tolerance):
            print(f"FAIL: scheduler sa-iteration speedup regressed more "
                  f"than {tolerance * 100:.0f}%")
            ok = False
    elif "sa_iters_speedup" in cur_doc:
        print(f"dse sa_iters_speedup: current "
              f"{float(cur_doc['sa_iters_speedup']):.2f}x "
              f"(baseline lacks the column; gate skipped)")
    if ok:
        print("OK: DSE throughput within tolerance")
    return ok


def compare_dse_winners(base_doc, cur_doc):
    """Each driver's winner must match the baseline's exactly."""
    ok = True
    for driver in ("exhaustive", "scheduled"):
        base = base_doc[driver]
        cur = cur_doc[driver]
        base_obj = f"{float(base['best_objective']):.10g}"
        cur_obj = f"{float(cur['best_objective']):.10g}"
        print(f"dse {driver} best_objective: baseline {base_obj}, "
              f"current {cur_obj}")
        if cur_obj != base_obj:
            print(f"FAIL: {driver} best_objective differs from the baseline")
            ok = False
        if cur["best_arch"] != base["best_arch"]:
            print(f"FAIL: {driver} best_arch differs from the baseline: "
                  f"{base['best_arch']!r} != {cur['best_arch']!r}")
            ok = False
    return ok


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


def compare(base_doc, cur_doc, tolerance, anchor):
    if "rows" in base_doc:
        return compare_paper(base_doc, cur_doc)
    if "cpu_speedup" in base_doc:
        return compare_dse(base_doc, cur_doc, tolerance)
    return compare_google(base_doc, cur_doc, tolerance, anchor)


def selftest():
    """The paper gate against the committed BENCH_paper.json: an
    identical copy passes; a changed real, a flipped boolean and a missing
    row each fail, and the failure names the row."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    base = load(os.path.join(root, "BENCH_paper.json"))

    def run(cur):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ok = compare(base, cur, 0.10, "BM_SaThroughputSeed")
        return ok, out.getvalue()

    def mutated(kind, change):
        cur = copy.deepcopy(base)
        row = next(r for r in cur["rows"] if r["kind"] == kind)
        change(cur, row)
        return cur, row["name"]

    ok, _ = run(copy.deepcopy(base))
    if not ok:
        raise AssertionError("an identical copy must pass")
    cases = {
        "changed real": mutated(
            "real", lambda doc, r: r.update(value=r["value"] + 0.001)),
        "flipped bool": mutated(
            "bool", lambda doc, r: r.update(value=not r["value"])),
        "missing row": mutated(
            "count", lambda doc, r: doc["rows"].remove(r)),
    }
    for what, (cur, name) in cases.items():
        ok, text = run(cur)
        if ok or name not in text:
            raise AssertionError(f"a {what} ({name}) must fail, naming it")
    print(f"bench_compare selftest: ok ({len(cases) + 1} cases)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--selftest", action="store_true",
                    help="check the paper gate against BENCH_paper.json")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--anchor", default="BM_SaThroughputSeed",
                    help="machine-speed anchor benchmark name")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.baseline or not args.current:
        ap.error("BASELINE and CURRENT are required")

    ok = compare(load(args.baseline), load(args.current), args.tolerance,
                 args.anchor)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
