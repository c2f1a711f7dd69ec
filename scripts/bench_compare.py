#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly-emitted benchmark JSON against a committed baseline and
fails (exit 1) on a throughput regression beyond the tolerance. Two file
formats are understood:

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

Usage:
    bench_compare.py BASELINE CURRENT [--tolerance 0.10]
                     [--anchor BM_SaThroughputSeed]
"""

import argparse
import json
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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--anchor", default="BM_SaThroughputSeed",
                    help="machine-speed anchor benchmark name")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)

    if "cpu_speedup" in base_doc:
        ok = compare_dse(base_doc, cur_doc, args.tolerance)
    else:
        ok = compare_google(base_doc, cur_doc, args.tolerance, args.anchor)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
