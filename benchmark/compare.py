#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

  python3 benchmark/compare.py SET_A/ SET_B/ [--layers]
  python3 benchmark/compare.py --selftest

A set is a directory of the run records run.py writes to
build/benchmark/runs/ (move that directory aside to start a new set).
SET_A is the parent, SET_B the change. For every workload x end-to-end
metric the table shows each side's median and quartiles, the share of
seed-matched pairs the change won, and a verdict:

  unresolved  either side's relative IQR exceeds the metric's bound, and
              not every run of the change beats every run of the parent
  REGRESSION  the change's median is worse than the parent's by more than
              the bound
  GAIN        the change won at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's IQR
  same        none of the above

Bounds and directions come from BENCHMARK.json. --layers adds the
per-layer metrics of traced runs, which carry no bound. Exit status 1
means some metric regressed.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory):
    """{(workload, traced): {metric: {seed: [values in run order]}}}"""
    out = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    files = sorted(Path(directory).glob("*.json"),
                   key=lambda p: p.stat().st_mtime)
    for path in files:
        try:
            rec = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(rec, dict) or "metrics" not in rec:
            continue
        key = (rec["workload"], bool(rec.get("trace")))
        for name, m in rec["metrics"].items():
            out[key][name][rec["seed"]].append(m["value"])
    return out


def verdict(a, b, better, bound, pairs):
    """Verdict for parent values a and change values b (see the module
    docstring); `pairs` are (parent, change) values of matched runs."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = stats.quartiles(a), stats.quartiles(b)
    med_a, med_b = qa[1], qb[1]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    every_better = all(sign * (y - x) > 0 for x in a for y in b)
    if bound is None:
        return "n/a", win_frac
    spread = max(stats.relative_iqr(a), stats.relative_iqr(b))
    if spread > bound and not every_better:
        return "unresolved", win_frac
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "REGRESSION", win_frac
    if (pairs and win_frac >= 0.9 and sign * (med_b - med_a) > 0
            and abs(med_b - med_a) > qa[2] - qa[0]):
        return "GAIN", win_frac
    return "same", win_frac


def rows(set_a, set_b, spec, layers):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if layers:
        metrics.update({m["name"]: dict(m, bound=None)
                        for m in spec["per_layer"]})
    for key in sorted(set(set_a) & set(set_b)):
        workload, traced = key
        if traced and not layers:
            continue
        for name in sorted(set(set_a[key]) & set(set_b[key])):
            if name not in metrics:
                continue
            by_seed_a, by_seed_b = set_a[key][name], set_b[key][name]
            a = [v for vs in by_seed_a.values() for v in vs]
            b = [v for vs in by_seed_b.values() for v in vs]
            pairs = [p for seed in sorted(set(by_seed_a) & set(by_seed_b))
                     for p in zip(by_seed_a[seed], by_seed_b[seed])]
            m = metrics[name]
            v, win_frac = verdict(a, b, m["better"], m["bound"], pairs)
            yield (workload, name, m, a, b, pairs, win_frac, v)


def fmt(values):
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.5g} [{q1:.4g}, {q3:.4g}]"


def compare(dir_a, dir_b, layers):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    print(f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'delta':>8} {'won':>7}  verdict")
    regressions = 0
    for workload, name, m, a, b, pairs, win_frac, v in rows(
            set_a, set_b, spec, layers):
        med_a, med_b = stats.median(a), stats.median(b)
        delta = (med_b - med_a) / abs(med_a) * 100 if med_a else 0.0
        won = f"{round(win_frac * len(pairs))}/{len(pairs)}"
        print(f"{workload:<14} {name:<28} {fmt(a):<30} {fmt(b):<30} "
              f"{delta:>+7.1f}% {won:>7}  {v}")
        regressions += v == "REGRESSION"
    return 1 if regressions else 0


def selftest():
    """Verdicts on synthetic sets with known answers."""
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.07, 9.93, 10.0]
    cases = [
        ("identical runs", base, list(base), "lower", 0.05, "same"),
        ("20% faster", base, [x * 0.8 for x in base], "lower", 0.05,
         "GAIN"),
        ("20% slower", base, [x * 1.2 for x in base], "lower", 0.05,
         "REGRESSION"),
        ("3% slower, inside the bound", base, [x * 1.03 for x in base],
         "lower", 0.05, "same"),
        ("throughput down 20%", base, [x * 0.8 for x in base], "higher",
         0.05, "REGRESSION"),
        ("spread wider than the bound", base,
         [7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 7.5, 12.5, 10.0], "lower",
         0.05, "unresolved"),
        ("wide but every run better", base,
         [5.0, 7.0, 5.5, 6.8, 6.0, 5.2, 6.6, 5.9, 6.1, 6.9], "lower", 0.05,
         "GAIN"),
        ("gain within the parent's spread",
         [10.0, 10.4, 9.6, 10.3, 9.7, 10.2, 9.8, 10.1, 9.9, 10.0],
         [9.9, 10.3, 9.5, 10.2, 9.6, 10.1, 9.7, 10.0, 9.8, 9.9], "lower",
         0.05, "same"),
    ]
    failed = 0
    for what, a, b, better, bound, want in cases:
        got, _ = verdict(a, b, better, bound, list(zip(a, b)))
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {got}"
              + ("" if ok else f" (want {want})"))
    print(f"{len(cases) - failed}/{len(cases)} compare selftests passed")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("set_a", nargs="?")
    parser.add_argument("set_b", nargs="?")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.set_a and args.set_b):
        parser.error("two set directories are required")
    return compare(args.set_a, args.set_b, args.layers)


if __name__ == "__main__":
    sys.exit(main())
