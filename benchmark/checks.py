"""Output checks of the end-to-end benchmark.

Every operation the benchmark performs is counted as attempted, and as
failed when any of its checks fails; run-level checks (goldens, the
daemon-versus-CLI differential) count as operations of their own. A run
with any failure prints correct=false and exits non-zero.
"""

import copy
import hashlib
import json
import math


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.extend(failures[:3])
        return not failures

    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# Fields that record how long something took, not what it computed.
def strip_timing(payload):
    out = copy.deepcopy(payload)
    for rec in out.get("records", []):
        rec.pop("eval_seconds", None)
    for rung in out.get("stats", {}).get("rungs", []):
        rung.pop("cpu_seconds", None)
    return out


def payload(doc):
    """The mode's result payload of a result document."""
    if "dse" in doc:
        return doc["dse"]
    return {k: doc.get(k) for k in ("arch", "mc", "mappings")}


def digest(doc):
    text = json.dumps(strip_timing(payload(doc)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_result(doc):
    """Failures of one result document on its own."""
    fails = []
    if doc.get("error"):
        fails.append(f"job failed: {doc['error']}")
        return fails
    if doc.get("truncated") or doc.get("cancelled"):
        fails.append("result is truncated or cancelled")
    if "dse" in doc:
        dse = doc["dse"]
        best = dse.get("best_index", -1)
        if not 0 <= best < len(dse.get("records", [])):
            fails.append("no winner")
        for i, rec in enumerate(dse.get("records", [])):
            obj, bound = rec.get("objective"), rec.get("objective_lower_bound")
            if (rec.get("feasible") and obj is not None and bound is not None
                    and obj < bound):
                fails.append(f"record {i}: objective {obj!r} below its "
                             f"lower bound {bound!r}")
    else:
        maps = doc.get("mappings") or []
        if not maps:
            fails.append("no mapping")
        for i, m in enumerate(maps):
            delay = m.get("total", {}).get("delay_s")
            if not (isinstance(delay, float) and delay > 0
                    and math.isfinite(delay)):
                fails.append(f"mapping {i}: bad delay {delay!r}")
    return fails


def same_payload(a, b, timing=True):
    """Failures when two result documents computed different things.
    timing=False also ignores the wall-clock fields."""
    pa, pb = payload(a), payload(b)
    if not timing:
        pa, pb = strip_timing(pa), strip_timing(pb)
    return [] if pa == pb else ["result differs from its first run"]


def golden_of(doc):
    """The values a default-seed golden pins, as exact reprs."""
    if "dse" in doc:
        dse = doc["dse"]
        best = dse["records"][dse["best_index"]]
        return {"winner_arch": best["arch"],
                "best_objective": repr(best["objective"])}
    return {"final_cost": [repr(m["sa_stats"]["final_cost"])
                           for m in doc["mappings"]]}


def check_golden(expected, got, what):
    fails = []
    for key, value in expected.items():
        if got.get(key) != value:
            fails.append(f"{what}: golden {key} {value!r}, got "
                         f"{got.get(key)!r}")
    return fails
