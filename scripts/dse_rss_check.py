#!/usr/bin/env python3
"""Peak-RSS growth gates for the scheduled DSE and for map mode.

Each row runs `gemini run` on one of the benchmark's specs at a SMALL and
at a LARGE size and reads each run's peak RSS (``ru_maxrss`` through
``os.wait4``); a row fails when peak(LARGE) > RATIO x peak(SMALL). Each
row fixes its thread count, so the ratios do not depend on the host.

  - dse: the dse_screen spec (transformer + resnet50, scheduled ladder,
    analytic seed) at 48 and 192 candidates, 4 threads, limit 1.5. The
    scheduled driver's memory must stay close to flat in the candidate
    count.
  - map: the map_sa_gpt2 spec (gpt2_medium on large_grid) at 500 and
    8,000 SA iterations, 1 thread, limit 1.25. The fragment caches must
    be sized by what they hold, not grow with the walk.

The gate exits 1 when any row fails.

Usage:
    dse_rss_check.py [--gemini build/gemini]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
import run  # noqa: E402

TIMEOUT_S = 600  # per run; a hung run is killed and fails the gate


def dse_spec(candidates):
    spec = run.dse_screen_spec(1, 4)
    spec["max_candidates"] = candidates
    return spec


def map_spec(iterations):
    spec = run.map_sa_gpt2_spec(1, 1)
    spec["mapping"]["sa"]["iterations"] = iterations
    return spec


# (name, spec of a size, small size, large size, size unit, limit, failure)
ROWS = (
    ("dse", dse_spec, 48, 192, "candidates", 1.5,
     "scheduled DSE memory grows with the candidate count"),
    ("map", map_spec, 500, 8000, "SA iterations", 1.25,
     "map-mode memory grows with the SA walk"),
)


def peak_rss_mib(procs, gemini, name, spec, size, work):
    """Run one spec to completion; return its peak RSS in MiB."""
    run_dir = Path(work) / f"{name}-{size}"
    run_dir.mkdir()
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(run_dir / "stderr.log", "w+b") as err:
        p = procs.spawn([gemini, "run", spec_path,
                         "--out", run_dir / "out",
                         "--store", run_dir / "store"],
                        stdout=subprocess.DEVNULL, stderr=err)
        code, usage = procs.reap(p, timeout=TIMEOUT_S)
        if code != 0:
            err.seek(0)
            sys.exit(f"gemini run ({name}, {size}) exited {code}:\n"
                     f"{err.read().decode(errors='replace')[-2000:]}")
    return run.rss_mib(usage)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gemini", default="build/gemini")
    args = ap.parse_args()

    if not os.access(args.gemini, os.X_OK):
        sys.exit(f"no gemini binary at {args.gemini}")
    procs = run.Procs()
    failed = False
    try:
        with tempfile.TemporaryDirectory(prefix="gemini_rss_") as work:
            for name, spec_of, small_n, large_n, unit, limit, why in ROWS:
                small = peak_rss_mib(procs, args.gemini, name,
                                     spec_of(small_n), small_n, work)
                large = peak_rss_mib(procs, args.gemini, name,
                                     spec_of(large_n), large_n, work)
                ratio = large / small
                print(f"{name}: peak RSS {small:.1f} MiB at {small_n} "
                      f"{unit}, {large:.1f} MiB at {large_n}; ratio "
                      f"{ratio:.2f} (limit {limit:.2f})")
                if ratio > limit:
                    print(f"FAIL: {why}")
                    failed = True
    finally:
        procs.kill_all()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
