#!/usr/bin/env python3
"""Peak-RSS growth gate for the scheduled DSE.

Runs `gemini run` on the benchmark's dse_screen spec (transformer +
resnet50, scheduled ladder, analytic seed) at SMALL and at LARGE
candidates, and reads each run's peak RSS (``ru_maxrss`` through
``os.wait4``). The scheduled driver's memory must stay close to flat in
the candidate count, so the gate fails (exit 1) when
peak(LARGE) > RATIO x peak(SMALL). Both runs use THREADS threads, so the
ratio does not depend on the host.

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

SMALL = 48
LARGE = 192
RATIO = 1.5
THREADS = 4
TIMEOUT_S = 600  # per run; a hung run is killed and fails the gate


def peak_rss_mib(procs, gemini, candidates, work):
    """Run one DSE to completion; return its peak RSS in MiB."""
    run_dir = Path(work) / str(candidates)
    run_dir.mkdir()
    spec = run.dse_screen_spec(1, THREADS)
    spec["max_candidates"] = candidates
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
            sys.exit(f"gemini run ({candidates} candidates) exited {code}:\n"
                     f"{err.read().decode(errors='replace')[-2000:]}")
    return run.rss_mib(usage)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gemini", default="build/gemini")
    args = ap.parse_args()

    if not os.access(args.gemini, os.X_OK):
        sys.exit(f"no gemini binary at {args.gemini}")
    procs = run.Procs()
    try:
        with tempfile.TemporaryDirectory(prefix="gemini_rss_") as work:
            small = peak_rss_mib(procs, args.gemini, SMALL, work)
            large = peak_rss_mib(procs, args.gemini, LARGE, work)
    finally:
        procs.kill_all()
    ratio = large / small
    print(f"peak RSS: {small:.1f} MiB at {SMALL} candidates, "
          f"{large:.1f} MiB at {LARGE}; ratio {ratio:.2f} (limit {RATIO:.2f})")
    if ratio > RATIO:
        print("FAIL: scheduled DSE memory grows with the candidate count")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
