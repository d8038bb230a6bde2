"""Self-check of the benchmark's own machinery, on shrunken grids.

    python3 perfbench/selfcheck.py

For each workload, on a grid small enough to run in seconds, it checks that
an untraced and a traced repetition complete with zero ``fail`` verdicts,
that their reports are byte-identical, and that the traced run yields every
per-layer metric.  It checks that a report with one altered byte, a crash and
a nonzero exit each count all checks as failed, and that the benchmark exits
nonzero, printing no result, in a directory without the daggerdist sources.
Exits 1 if any of these does not hold.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import time

from run import HERE, LAYER_METRICS, OUT, ROOT, WORKLOADS, read_report, repetition, score

# Later options override the workload's own (argparse keeps the last value).
SHRINK = {
    "allsuites-h3": ["--N", "1..2", "--sigma", "1/2,1", "--cap", "2", "--trials", "4"],
    "lawcheck-h5": ["--trials", "20"],
    "normgrid-h3": ["--N", "1..3", "--sigma", "1/2,1"],
}

failures = []


def expect(condition, what):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def check_workload(name, hard_deadline):
    verify_args = [*WORKLOADS[name], *SHRINK[name], "--seed", "7"]
    stem = OUT / f"selfcheck-{name}"
    untraced = repetition(verify_args, stem.with_suffix(".json"), hard_deadline)
    traced = repetition(
        verify_args,
        stem.with_suffix(".traced.json"),
        hard_deadline,
        trace=(str(stem.with_suffix(".spans.json")), f"selfcheck/{name}"),
    )
    expect(untraced["completed"] and untraced["rc"] == 0, f"{name}: shrunken run completes with no fail verdict")
    expect(traced["completed"] and traced["rc"] == 0, f"{name}: traced shrunken run completes")
    if not (untraced["completed"] and traced["completed"]):
        return
    expect(traced["digest"] == untraced["digest"], f"{name}: traced report is byte-identical to the untraced one")
    missing = [m for m, _ in LAYER_METRICS if m != "trace.overhead_s" and m not in traced["layers"]]
    expect(not missing, f"{name}: traced run reports every per-layer metric {missing or ''}")

    checks = untraced["checks"]
    expect(score(untraced, untraced["digest"], checks) == (checks, 0), f"{name}: a matching report scores 0 failed")
    data = bytearray(stem.with_suffix(".json").read_bytes())
    data[len(data) // 2] ^= 0x01
    altered_path = stem.with_suffix(".altered.json")
    altered_path.write_bytes(data)
    altered = dict(untraced, digest=read_report(altered_path)[0])
    expect(score(altered, untraced["digest"], checks) == (checks, checks), f"{name}: one altered byte fails every check")
    expect(score(dict(untraced, rc=1), untraced["digest"], checks) == (checks, checks), f"{name}: a nonzero exit fails every check")
    expect(score({"completed": False}, untraced["digest"], checks) == (checks, checks), f"{name}: a crash fails every check")


def check_without_sources():
    bare = OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lawcheck-h5", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without the sources the benchmark exits nonzero and prints no result")


def main():
    OUT.mkdir(exist_ok=True)
    hard_deadline = time.monotonic() + 600
    for name in WORKLOADS:
        check_workload(name, hard_deadline)
    check_without_sources()
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
