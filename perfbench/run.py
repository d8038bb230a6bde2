"""Benchmark of ``daggerdist verify``, end to end and per module.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs in a fresh process, one at a time: the program is
single-threaded and each CLI call starts with cold caches (the per-group
``f_monomial`` table and the ``lru_cache`` tables), as a user's call does.

``--trace 0`` times untraced repetitions for about ``--seconds`` and reports the
medians of ``report_s`` (verify call to report written), ``setup_s`` (import
plus ``resolve_group``, sampled in extra set-up-only processes as well) and
``peak_rss_mb``.  The host's speed drifts by tens of percent over minutes, so
``report_s`` and ``setup_s`` are divided by the run's slowdown: the median
time of ``hostloop.py``, a fixed loop run before every repetition, over its
nominal time.  The measured medians are printed too.  ``--trace 1`` runs one
untraced and one traced repetition and reports the per-layer metrics of
``tracing.py``, plus the tracing overhead; those times are not scaled.  The
program has one thread and no queues, so there is no waiting time to report.

Correctness: every report is hashed.  At seed 7 it must match
``reference.json``; at any other seed all repetitions of a run must be
byte-identical.  A report that differs, a crash or a nonzero exit (which the
CLI gives for any ``fail`` verdict) counts all of that repetition's checks as
failed.  The last line of standard output is a JSON object with ``correct``,
``attempted`` and ``failed`` (in checks) and the metrics; the lines before it
print the same metrics, ``fail_share`` and the sample counts for a reader.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

# Why each workload is here is recorded in README.md.  normgrid-h3 runs by name
# but is not in BENCHMARK.json: two workloads leave time for 60-second runs.
WORKLOADS = {
    "allsuites-h3": ["--group", "heisenberg(3)", "--trials", "25"],
    "lawcheck-h5": [
        "--group", "heisenberg(5)",
        "--suites", "group-axioms,pvaluation,saturation,coeff-bound,polydisc,mahler",
        "--trials", "1000",
    ],
    "normgrid-h3": [
        "--group", "heisenberg(3)",
        "--suites", "embeddings",
        "--N", "1..32",
        "--sigma", "1/8,1/4,3/8,1/2,5/8,3/4,7/8,1",
    ],
}
REFERENCE_SEED = 7
SETUP_PROBES_PER_REP = 3  # set-up-only processes before each timed repetition
HOST_LOOP = HERE / "hostloop.py"
HOST_LOOP_NOMINAL_S = 0.30  # hostloop.py's time in a quiet phase of a 2-vCPU shared VM
RUN_LIMIT_S = 170  # no child may outlive this much of a run
LAYER_METRICS = [*metric_names(), ("trace.overhead_s", "s")]


def run_child(verify_args, result_path, hard_deadline, setup_only=False, trace=None):
    """Run child.py once; its result dict, or None if it crashed or timed out."""
    cmd = [sys.executable, str(CHILD), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", *trace]
    cmd += ["--", *verify_args]
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(hard_deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(proc.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def host_loop(hard_deadline):
    """Seconds hostloop.py took in a fresh process, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HOST_LOOP)],
            cwd=ROOT,
            capture_output=True,
            timeout=max(hard_deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return None
    return float(proc.stdout) if proc.returncode == 0 else None


def repetition(verify_args, report_path, hard_deadline, trace=None):
    """One verify run; adds the report's digest and check count to the child's result."""
    report_path.unlink(missing_ok=True)
    result = run_child(
        [*verify_args, "--out", str(report_path)],
        report_path.with_suffix(".result"),
        hard_deadline,
        trace=trace,
    )
    if result is None or not report_path.exists():
        return {"completed": False}
    result["completed"] = True
    result["digest"], result["checks"] = read_report(report_path)
    return result


def read_report(path):
    """(sha256 of the report bytes, number of checks it lists, or None if unreadable)."""
    data = path.read_bytes()
    try:
        checks = sum(json.loads(data)["counts"].values())
    except (ValueError, KeyError, TypeError, AttributeError):
        checks = None
    return hashlib.sha256(data).hexdigest(), checks


def score(rep, reference_digest, expected_checks):
    """(checks attempted, checks failed) for one repetition."""
    attempted = rep.get("checks") or expected_checks
    ok = rep["completed"] and rep["rc"] == 0 and rep["digest"] == reference_digest
    return attempted, 0 if ok else attempted


def reference_digest(reps, seed, reference):
    """The bytes every repetition must reproduce: committed at seed 7, else the first report."""
    if seed == REFERENCE_SEED:
        return reference["sha256"]
    return next((r["digest"] for r in reps if r["completed"]), None)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, if there is one."""
    n = len(values)
    if n < 11:
        return f"{n} samples: too few for a tail percentile"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}"


def timed_run(args, verify_args, hard_deadline):
    """Untraced repetitions for --seconds; returns (reps, set-up samples, host-loop samples)."""
    deadline = time.perf_counter() + args.seconds
    report_path = OUT / f"{args.workload}-seed{args.seed}.json"
    reps, setups, loops = [], [], []
    while True:
        t0 = time.perf_counter()
        # Probes are spread over the run so that they see the same host speed as the repetitions.
        for _ in range(SETUP_PROBES_PER_REP):
            probe = run_child(verify_args, OUT / f"{args.workload}.setup.result", hard_deadline, setup_only=True)
            if probe is not None:
                setups.append(probe["setup_s"])
        loop_s = host_loop(hard_deadline)
        if loop_s is not None:
            loops.append(loop_s)
        reps.append(repetition(verify_args, report_path, hard_deadline))
        wall = time.perf_counter() - t0
        # Start another repetition while at least half of one fits: runs end near the deadline.
        if time.perf_counter() + wall / 2 > deadline or time.monotonic() + wall > hard_deadline:
            break
    setups += [r["setup_s"] for r in reps if r["completed"]]
    return reps, setups, loops


def traced_run(args, verify_args, hard_deadline):
    """One untraced and one traced repetition."""
    stem = OUT / f"{args.workload}-seed{args.seed}"
    untraced = repetition(verify_args, stem.with_suffix(".json"), hard_deadline)
    run_id = f"{args.workload}/seed{args.seed}/{time.time_ns()}"
    trace = (str(stem.with_suffix(".spans.json")), run_id)
    traced = repetition(verify_args, stem.with_suffix(".traced.json"), hard_deadline, trace=trace)
    return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so that subprocess.run kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "daggerdist" / "cli.py").is_file():
        print(f"daggerdist sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hard_deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
    verify_args = [*WORKLOADS[args.workload], "--seed", str(args.seed)]

    # Untimed: the first import in a fresh checkout compiles the bytecode cache.
    run_child(verify_args, OUT / f"{args.workload}.setup.result", hard_deadline, setup_only=True)

    print(f"workload {args.workload}  seed {args.seed}  program: daggerdist verify {' '.join(verify_args)}")
    if args.trace:
        untraced, traced = traced_run(args, verify_args, hard_deadline)
        reps = [untraced, traced]
    else:
        reps, setups, loops = timed_run(args, verify_args, hard_deadline)
    expect = reference_digest(reps, args.seed, reference)
    scores = [score(r, expect, reference["checks"]) for r in reps]
    attempted = sum(a for a, _ in scores)
    failed = sum(f for _, f in scores)
    done = [r for r in reps if r["completed"]]
    print(f"repetitions {len(reps)}  completed {len(done)}  "
          f"fail_share {failed / attempted:.6g} ratio ({failed} of {attempted} checks failed)")
    if not done or not (args.trace or loops):
        print("no repetition or no host loop completed", file=sys.stderr)
        return 1

    if args.trace:
        if not (untraced["completed"] and traced["completed"]):
            print("the traced or the untraced repetition did not complete", file=sys.stderr)
            return 1
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["report_s"] - untraced["report_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        print(f"report_s untraced {untraced['report_s']:.4f} s  traced {traced['report_s']:.4f} s  "
              f"overhead {layers['trace.overhead_s']:.4f} s")
        print(f"traced report identical to untraced: {traced['digest'] == untraced['digest']}")
        print("waiting time: none (one thread, no queues)")
        spans = [(k[: -len('.s')], v) for k, v in layers.items()
                 if k.endswith(".s") and not k.startswith(("cli.", "trace.", "padic."))]
        for name, secs in sorted(spans, key=lambda kv: -kv[1])[:6]:
            print(f"  {name:48s} {secs:9.4f} s  {100 * secs / traced['report_s']:5.1f}% of traced report_s")
    else:
        report_s = [r["report_s"] for r in done]
        slowdown = statistics.median(loops) / HOST_LOOP_NOMINAL_S
        report_med, setup_med = statistics.median(report_s), statistics.median(setups)
        metrics = {
            "report_s": {"value": report_med / slowdown, "unit": "s"},
            "setup_s": {"value": setup_med / slowdown, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in done), "unit": "MB"},
        }
        lo, hi = quartiles(report_s)
        print(f"host slowdown {slowdown:.4f} (hostloop.py median {statistics.median(loops):.4f} s of "
              f"{len(loops)}, nominal {HOST_LOOP_NOMINAL_S} s); report_s and setup_s are divided by it")
        print(f"report_s    {metrics['report_s']['value']:.4f} s  measured: median {report_med:.4f} s of "
              f"{len(report_s)} (quartiles {lo:.4f} .. {hi:.4f}; {tail_percentile(report_s)})")
        print("  repetitions: " + " ".join(f"{v:.4f}" for v in report_s))
        print(f"setup_s     {metrics['setup_s']['value']:.5f} s  measured: median {setup_med:.5f} s of {len(setups)}")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.3f} MB median of {len(done)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
