"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/child.py RESULT [--setup-only] [--trace SPANS RUN_ID] -- VERIFY_ARGS...

Times ``setup_s`` (importing daggerdist and resolving the group) and then
``report_s`` (``daggerdist verify`` from its call until the report is
written), and writes them with the peak resident set to RESULT as JSON.
With ``--trace`` the run is traced and the per-layer metrics are added; the
spans go to SPANS.  Nothing is imported before the set-up clock starts that
the program would not import itself.
"""
import os
import sys
import time


def main(argv):
    split = argv.index("--")
    own, verify_args = argv[:split], argv[split + 1 :]
    result_path = own[0]
    setup_only = "--setup-only" in own
    trace = own[own.index("--trace") + 1 : own.index("--trace") + 3] if "--trace" in own else None
    group = verify_args[verify_args.index("--group") + 1]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    from daggerdist import cli

    cli.resolve_group(group)
    result = {"setup_s": time.perf_counter() - t0}
    if not setup_only:
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        rc = cli.main(["verify", *verify_args])
        result["report_s"] = time.perf_counter() - t1
        result["rc"] = rc

        import resource

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out = verify_args[verify_args.index("--out") + 1]
            result["layers"] = tracer.metrics(os.path.getsize(out))
            tracer.write_spans(*trace)

    import json

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
