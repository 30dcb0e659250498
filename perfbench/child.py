"""One robustsense CLI invocation in a fresh interpreter.

usage: python3 perfbench/child.py MODE CONFIG [CLI ARGUMENTS...]

MODE is ``setup`` (import the CLI, load CONFIG, stop), ``run`` (then call
``robustsense.cli.main`` with the CLI arguments) or ``trace`` (the same run
with the per-layer span recorder installed).  The last line on stdout is a
JSON object; ``ready`` is the monotonic clock after the config load, which
the parent turns into interpreter start-up plus import plus config time.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from robustsense import cli  # noqa: E402

cfg = cli.load_config(sys.argv[2])
ready = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    mode, argv = sys.argv[1], sys.argv[3:]
    out = {"ready": ready}
    if mode == "run":
        t0 = time.perf_counter()
        out["rc"] = cli.main(argv)
        out["wall_s"] = time.perf_counter() - t0
    elif mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        cost = tracer.span_cost_ns()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("cli.main"):
                out["rc"] = cli.main(argv)
            out["wall_s"] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        hyps = ("h0",) if cfg.kind == "pof-curve" else ("h0", "h1")
        trials = {h: cfg.trials * len(cfg.families) for h in hyps}
        out["metrics"], out["accounting"] = spans.layer_metrics(tracer, trials, cost)
        out["spans"] = len(tracer.spans)
        out["missing_hooks"] = tracer.missing
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    # peak resident set of this process and of its largest worker, in KiB
    out["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rss_worker_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(out))


main()
