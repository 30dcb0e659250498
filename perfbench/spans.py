"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps the calls into each robustsense layer that a CLI run makes:
config loading, the Monte Carlo runner and its per-hypothesis and per-chunk
helpers, the per-trial sampling calls, the batched estimator engine,
``numpy.linalg.eigvalsh`` and curve building.  Every wrapped call records one
span (id, parent id, name, hypothesis, start, end) in memory; nothing is
written until the run ends.  A layer's self time is its spans' durations
minus the parts covered by their child spans, so the self times of all spans
add up to the root span, which is the whole ``cli.main`` call.

Hooks whose target no longer exists are skipped and reported, so the tracer
keeps working while the package is refactored; the time of a missing layer
then shows up in its parent's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

_ns = time.perf_counter_ns

# (module, attribute, span name, position of the hypothesis argument)
HOOKS = (
    ("robustsense.cli", "load_config", "config.load", None),
    ("robustsense.cli", "run_experiment", "montecarlo.run_experiment", None),
    ("robustsense.cli", "threshold_grid", "montecarlo.curves", None),
    ("robustsense.cli", "empirical_pfa_curve", "montecarlo.curves", None),
    ("robustsense.cli", "roc_curve", "montecarlo.curves", None),
    ("robustsense.montecarlo", "_run_chunks", "montecarlo.run_trials", 1),
    ("robustsense.montecarlo", "_chunk_stats", "montecarlo.chunk", 1),
    ("robustsense.montecarlo", "_collect_samples", "detectors.statistics", 1),
    ("robustsense.montecarlo", "make_channel", "sampling.channel", None),
    ("robustsense.montecarlo", "sample_hypothesis", "sampling.draw", 2),
    ("robustsense.sampling", "RngStream.generator", "sampling.rng", None),
    ("robustsense.sampling", "ChannelVector.zero", "sampling.channel", None),
    ("robustsense.montecarlo", "m_estimate_batch", "estimators", None),
    ("numpy.linalg", "eigvalsh", "detectors.eig", None),
)

KINDS = ("scm", "tyler", "gg_ml")
HYPS = ("h0", "h1")


def _hypothesis(args, kwargs, pos) -> str:
    h = args[pos] if len(args) > pos else kwargs["hypothesis"]
    return h.name.lower()


class Tracer:
    """Records spans around the wrapped calls; ``install`` / ``uninstall``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, hypothesis, t0_ns, t1_ns)
        self.estimates: dict[tuple[str, str], list] = {}  # (kind, hyp) -> [(iters, usable)]
        self.missing: list[str] = []
        self.hyp: str | None = None
        self._stack: list[int] = []
        self._next = 0
        self._in_estimator = 0
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = _ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = _ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, self.hyp, t0, t1))

    def _wrap(self, fn, name, hyp_pos):
        tracer = self

        def traced(*args, **kwargs):
            if hyp_pos is not None:
                tracer.hyp = _hypothesis(args, kwargs, hyp_pos)
            sid, parent = tracer._open()
            t0 = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)

        return traced

    def _wrap_eig(self, fn):
        traced = self._wrap(fn, "detectors.eig", None)

        def eig(*args, **kwargs):
            # eigvalsh inside the estimator engine is estimator work
            return fn(*args, **kwargs) if self._in_estimator else traced(*args, **kwargs)

        return eig

    def _wrap_estimator(self, fn):
        tracer = self

        def estimate(x, weight, *args, **kwargs):
            name = f"estimators.{weight.kind}"
            sid, parent = tracer._open()
            tracer._in_estimator += 1
            t0 = _ns()
            try:
                res = fn(x, weight, *args, **kwargs)
            finally:
                tracer._in_estimator -= 1
                tracer._close(sid, parent, name, t0)
            tracer.estimates.setdefault((weight.kind, tracer.hyp), []).append(
                (res.iterations.copy(), res.ok & res.converged)
            )
            return res

        return estimate

    def install(self) -> None:
        for module_name, attr, name, hyp_pos in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            target = getattr(owner, leaf)  # bound for class/static methods
            if name == "estimators":
                wrapped = self._wrap_estimator(target)
            elif name == "detectors.eig":
                wrapped = self._wrap_eig(target)
            else:
                wrapped = self._wrap(target, name, hyp_pos)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)
            setattr(owner, leaf, wrapped)
            self._restore.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Measured cost of recording one span around a call, in ns."""

        def noop():
            return None

        traced = self._wrap(noop, "calibrate", None)
        saved, self.spans = self.spans, []
        t0 = _ns()
        for _ in range(calls):
            noop()
        bare = _ns() - t0
        t0 = _ns()
        for _ in range(calls):
            traced()
        wrapped = _ns() - t0
        self.spans = saved
        return max(wrapped - bare, 0) / calls


def self_times(spans) -> dict[tuple[str, str | None], int]:
    """Self time in ns per (span name, hypothesis)."""
    covered: dict[int, int] = {}
    for _, parent, _, _, t0, t1 in spans:
        covered[parent] = covered.get(parent, 0) + (t1 - t0)
    out: dict[tuple[str, str | None], int] = {}
    for sid, _, name, hyp, t0, t1 in spans:
        key = (name, hyp)
        out[key] = out.get(key, 0) + (t1 - t0) - covered.get(sid, 0)
    return out


def _bucket(name: str, hyp: str | None) -> str | None:
    """Per-layer accounting bucket of a span's self time."""
    if name == "cli.main":
        return "cli.self"
    if name in ("config.load", "montecarlo.curves"):
        return name
    if hyp not in HYPS:
        return None
    if name.startswith("sampling."):
        return f"sampling.{hyp}"
    if name.startswith("estimators."):
        return f"{name}.{hyp}"
    if name in ("detectors.eig", "detectors.statistics"):
        return f"{name}.{hyp}"
    if name in ("montecarlo.run_trials", "montecarlo.chunk"):
        return f"montecarlo.self.{hyp}"
    return None


def _stat(f, a) -> float:
    return float(f(a)) if a.size else 0.0


def layer_metrics(tracer: Tracer, trials: dict[str, int], span_cost_ns: float) -> tuple[dict, dict]:
    """Per-layer metric values and the self-time accounting of one traced run.

    ``trials`` maps each hypothesis the run sampled to its trial count
    (summed over noise families).  The accounting maps each bucket to its
    self time in ms; its values plus ``remainder`` add up to the traced wall.
    """
    selfs = self_times(tracer.spans)
    wall_ns = sum(t1 - t0 for _, parent, _, _, t0, t1 in tracer.spans if parent == -1)
    buckets: dict[str, int] = {}
    for (name, hyp), ns in selfs.items():
        b = _bucket(name, hyp)
        if b is not None:
            buckets[b] = buckets.get(b, 0) + ns
    rng_ns = sum(ns for (name, _), ns in selfs.items() if name == "sampling.rng")

    def per_trial(ns, h):
        return ns / 1e3 / trials[h] if trials.get(h) else 0.0

    m = {
        "config.load_ms": buckets.get("config.load", 0) / 1e6,
        "sampling.rng_us_per_trial": rng_ns / 1e3 / max(sum(trials.values()), 1),
    }
    for h in HYPS:
        m[f"sampling.{h}_us_per_trial"] = per_trial(buckets.get(f"sampling.{h}", 0), h)
    for kind in KINDS:
        for h in HYPS:
            est_ns = buckets.get(f"estimators.{kind}.{h}", 0)
            runs = tracer.estimates.get((kind, h), [])
            iters = np.concatenate([r[0] for r in runs]) if runs else np.zeros(0)
            usable = np.concatenate([r[1] for r in runs]) if runs else np.zeros(0)
            m[f"estimators.{kind}.us_per_trial.{h}"] = per_trial(est_ns, h)
            m[f"estimators.{kind}.us_per_iter.{h}"] = est_ns / 1e3 / iters.sum() if iters.sum() else 0.0
            m[f"estimators.{kind}.iters_mean.{h}"] = _stat(np.mean, iters)
            m[f"estimators.{kind}.iters_p50.{h}"] = _stat(lambda a: np.percentile(a, 50), iters)
            m[f"estimators.{kind}.iters_p99.{h}"] = _stat(lambda a: np.percentile(a, 99), iters)
            m[f"estimators.{kind}.iters_max.{h}"] = _stat(np.max, iters)
            m[f"estimators.{kind}.usable_frac.{h}"] = _stat(np.mean, usable)
    for h in HYPS:
        eig_ns = buckets.get(f"detectors.eig.{h}", 0) + buckets.get(f"detectors.statistics.{h}", 0)
        m[f"detectors.eig_us_per_trial.{h}"] = per_trial(eig_ns, h)
        m[f"montecarlo.self_us_per_trial.{h}"] = per_trial(buckets.get(f"montecarlo.self.{h}", 0), h)
    m["montecarlo.curves_ms"] = buckets.get("montecarlo.curves", 0) / 1e6
    m["cli.self_ms"] = buckets.get("cli.self", 0) / 1e6
    m["trace.wall_ms"] = wall_ns / 1e6
    m["trace.remainder_ms"] = (wall_ns - sum(buckets.values())) / 1e6
    m["trace.overhead_frac"] = span_cost_ns * len(tracer.spans) / wall_ns if wall_ns else 0.0
    accounting = {b: ns / 1e6 for b, ns in sorted(buckets.items())}
    accounting["remainder"] = m["trace.remainder_ms"]
    return m, accounting
