"""The benchmark's span tracer (``perfbench/spans.py``) must keep finding the
layers it times.

The tracer skips a hook whose target is gone and books that layer's time to
its parent, so a refactor that renames a traced function would silently
blur the per-layer breakdown.  These are the hooks already dead today: the
chunk sampler replaced the per-trial channel and draw calls they wrap.
"""

import importlib.util
from pathlib import Path

from robustsense import DetectorSpec, NoiseModel, SimConfig, run_experiment

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
DEAD_HOOKS = {
    "robustsense.montecarlo.make_channel",
    "robustsense.montecarlo.sample_hypothesis",
    "robustsense.sampling.ChannelVector.zero",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_live_hook():
    tracer = load_spans().Tracer()
    cfg = SimConfig(p=3, n=8, trials=16, noise=NoiseModel.generalized_gaussian(0.5), rho=1.0,
                    detectors=(DetectorSpec("glrt", "tyler"), DetectorSpec("glrt", "gg_ml")),
                    master_seed=3)
    try:
        tracer.install()
        assert set(tracer.missing) <= DEAD_HOOKS
        run_experiment(cfg, with_h1=True)
    finally:
        tracer.uninstall()
    recorded = {(name, hyp) for _, _, name, hyp, _, _ in tracer.spans}
    for hyp in ("h0", "h1"):
        for name in ("montecarlo.run_trials", "montecarlo.chunk", "detectors.statistics",
                     "sampling.rng", "estimators.tyler", "estimators.gg_ml"):
            assert (name, hyp) in recorded
