"""The benchmark's trace probes still find and read the functions they wrap.

``perfbench/tracing.py`` wraps tilesplat functions by module and name and
reads counts from fixed argument positions.  A probe whose function was
renamed is reported as absent and its layer reads zero, so these tests
load the tracer by file path (it needs only the standard library) and
check it against this tilesplat.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import tilesplat
from tilesplat.synth import make_camera, random_scene

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves():
    for module_name, attr, _, _ in load_tracing().PROBES:
        fn = getattr(getattr(tilesplat, module_name, None), attr, None)
        assert callable(fn), f"tilesplat.{module_name}.{attr} is gone"


def test_probe_argument_positions():
    tile_params = list(inspect.signature(tilesplat.backward.backward_tile).parameters)
    assert tile_params[:2] == ["batch", "order"]
    chain_params = list(inspect.signature(tilesplat.backward.chain_to_3d).parameters)
    assert chain_params[3] == "screen"


def test_traced_train_step_reports_every_layer(tmp_path):
    """Install the probes, run one step and the loaders, then restore."""
    tracing = load_tracing()
    cam = make_camera(24, 16, focal=24.0)
    scene = random_scene(np.random.default_rng(3), 12, cam, logit_range=(0.0, 3.0))
    cfg = tilesplat.TrainConfig(tile_size=(8, 8))
    target = tilesplat.render(scene, cam, cfg.render_config()).image
    tilesplat.sceneio.save_ply(scene, tmp_path / "scene.ply")
    tilesplat.sceneio.save_image(target, tmp_path / "target.png")
    scene.means += 0.05

    tracer = tracing.Tracer()
    saved = [
        (getattr(tilesplat, m), a, getattr(getattr(tilesplat, m), a))
        for m, a, _, _ in tracing.PROBES
    ]
    try:
        tracer.install(tilesplat)
        tracer.op = "setup0"
        tilesplat.sceneio.load_ply(tmp_path / "scene.ply")
        tilesplat.sceneio.load_image(tmp_path / "target.png")
        tracer.op = 0
        result = tracer.call(
            "train_step", tilesplat.train_step,
            (scene, [(cam, target)], cfg, tilesplat.AdamState()),
        )
    finally:
        tracer.op = None
        for module, attr, fn in saved:
            setattr(module, attr, fn)

    assert tracer.absent == []
    names = {span["name"] for span in tracer.spans}
    assert names >= {probe[2] for probe in tracing.PROBES}

    def total(name, key):
        return sum(s["counts"][key] for s in tracer.spans if s["name"] == name)

    stats = result.stats
    assert total("backward.tiles", "invocations") == stats.forward.invocations
    assert total("backward.fold", "accum_ops") == stats.accum_ops
    assert total("backward.fold", "drain_events") == stats.drain_events
    assert 0 < total("backward.chain", "gaussians") <= scene.n

    metrics = tracing.layer_metrics(tracer, 1, 1, 1.0, 1.0)
    for name in (
        "backward.tiles.us_per_invocation",
        "backward.recip.calls_per_step",
        "backward.fold.accum_ops",
        "backward.fold.drain_events",
        "backward.chain.us_per_gaussian",
        "optim.adam.ms_per_step",
        "sceneio.load_image.ns_per_pixel",
    ):
        assert metrics[name][0] > 0, name
