"""The four seeded workloads: inputs, set-up, timed loop and output checks.

Every workload runs in this one process on one thread.  Inputs are made
from the seed and written as files (scene PLY, camera JSON, PNG targets)
before anything is timed; the program receives only those files.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fdcheck
import pngcodec
import reference
from tracing import Tracer, layer_metrics, render_counts

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5  # set-ups per run; setup_s is their median
# Median time of HostSpeed's kernel on the 2-core sandbox the README's figures
# come from; timed metrics are scaled to a host that runs it this fast.
HOST_REF_S = 0.022
SAMPLE_PIXELS = 256  # reference pixels checked per view
FD_RTOL = 1e-4  # finite differences vs the analytic directional derivative
MIN_STEPS = 2  # train steps per run at least, so that the loss can be seen to fall
PARAMS = ("means", "log_scales", "rotations", "opacity_logits", "sh")
GRAD_KEYS = dict(zip(PARAMS, ("position", "scale", "rotation", "opacity", "sh")))


@dataclass(frozen=True)
class Workload:
    scene: str  # "random", "outdoor", "opaque" or "train"
    size: int  # square image side, px
    gaussians: int  # splats (background splats for "opaque")
    tile: int | None  # square tile side; None keeps TrainConfig's tiles
    views: int  # views per round
    max_angle: float  # views orbit within +-max_angle degrees
    orbit: float  # orbit radius = depth of the orbit centre
    z_tiles: int = 1
    hybrid: str = "off"


WORKLOADS = {
    "render_many_tiles": Workload("random", 256, 1000, 16, 4, 10.0, 6.0),
    "render_large_splats": Workload("outdoor", 512, 1000, 64, 4, 8.0, 8.0),
    "render_occluded": Workload(
        "opaque", 256, 600, 32, 4, 4.0, 2.0, z_tiles=4, hybrid="occlusion_threshold"
    ),
    "train": Workload("train", 128, 300, None, 3, 20.0, 6.0),
}


def import_tilesplat():
    """A fresh import of tilesplat from this checkout's src/."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "tilesplat" or m.startswith("tilesplat.")]:
        del sys.modules[name]
    return importlib.import_module("tilesplat")


class HostSpeed:
    """How fast the shared host runs right now, next to a fixed reference.

    The host is shared, and its speed drifts by a quarter or more over tens
    of seconds as other tenants come and go.  Each timed operation is
    followed by a fixed kernel made of the two kinds of work the program
    does: NumPy calls on 32x32 float32 patches, like one alpha-and-blend
    step, and a plain Python loop.  Times are scaled by HOST_REF_S over the
    median time of that kernel next to them, which cancels most of the
    drift between runs.  Set-ups and timed operations keep separate
    samples, as they happen at different times.
    """

    def __init__(self):
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._data = rng.uniform(0.1, 1.0, size=(6, 32, 32)).astype(np.float32)

    def sample(self) -> None:
        dx, dy, a, b, c, rgb = self._data
        acc = np.zeros_like(a)
        t0 = time.perf_counter()
        for _ in range(400):
            q = np.maximum(a * dx * dx + 2 * b * dx * dy + c * dy * dy, 0)
            alpha = np.minimum(0.9 * np.exp(-0.5 * q), 0.99)
            w = np.where(alpha >= 1 / 255, alpha, 0)
            acc += w * rgb
            acc *= 1 - w
        n = 0
        for i in range(100_000):
            n += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns seconds measured next to the samples into reference seconds."""
        return HOST_REF_S / statistics.median(self.samples)


def timed(host, tracer, op, name, fn, args, counts=None):
    """Run one timed operation, then sample the host: (result, seconds)."""
    if tracer is not None:
        tracer.op = op
        args = (name, fn, args, None, counts)
        fn = tracer.call
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
    host.sample()
    return out, dt


def quantize_u8(x: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(x, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def make_inputs(wl: Workload, seed: int, where: Path) -> dict:
    """Write the workload's input files and keep the benchmark's own copies."""
    ts = import_tilesplat()
    synth = importlib.import_module("tilesplat.synth")

    rng = np.random.default_rng([seed, wl.size, wl.gaussians])
    base = synth.make_camera(wl.size, wl.size)
    if wl.scene == "random":
        scene = synth.random_scene(rng, wl.gaussians, base)
    elif wl.scene == "outdoor":
        scene = synth.outdoor_scene(rng, base, wl.gaussians)
    elif wl.scene == "opaque":
        scene = synth.opaque_foreground_scene(rng, base, n_back=wl.gaussians)
    else:
        # A dark border leaves whole rows black, as in photos of an object.
        target = synth.random_scene(rng, wl.gaussians, base, degree=3, margin=0.25)
        scene = target.copy()
        scene.means = scene.means + rng.normal(scale=0.03, size=scene.means.shape)
        scene.log_scales = scene.log_scales + rng.normal(scale=0.15, size=scene.log_scales.shape)
        scene.opacity_logits = scene.opacity_logits + rng.normal(scale=0.5, size=scene.n)
        scene.sh = scene.sh + rng.normal(scale=0.1, size=scene.sh.shape)
    # One stratum of angles per view, so every seed spreads its views out.
    step = 2 * wl.max_angle / wl.views
    angles = -wl.max_angle + step * (np.arange(wl.views) + rng.uniform(size=wl.views))
    cams = [synth.orbit_camera(wl.size, wl.size, a, wl.orbit, wl.orbit) for a in angles]

    ply = where / "scene.ply"
    ts.sceneio.save_ply(scene, ply)
    params = {k: getattr(scene, k).astype(np.float32).astype(np.float64) for k in PARAMS}
    inputs = {"ply": ply, "cameras": where / "cameras.json", "params": params, "cams": cams}
    image_paths = None
    if wl.scene == "train":
        target32 = ts.GaussianScene(
            **{k: getattr(target, k).astype(np.float32).astype(np.float64) for k in PARAMS}
        )
        rcfg = ts.TrainConfig().render_config()
        inputs["targets"], inputs["filters"], image_paths = [], [], []
        for v, cam in enumerate(cams):
            pixels = quantize_u8(ts.render(target32, cam, rcfg).image.data)
            data, kinds = pngcodec.encode(pixels)
            path = where / f"target{v}.png"
            path.write_bytes(data)
            inputs["targets"].append(pixels)
            inputs["filters"].extend(int(k) for k in kinds)
            image_paths.append(str(path))
    ts.sceneio.save_cameras(inputs["cameras"], cams, image_paths)
    return inputs


def setup(wl: Workload, inputs: dict, host: HostSpeed, tracer: Tracer | None, k: int):
    """Import tilesplat, then load the scene, cameras and targets through sceneio."""
    t0 = time.perf_counter()
    ts = import_tilesplat()
    if tracer is not None:
        tracer.install(ts)
        tracer.op = f"setup{k}"
    scene = ts.sceneio.load_ply(inputs["ply"])
    cams = ts.sceneio.load_cameras(inputs["cameras"])
    targets = [ts.sceneio.load_image(path) for _, path in cams if path is not None]
    if wl.scene == "train":
        cfg = ts.TrainConfig()
    else:
        cfg = ts.RenderConfig(
            tile_size=(wl.tile, wl.tile), z_tiles=wl.z_tiles, hybrid=wl.hybrid,
            dtype=np.float32, threads=1,
        )
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    host.sample()
    return ts, scene, [c for c, _ in cams], targets, cfg, elapsed


class Checks:
    """Named pass/fail results; a run is correct only if all of them pass."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return bool(ok)


def check_render(res, splats, cfg, rng, checks, label, candidates_off=None) -> bool:
    """Reference pixels within their bound, plus the count identities."""
    st = res.stats
    c = st.counters
    ok = checks.expect(
        c.performed + c.skipped == c.candidates, f"{label}: performed + skipped != candidates"
    )
    culled = st.culled_near + st.culled_degenerate + st.culled_offscreen
    ok &= checks.expect(culled + st.n_splats == st.n_input, f"{label}: culled + rendered != input")
    if candidates_off is not None:
        ok &= checks.expect(
            c.candidates == candidates_off, f"{label}: candidates differ from hybrid='off'"
        )
    h, w = res.image.data.shape[:2]
    px = rng.integers(0, w, SAMPLE_PIXELS)
    py = rng.integers(0, h, SAMPLE_PIXELS)
    u = 2.0 ** -(np.finfo(np.dtype(cfg.dtype)).nmant + 1)
    bad, err, allowed = reference.check_view(
        res.image.data, splats, px, py, cfg.background, cfg.eps_t, u
    )
    ok &= checks.expect(
        len(bad) == 0,
        f"{label}: {len(bad)} of {SAMPLE_PIXELS} pixels off the reference "
        f"(worst error {err.max():.3g}, allowed {allowed[bad].min() if len(bad) else 0:.3g})",
    )
    return ok


def run_render(wl, seed, seconds, inputs, ts, scene, cams, cfg, host, tracer, checks):
    rng = np.random.default_rng([seed, 7])
    cam_dicts = [
        dict(world_to_cam=c.world_to_cam, fx=c.fx, fy=c.fy, cx=c.cx, cy=c.cy,
             width=c.width, height=c.height, near=c.near)
        for c in inputs["cams"]
    ]
    splats = [reference.project(inputs["params"], c) for c in cam_dicts]
    candidates_off = [None] * len(cams)
    if wl.hybrid != "off":
        off = dataclasses.replace(cfg, hybrid="off")
        candidates_off = [ts.render(scene, cam, off).stats.counters.candidates for cam in cams]

    first = [None] * len(cams)
    spent, rounds, failed, op = 0.0, [], 0, 0
    while spent < seconds:
        rounds.append(0.0)
        for v, cam in enumerate(cams):
            res, dt = timed(
                host, tracer, op, "render", ts.render, (scene, cam, cfg), counts=render_counts
            )
            spent += dt
            rounds[-1] += dt
            op += 1
            label = f"view {v}"
            if first[v] is None:
                ok = check_render(res, splats[v], cfg, rng, checks, label, candidates_off[v])
                first[v] = res
            else:
                ok = checks.expect(
                    np.array_equal(res.image.data, first[v].image.data)
                    and res.stats.to_text() == first[v].stats.to_text(),
                    f"{label}: rerender differs from the first render",
                )
            failed += not ok
    per_round = statistics.median(rounds) * host.scale()
    n = len(cams)
    metrics = {
        "fps": (n / per_round, "views/s"),
        "iters_per_s": (n / per_round, "steps/s"),
        "invocations_per_view": (sum(r.stats.invocations for r in first) / n, "count"),
        "alpha_evals_per_view": (sum(r.stats.counters.performed for r in first) / n, "count"),
    }
    return op, failed, metrics


def l1_loss(ts, views, cfg, stats=None):
    """Mean L1 loss over the views as a function of raw parameter arrays.

    Renders through tilesplat but computes the loss itself; appends each
    render's stats to ``stats`` when given.
    """
    rcfg = cfg.render_config()

    def loss(params):
        trial = ts.GaussianScene(**params)
        total = 0.0
        for cam, target in views:
            res = ts.render(trial, cam, rcfg)
            if stats is not None:
                stats.append(res.stats)
            total += float(np.abs(res.image.data.astype(np.float64) - target.data).mean())
        return total / len(views)

    return loss


def first_step_gradient(ts, scene, views, cfg):
    """train_step on a copy of the scene, and the gradient it hands to Adam."""
    captured = {}
    adam = ts.optim.scene_adam_step

    def capture(s, grads, state):
        captured.update({k: np.array(g) for k, g in grads.items()})
        return adam(s, grads, state)

    ts.optim.scene_adam_step = capture
    try:
        result = ts.train_step(scene.copy(), views, cfg, ts.AdamState())
    finally:
        ts.optim.scene_adam_step = adam
    return result, {k: captured[GRAD_KEYS[k]] for k in PARAMS}


def run_train(wl, seed, seconds, inputs, ts, scene, cams, targets, cfg, host, tracer, checks):
    rng = np.random.default_rng([seed, 11])
    for v, (got, want) in enumerate(zip(targets, inputs["targets"])):
        checks.expect(
            np.array_equal(got.data, want.astype(np.float64) / 255.0),
            f"target {v}: load_image does not return the source pixels",
        )
    rows = np.bincount(inputs["filters"], minlength=5)
    print("PNG target rows by filter: " + ", ".join(
        f"{n} {k}" for n, k in zip(("None", "Sub", "Up", "Average", "Paeth"), rows)
    ), file=sys.stderr)
    views = list(zip(cams, targets))
    first, grads = first_step_gradient(ts, scene, views, cfg)
    stats = []
    loss = l1_loss(ts, views, cfg, stats)
    params = {k: getattr(scene, k).copy() for k in PARAMS}
    own = loss(params)
    counts = stats[: len(views)]
    checks.expect(
        abs(own - first.loss) <= 1e-12 * own, f"train_step loss {first.loss} != L1 loss {own}"
    )
    pairs = fdcheck.directional_checks(loss, params, grads, rng)
    checks.expect(len(pairs) == 3, f"only {len(pairs)} smooth directions found")
    for analytic, fd in pairs:
        checks.expect(
            fdcheck.agrees(analytic, fd, FD_RTOL),
            f"gradient {analytic:.9g} disagrees with finite difference {fd:.9g}",
        )

    adam_state = ts.AdamState()
    losses, times, spent, failed = [], [], 0.0, 0
    while spent < seconds or len(losses) + failed < MIN_STEPS:
        t0 = time.perf_counter()
        try:
            out, dt = timed(
                host, tracer, len(losses) + failed, "train_step", ts.train_step,
                (scene, views, cfg, adam_state),
            )
        except (ValueError, FloatingPointError) as exc:
            failed += 1
            spent += time.perf_counter() - t0
            print(f"train_step failed: {exc}", file=sys.stderr)
            continue
        spent += dt
        times.append(dt)
        losses.append(out.loss)
    checks.expect(
        bool(losses) and losses[0] == first.loss, "first timed step differs from the checked one"
    )
    checks.expect(
        len(losses) > 1 and losses[-1] < losses[0],
        f"loss did not fall: {losses[:1]} -> {losses[-1:]}",
    )
    checks.expect(
        all(np.isfinite(getattr(scene, k)).all() for k in PARAMS), "trained scene is not finite"
    )
    step = statistics.median(times) * host.scale() if times else float("inf")
    metrics = {
        "fps": (len(views) / step, "views/s"),
        "iters_per_s": (1.0 / step, "steps/s"),
        "invocations_per_view": (sum(s.invocations for s in counts) / len(views), "count"),
        "alpha_evals_per_view": (sum(s.counters.performed for s in counts) / len(views), "count"),
    }
    return len(times) + failed, failed, metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object the command prints."""
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    host, setup_host = HostSpeed(), HostSpeed()
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    where = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        inputs = make_inputs(wl, seed, where)
        times = []
        for k in range(SETUPS):
            gc.collect()  # each set-up starts without the previous one's garbage
            ts, scene, cams, targets, cfg, dt = setup(wl, inputs, setup_host, tracer, k)
            times.append(dt)
        checks.expect(
            all(np.array_equal(getattr(scene, k), inputs["params"][k]) for k in PARAMS),
            "load_ply does not return the written scene",
        )
        if wl.scene == "train":
            attempted, failed, metrics = run_train(
                wl, seed, seconds, inputs, ts, scene, cams, targets, cfg, host, tracer, checks
            )
        else:
            attempted, failed, metrics = run_render(
                wl, seed, seconds, inputs, ts, scene, cams, cfg, host, tracer, checks
            )
    finally:
        shutil.rmtree(where, ignore_errors=True)
    metrics["setup_s"] = (statistics.median(times) * setup_host.scale(), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    if tracer is not None:
        metrics = layer_metrics(tracer, attempted, SETUPS, host.scale(), setup_host.scale())
        tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    print(
        f"host scale {host.scale():.4f}, set-up {setup_host.scale():.4f} "
        f"(reference kernel {HOST_REF_S * 1e3:.1f} ms)",
        file=sys.stderr,
    )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if tracer is not None and tracer.absent:
        print("absent: " + ", ".join(tracer.absent), file=sys.stderr)
    return {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
