"""Spans around tilesplat's public functions, recorded from outside the program.

Each wrapped function is replaced at the name its caller looks it up by
(``render`` calls ``tilesplat.forward.preprocess``, ``train_step`` calls
``tilesplat.backward.render`` and ``tilesplat.optim.scene_adam_step``).
A span holds its name, start, end, parent span and the timed operation
(view or step) it belongs to, plus counts read from the call's arguments
or result.  Spans stay in memory until the run writes them out.  A
function that the program no longer has is listed as absent and its
layer reads zero.
"""

from __future__ import annotations

import functools
import json
import statistics
import time


def render_counts(args, out):
    s = out.stats
    c = s.counters
    return {
        "invocations": s.invocations,
        "candidates": c.candidates,
        "performed": c.performed,
        "skipped": c.skipped,
    }


# (module, attribute, span name, counts from (args, result) or None)
PROBES = [
    ("forward", "preprocess", "preprocess", lambda a, out: {"gaussians": out[1].n_input}),
    ("forward", "bin_and_sort", "bin", lambda a, out: {"invocations": out.total_invocations}),
    ("backward", "render", "train.forward", render_counts),
    ("backward", "loss_and_pixel_grads", "train.loss", None),
    ("backward", "scene_backward", "backward", None),
    ("backward", "backward_tile", "backward.tiles", lambda a, out: {"invocations": len(a[1])}),
    ("backward", "recip_one_minus", "backward.recip", None),
    (
        "backward",
        "accumulate_cross_tile",
        "backward.fold",
        lambda a, out: {"accum_ops": out[1], "drain_events": out[2]},
    ),
    (
        "backward",
        "chain_to_3d",
        "backward.chain",
        lambda a, out: {"gaussians": int((a[3]["hit_count"] > 0).sum())},
    ),
    ("optim", "scene_adam_step", "optim.adam", None),
    ("sceneio", "load_ply", "sceneio.load_ply", None),
    (
        "sceneio",
        "load_image",
        "sceneio.load_image",
        lambda a, out: {"pixels": out.data.shape[0] * out.data.shape[1]},
    ),
]


class Tracer:
    """In-memory span recorder; records only while ``op`` is not None.

    ``op`` is the index of the timed view or step, or ``"setup<k>"`` while
    the k-th set-up loads the inputs.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op: int | str | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs=None, counts=None):
        if self.op is None:
            return fn(*args, **(kwargs or {}))
        span = {"name": name, "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            span["counts"] = counts(args, out)
        return out

    def install(self, package) -> None:
        """Wrap every probed function of a freshly imported tilesplat."""
        for module_name, attr, name, counts in PROBES:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                label = f"tilesplat.{module_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            setattr(module, attr, self._wrapper(name, fn, counts))

    def _wrapper(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return wrapped

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"absent": self.absent, "spans": self.spans}, f)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(
    tracer: Tracer, n_ops: int, n_setups: int, scale: float, setup_scale: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``n_ops`` timed operations.

    Render layers are per rendered view (the timed views, or the forward
    passes inside train steps); training layers are per train step.  Times
    are multiplied by the host-speed factors the end-to-end metrics use:
    ``scale`` for the timed operations, ``setup_scale`` for the set-ups.
    A layer that did not run, or whose function is absent, reads zero.
    """
    spans = tracer.spans
    own = self_times(spans)
    timed = [i for i, s in enumerate(spans) if isinstance(s["op"], int)]

    def pick(*names):
        return [i for i in timed if spans[i]["name"] in names]

    def total(ids, self_only=False):
        durations = (own[i] if self_only else spans[i]["end"] - spans[i]["start"] for i in ids)
        return scale * sum(durations)

    def count(ids, key):
        return sum(spans[i].get("counts", {}).get(key, 0) for i in ids)

    def per(x, n, unit=1.0):
        return x * unit / n if n else 0.0

    renders = pick("render", "train.forward")
    views = len(renders)
    pre, binning = pick("preprocess"), pick("bin")
    blend_s = total(renders, self_only=True)
    inv = count(renders, "invocations")
    cand, perf, skip = (count(renders, k) for k in ("candidates", "performed", "skipped"))
    steps = len(pick("train_step"))
    tiles, recip = pick("backward.tiles"), pick("backward.recip")
    fold, chain = pick("backward.fold"), pick("backward.chain")
    tops = [i for i in timed if spans[i]["parent"] is None]

    m = {
        "preprocess.ms_per_view": (per(total(pre), views, 1e3), "ms"),
        "preprocess.ns_per_gaussian": (per(total(pre), count(pre, "gaussians"), 1e9), "ns"),
        "bin.ms_per_view": (per(total(binning), views, 1e3), "ms"),
        "bin.ns_per_invocation": (per(total(binning), count(binning, "invocations"), 1e9), "ns"),
        "blend.ms_per_view": (per(blend_s, views, 1e3), "ms"),
        "blend.us_per_invocation": (per(blend_s, inv, 1e6), "us"),
        "blend.ns_per_candidate": (per(blend_s, cand, 1e9), "ns"),
        "blend.ns_per_performed": (per(blend_s, perf, 1e9), "ns"),
        "blend.candidates_per_view": (per(cand, views), "count"),
        "blend.performed_per_view": (per(perf, views), "count"),
        "blend.skipped_per_view": (per(skip, views), "count"),
        "train.forward.ms_per_step": (per(total(pick("train.forward")), steps, 1e3), "ms"),
        "train.loss.ms_per_step": (per(total(pick("train.loss")), steps, 1e3), "ms"),
        "train.other.ms_per_step": (
            per(total(pick("train_step", "backward"), self_only=True), steps, 1e3),
            "ms",
        ),
        "backward.tiles.ms_per_step": (per(total(tiles, True), steps, 1e3), "ms"),
        "backward.tiles.us_per_invocation": (
            per(total(tiles, True), count(tiles, "invocations"), 1e6),
            "us",
        ),
        "backward.recip.calls_per_step": (per(len(recip), steps), "count"),
        "backward.recip.ms_per_step": (per(total(recip), steps, 1e3), "ms"),
        "backward.fold.ms_per_step": (per(total(fold), steps, 1e3), "ms"),
        "backward.fold.accum_ops": (per(count(fold, "accum_ops"), steps), "count"),
        "backward.fold.drain_events": (per(count(fold, "drain_events"), steps), "count"),
        "backward.chain.ms_per_step": (per(total(chain), steps, 1e3), "ms"),
        "backward.chain.us_per_gaussian": (per(total(chain), count(chain, "gaussians"), 1e6), "us"),
        "optim.adam.ms_per_step": (per(total(pick("optim.adam")), steps, 1e3), "ms"),
        "traced.ms_per_op": (per(total(tops), n_ops, 1e3), "ms"),
        "trace.spans_per_op": (per(len(timed), n_ops), "count"),
    }

    def per_setup(name, key=None):
        """Median over set-ups of the time (or a count) spent in ``name``."""
        vals = [
            sum(
                s["end"] - s["start"] if key is None else s.get("counts", {}).get(key, 0)
                for s in spans
                if s["op"] == f"setup{k}" and s["name"] == name
            )
            for k in range(n_setups)
        ]
        return statistics.median(vals) if vals else 0.0

    load_image_s = setup_scale * per_setup("sceneio.load_image")
    pixels = per_setup("sceneio.load_image", "pixels")
    m["sceneio.load_ply.ms"] = (setup_scale * per_setup("sceneio.load_ply") * 1e3, "ms")
    m["sceneio.load_image.ms"] = (load_image_s * 1e3, "ms")
    m["sceneio.load_image.ns_per_pixel"] = (per(load_image_s, pixels, 1e9), "ns")
    return m
