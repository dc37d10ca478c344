"""Command-line surface: render, train, analyze, checkgrad, selftest.

Configuration comes from an optional JSON file plus per-flag overrides;
unknown config keys are rejected. Exit codes: 0 success, 1 runtime
failure (including failed checks), 2 usage error (including a config
value that fails validation, caught before any output is written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .approxmath import recip_one_minus
from .backward import TrainConfig, train_step
from .execmodel import (
    BankModel,
    bank_conflicts,
    hybrid_savings,
    occlusion_curve,
    sweep_reduction,
    tile_sweep,
)
from . import forward, sceneio
from .forward import RenderConfig, block_groups, clip_windows, render, splat_alpha
from .gradcheck import check_gradients, make_fd_case, reference_config
from .model import ImageRGB
from .optim import (
    AdamState,
    DensifyStats,
    density_control,
    remap_adam_state,
)
from .preprocess import ALPHA_MIN, preprocess
from .sceneio import (
    image_from_png_bytes,
    image_to_ppm_bytes,
    load_cameras,
    load_image,
    load_ply,
    quantize_u8,
    render_config_from_dict,
    save_image,
    save_ply,
    scene_from_ply_bytes,
    scene_to_ply_bytes,
    train_config_from_dict,
)
from .synth import (
    indoor_scene,
    make_camera,
    opaque_foreground_scene,
    outdoor_scene,
    random_scene,
)


class _UsageError(ValueError):
    """A flag, config file or config value that fails validation (exit code 2)."""


def _validated(cfg):
    """``cfg`` after its ``validate()``; a failure becomes a _UsageError."""
    try:
        cfg.validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return cfg


def _load_config_dict(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise _UsageError("config file must hold a JSON object")
    return cfg


# Config field -> (flag, argparse keywords); a command takes the fields of its config.
_CONFIG_FLAGS = {
    "tile_size": ("--tile", dict(nargs=2, type=int, metavar=("W", "H"))),
    "z_tiles": ("--z-tiles", dict(type=int)),
    "loss": ("--loss", dict(choices=("l1", "l2"))),
    "eps_t": ("--eps-t", dict(type=float)),
    "hybrid": ("--hybrid", dict(choices=("off", "fixed_fraction", "occlusion_threshold"))),
    "hybrid_fraction": ("--hybrid-fraction", dict(type=float)),
    "occlusion_threshold": ("--occlusion-threshold", dict(type=float)),
    "background": ("--background", dict(nargs=3, type=float, metavar=("R", "G", "B"))),
    "recip_mode": ("--recip", dict(choices=("exact", "approx"))),
    "dtype": ("--dtype", dict(choices=("float32", "float64"))),
    "threads": ("--threads", dict(type=int)),
    "record_occlusion": ("--record-occlusion", dict(action=argparse.BooleanOptionalAction)),
}


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """``--config`` and one flag per field of ``cls``, in field order."""
    p.add_argument("--config", help="JSON config file (flags override its keys)")
    for f in dataclasses.fields(cls):
        flag, kwargs = _CONFIG_FLAGS[f.name]
        p.add_argument(flag, dest=f.name, **kwargs)


def _merged_config(args, cls, from_dict):
    """The ``--config`` file with every given flag laid over its key, validated."""
    cfg = _load_config_dict(args.config)
    for f in dataclasses.fields(cls):
        if getattr(args, f.name) is not None:
            cfg[f.name] = getattr(args, f.name)
    try:
        cfg = from_dict(cfg)
    except ValueError as exc:  # an unknown key or dtype
        raise _UsageError(str(exc)) from None
    return _validated(cfg)


def cmd_render(args) -> int:
    rcfg = _merged_config(args, RenderConfig, render_config_from_dict)
    scene = load_ply(args.scene)
    cameras = load_cameras(args.cameras)
    results = [render(scene, cam, rcfg) for cam, _ in cameras]  # a failing view writes nothing
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, res in enumerate(results):
        save_image(res.image, outdir / f"render_{i:04d}.{args.format}")
        (outdir / f"stats_{i:04d}.txt").write_text(res.stats.to_text() + "\n")
    print(f"rendered {len(cameras)} view(s) to {outdir}")
    return 0


def cmd_train(args) -> int:
    tcfg = _merged_config(args, TrainConfig, train_config_from_dict)
    scene = load_ply(args.scene)
    cameras = load_cameras(args.cameras)
    base = Path(args.cameras).parent
    views = []
    for i, (cam, image_path) in enumerate(cameras):
        if image_path is None:
            raise ValueError(f"camera {i} has no image_path; training needs targets")
        p = Path(image_path)
        target = load_image(p if p.is_absolute() else base / p)
        if (target.height, target.width) != (cam.height, cam.width):
            raise ValueError(
                f"camera {i}: target is {target.width}x{target.height}, "
                f"camera expects {cam.width}x{cam.height}"
            )
        views.append((cam, target))

    adam = AdamState(lr=args.lr)
    rng = np.random.default_rng(args.seed)
    dstats = DensifyStats.zeros(scene.n) if args.densify_every > 0 else None

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    log_lines = []
    for it in range(args.iters):
        res = train_step(scene, views, tcfg, adam, dstats)
        log_lines.append(f"{it} {res.loss:.8f}")
        if args.log_every > 0 and it % args.log_every == 0:
            print(f"iter {it}: loss {res.loss:.6f}")
        due = args.densify_every > 0 and (it + 1) % args.densify_every == 0
        if due and it + 1 < args.iters:
            scene, report, keep = density_control(scene, dstats, rng)
            remap_adam_state(adam, keep, scene.n - keep.size)
            dstats = DensifyStats.zeros(scene.n)
            print(
                f"iter {it}: densify {report.n_before} -> {report.n_after} "
                f"(+{report.cloned} cloned, +{report.split} split, "
                f"-{report.pruned} pruned)"
            )

    save_ply(scene, outdir / "trained.ply")
    (outdir / "loss_log.txt").write_text("\n".join(log_lines) + "\n")
    (outdir / "train_stats.txt").write_text(res.stats.to_text() + "\n")
    first = float(log_lines[0].split()[1])
    last = float(log_lines[-1].split()[1])
    print(
        f"trained {args.iters} iteration(s): loss {first:.6f} -> {last:.6f}, "
        f"{scene.n} gaussians, output in {outdir}"
    )
    return 0


def _analysis_scene(args, rng: np.random.Generator, default_kind: str):
    if args.scene is not None:
        if args.cameras is None:
            raise _UsageError("--scene needs --cameras for the viewpoint")
        scene = load_ply(args.scene)
        cameras = load_cameras(args.cameras)
        if not cameras:
            raise ValueError(f"camera file {args.cameras} holds no cameras")
        return cameras[0][0], scene
    kind = args.synthetic if args.synthetic is not None else default_kind
    if kind == "outdoor":
        cam = make_camera(512, 512)
        return cam, outdoor_scene(rng, cam, n=1000 if args.n is None else args.n)
    if kind == "indoor":
        cam = make_camera(128, 128)
        return cam, indoor_scene(rng, cam)
    if kind == "opaque":
        cam = make_camera(128, 128)
        return cam, opaque_foreground_scene(rng, cam)
    cam = make_camera(128, 128)
    return cam, random_scene(rng, 256 if args.n is None else args.n, cam)


def _check_scene_flags(args) -> None:
    """Reject the scene flags that ``args.report`` would ignore, naming the flag."""
    given = [
        flag for flag, value in
        (("--scene", args.scene), ("--cameras", args.cameras), ("--synthetic", args.synthetic))
        if value is not None
    ]
    if args.report == "bank" and given:
        raise _UsageError(f"{given[0]} does not apply to --report bank, which reads no scene")
    if args.scene is not None and args.synthetic is not None:
        raise _UsageError("--synthetic does not apply with --scene")
    if args.cameras is not None and args.scene is None:
        raise _UsageError("--cameras needs --scene")


def cmd_analyze(args) -> int:
    rng = np.random.default_rng(args.seed)
    threads = 1 if args.threads is None else args.threads
    _validated(RenderConfig(threads=threads, hybrid_fraction=args.fraction))
    _check_scene_flags(args)
    lines: list[str] = []

    if args.report == "tile-sweep":
        cam, scene = _analysis_scene(args, rng, "outdoor")
        batch, _ = preprocess(scene, cam)
        sweep = tile_sweep(batch, (cam.width, cam.height))
        lines.append("tile_size invocations")
        lines.extend(f"{s}x{s} {inv}" for s, inv in sweep)
        lines.append(f"reduction_16_to_64 {sweep_reduction(sweep, 16, 64):.4f}")

    elif args.report == "bounds":
        cam, scene = _analysis_scene(args, rng, "outdoor")
        rcfg = RenderConfig()
        totals = np.zeros((4, 2), dtype=np.int64)  # rows of (before, after) pruning
        for grp in block_groups(scene, cam, rcfg):
            lwin = grp.lwin.astype(np.int64)
            kept_px = (lwin[:, 2] - lwin[:, 0]) * (lwin[:, 3] - lwin[:, 1])
            block_px = grp.block[0] * grp.block[1]
            totals += [
                [grp.m.sum()] * 2,
                [grp.area.sum(), kept_px.sum()],
                [grp.aabb_pairs, len(grp.pos)],
                [grp.aabb_pairs * block_px, len(grp.pos) * block_px],
            ]
        tw, th = rcfg.tile_size
        bh, bw = grp.block  # every group of a render has the same blocks
        lines.append(f"bounds before after kept ({tw}x{th} tiles, {bw}x{bh} blocks)")
        for name, (before, after) in zip(
            ("invocations", "window_px", "block_entries", "block_px"), totals
        ):
            lines.append(f"{name} {before} {after} {after / max(before, 1):.4f}")

    elif args.report == "occlusion":
        cam, scene = _analysis_scene(args, rng, "indoor")
        rcfg = _validated(
            RenderConfig(
                tile_size=(32, 32),
                z_tiles=8 if args.z_tiles is None else args.z_tiles,
                eps_t=1e-4,
                record_occlusion=True,
                threads=threads,
            )
        )
        res = render(scene, cam, rcfg)
        lines.append("depth_fraction occluded_fraction")
        lines.extend(
            f"{f:.4f} {occ:.6f}" for f, occ in occlusion_curve(res.stats.occlusion)
        )

    elif args.report == "bank":
        column = np.stack(
            [np.full(16, 3, dtype=np.int64), np.arange(16, dtype=np.int64)], axis=1
        )
        skew, unskew = BankModel(skewed=True), BankModel(skewed=False)
        lines.append(f"column_group_skewed_conflicts {skew.conflicts(column)}")
        lines.append(f"column_group_unskewed_conflicts {unskew.conflicts(column)}")
        groups = []
        for _ in range(10_000 if args.n is None else args.n):
            length = int(rng.integers(1, 17))
            x0 = int(rng.integers(0, 64))
            y0 = int(rng.integers(0, 64))
            run = np.arange(length, dtype=np.int64)
            if rng.integers(2):  # vertical run
                g = np.stack([np.full(length, x0, dtype=np.int64), y0 + run], axis=1)
            else:
                g = np.stack([x0 + run, np.full(length, y0, dtype=np.int64)], axis=1)
            groups.append(g)
        cs = bank_conflicts(groups, skew)
        cu = bank_conflicts(groups, unskew)
        lines.append(f"random_groups {len(groups)}")
        lines.append(f"mean_conflicts_skewed {cs.mean():.4f}")
        lines.append(f"mean_conflicts_unskewed {cu.mean():.4f}")
        lines.append(f"groups_where_skewed_exceeds_unskewed {int((cs > cu).sum())}")

    else:  # hybrid
        cam, scene = _analysis_scene(args, rng, "opaque")
        base = dict(tile_size=(32, 32), eps_t=1e-4, threads=threads)
        pure = render(scene, cam, RenderConfig(**base))
        hyb = render(
            scene,
            cam,
            RenderConfig(
                **base,
                hybrid="fixed_fraction",
                hybrid_fraction=args.fraction,
            ),
        )
        saved, frac = hybrid_savings(pure.stats, hyb.stats)
        diff = float(np.abs(pure.image.data - hyb.image.data).max())
        lines.append(f"alpha_candidates {pure.stats.counters.candidates}")
        lines.append(f"alpha_performed_pure {pure.stats.counters.performed}")
        lines.append(f"alpha_performed_hybrid {hyb.stats.counters.performed}")
        lines.append(f"savings {saved}")
        lines.append(f"savings_fraction {frac:.4f}")
        lines.append(f"max_pixel_diff {diff:.3e}")

    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_checkgrad(args) -> int:
    _validated(reference_config(loss=args.loss, background=tuple(args.background)))
    worst = 0.0
    failed = 0
    for s in range(args.scenes):
        scene, views, tcfg = make_fd_case(
            args.seed + 1000 * s,
            n=args.n,
            degree=args.degree,
            size=args.size,
            two_views=args.two_views,
            background=tuple(args.background),
            loss=args.loss,
        )
        rep = check_gradients(scene, views, tcfg, h=args.h)
        worst = max(worst, rep.max_rel_err)
        failed += rep.n_failed
        status = "ok" if rep.ok else "FAIL"
        print(
            f"scene {s}: {len(rep.rows)} parameters, "
            f"max rel err {rep.max_rel_err:.3e} {status}"
        )
        for r in rep.rows:
            if not r.ok:
                print(
                    f"  {r.name}: analytic {r.analytic:.6e} "
                    f"numeric {r.numeric:.6e}"
                )
    print(
        f"checked {args.scenes} scene(s), max rel err {worst:.3e}, "
        f"{failed} failing parameter(s)"
    )
    return 0 if failed == 0 else 1


def _st_recip_bounds() -> None:
    alpha = np.linspace(0.0, 0.99, 991)
    approx = recip_one_minus(alpha, mode="approx")
    exact = 1.0 / (1.0 - alpha)
    rel = np.abs(approx - exact) / exact
    if float(rel.max()) > 0.032:
        raise AssertionError(f"reciprocal error {rel.max():.4f} exceeds 3.2%")
    if np.any(np.diff(approx) < 0):
        raise AssertionError("approximate reciprocal is not monotone")


def _st_ztile_equivalence() -> None:
    for s in range(3):
        rng = np.random.default_rng(s)
        cam = make_camera(64, 64)
        scene = random_scene(rng, 64, cam)
        base = dict(
            tile_size=(32, 32),
            eps_t=0.0,
            dtype=np.float64,
            background=(0.1, 0.2, 0.3),
        )
        a = render(scene, cam, RenderConfig(**base, z_tiles=1)).image.data
        b = render(scene, cam, RenderConfig(**base, z_tiles=4)).image.data
        err = float(np.abs(a - b).max())
        if err > 1e-12:
            raise AssertionError(f"seed {s}: chunked blend differs by {err:.2e}")


def _st_hybrid_identity() -> None:
    rng = np.random.default_rng(7)
    cam = make_camera(128, 128)
    scene = opaque_foreground_scene(rng, cam)
    base = dict(tile_size=(32, 32), eps_t=1e-4)
    pure = render(scene, cam, RenderConfig(**base))
    for mode, extra in (
        ("fixed_fraction", {"hybrid_fraction": 0.25}),
        ("occlusion_threshold", {"occlusion_threshold": 0.9}),
    ):
        hyb = render(scene, cam, RenderConfig(**base, hybrid=mode, **extra))
        if not np.array_equal(pure.image.data, hyb.image.data):
            raise AssertionError(f"{mode} output is not bit-identical")
        saved, _ = hybrid_savings(pure.stats, hyb.stats)
        if saved <= 0:
            raise AssertionError(f"{mode} saved no work on an opaque scene")


def _one_splat_at_a_time(batch, binning, eps_t: float):
    """(rgb (h, w, 3), T (h, w)) of a global sweep that blends each tile's
    list one splat at a time over the splat's window, with ``splat_alpha``."""
    dt = batch.mean2.dtype.type
    rgb = np.zeros((binning.image_h, binning.image_w, 3), dtype=dt)
    T = np.ones((binning.image_h, binning.image_w), dtype=dt)
    off = binning.offsets
    for t, rect in enumerate(binning.rects()):
        order = binning.order[off[t] : off[t + 1]]
        win, area = clip_windows(batch.aabb[order], rect)
        for i, (x0, y0, x1, y1) in zip(order[area > 0], win[area > 0].tolist()):
            xc = np.arange(x0, x1).astype(dt)[None, None, :] + dt(0.5)
            yc = np.arange(y0, y1).astype(dt)[None, :, None] + dt(0.5)
            one = slice(i, i + 1)
            alpha = splat_alpha(xc, yc, batch.mean2[one], batch.conic[one], batch.opacity[one])[0]
            Tw = T[y0:y1, x0:x1]
            alpha *= (alpha >= ALPHA_MIN) & (Tw >= eps_t)
            rgb[y0:y1, x0:x1] += (Tw * alpha)[..., None] * batch.rgb[i]
            Tw *= 1 - alpha
    return rgb, T


def _st_kernel_exact() -> None:
    cam = make_camera(48, 40)  # a third of the pixels terminate
    scene = random_scene(
        np.random.default_rng(17), 80, cam, px_sigma=(1.0, 8.0), logit_range=(0.0, 6.0)
    )
    for dtype in (np.float32, np.float64):  # render's and train's blend dtypes
        cfg = RenderConfig(tile_size=(24, 20), eps_t=1e-4, dtype=dtype)
        _, _, binning, batch, table, _ = forward._prepare(scene, cam, cfg)
        want_rgb, want_T = _one_splat_at_a_time(batch, binning, cfg.eps_t)
        for side in (forward.BLOCK // 2, forward.BLOCK):
            rgb, T = np.zeros_like(want_rgb), np.zeros_like(want_T)
            for tiles in forward._tile_groups(binning, side):
                grp = forward.BlockGroup(table, tiles, side)
                state, _, _ = forward._blend_group(grp, cfg)
                grp.paste(np.moveaxis(state.rgb, 0, -1), rgb)
                grp.paste(state.T, T)
            if not (np.array_equal(rgb, want_rgb) and np.array_equal(T, want_T)):
                name = np.dtype(dtype).name
                raise AssertionError(f"{side} px blocks in {name} differ from the one-splat sweep")


def _st_thread_determinism() -> None:
    rng = np.random.default_rng(11)
    cam = make_camera(128, 128)
    scene = random_scene(rng, 256, cam)
    cfg1 = RenderConfig(tile_size=(32, 32), threads=1)
    cfg4 = RenderConfig(tile_size=(32, 32), threads=4)
    a = render(scene, cam, cfg1).image.data
    b = render(scene, cam, cfg4).image.data
    if not np.array_equal(a, b):
        raise AssertionError("thread counts 1 and 4 disagree")


def _st_ply_roundtrip() -> None:
    rng = np.random.default_rng(13)
    cam = make_camera(64, 64)
    for degree in (0, 2):
        scene = random_scene(rng, 20, cam, degree=degree)
        data1 = scene_to_ply_bytes(scene)
        again = scene_from_ply_bytes(data1)
        data2 = scene_to_ply_bytes(again)
        if data1 != data2:
            raise AssertionError(f"degree-{degree} round trip is not byte-stable")


def _st_ppm_golden() -> None:
    img = ImageRGB(np.array([[[1.0, 0.0, 0.0]]]))
    got = image_to_ppm_bytes(img)
    want = b"P6\n1 1\n255\n\xff\x00\x00"
    if got != want:
        raise AssertionError(f"1x1 red PPM bytes {got!r} != {want!r}")
    half = image_to_ppm_bytes(ImageRGB(np.array([[[0.5, 0.5, 0.5]]])))
    if half[-3:] != b"\x80\x80\x80":
        raise AssertionError("0.5 must quantize to 128")


def _st_png_filters() -> None:
    # 3x5 RGB, rows filtered None, Sub, Up, Average (odd sums) and Paeth.
    # Paeth's pixel 1 breaks ties for a over c (red) and b over c (green);
    # its pixel 2 picks c (red), a (green) and b (blue) outright.
    scanlines = bytes([
        0, 0, 255, 128, 255, 0, 128, 128, 128, 128,
        1, 10, 20, 30, 30, 30, 30, 30, 30, 30,
        2, 3, 2, 2, 4, 5, 4, 6, 6, 7,
        3, 14, 89, 240, 254, 13, 234, 223, 3, 147,
        4, 236, 5, 5, 40, 216, 1, 220, 20, 86,
    ])
    want = np.array([
        [[0, 255, 128], [255, 0, 128], [128, 128, 128]],
        [[10, 20, 30], [40, 50, 60], [70, 80, 90]],
        [[13, 22, 32], [44, 55, 64], [76, 86, 97]],
        [[20, 100, 0], [30, 90, 10], [20, 91, 200]],
        [[0, 105, 5], [40, 50, 11], [250, 70, 30]],
    ], dtype=np.uint8)
    got = quantize_u8(image_from_png_bytes(sceneio._png_from_scanlines(3, 5, scanlines)).data)
    if not np.array_equal(got, want):
        y, x = np.argwhere((got != want).any(axis=2))[0]
        raise AssertionError(f"pixel ({y}, {x}) is {got[y, x].tolist()}, want {want[y, x].tolist()}")


def _st_gradcheck() -> None:
    scene, views, tcfg = make_fd_case(0, n=6, size=16)
    rep = check_gradients(scene, views, tcfg)
    if not rep.ok:
        raise AssertionError(
            f"{rep.n_failed} gradient(s) off, max rel err {rep.max_rel_err:.3e}"
        )


def cmd_selftest(args) -> int:
    checks = [
        ("recip-bounds", _st_recip_bounds),
        ("ztile-equivalence", _st_ztile_equivalence),
        ("hybrid-identity", _st_hybrid_identity),
        ("thread-determinism", _st_thread_determinism),
        ("ply-roundtrip", _st_ply_roundtrip),
        ("ppm-golden", _st_ppm_golden),
        ("png-filters", _st_png_filters),
        ("kernel-exact", _st_kernel_exact),
        ("gradcheck", _st_gradcheck),
    ]
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    if failures:
        print(f"{failures} self-test failure(s)")
        return 1
    print("all self-tests passed")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilesplat",
        description="Tile-based Gaussian splatting renderer, trainer, and analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a scene from each camera")
    p.add_argument("--scene", required=True, help="PLY scene file")
    p.add_argument("--cameras", required=True, help="camera JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("ppm", "png"), default="ppm")
    _add_config_flags(p, RenderConfig)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("train", help="fit a scene to target images")
    p.add_argument("--scene", required=True, help="initial PLY scene")
    p.add_argument("--cameras", required=True, help="camera JSON with image_path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--iters", type=_positive_int, default=100)
    p.add_argument("--lr", type=_positive_float, default=0.01)
    _add_config_flags(p, TrainConfig)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--densify-every", type=int, default=0, help="0 disables")
    p.add_argument("--log-every", type=int, default=10, help="0 silences progress")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="workload reports on a scene")
    p.add_argument(
        "--report",
        required=True,
        choices=("tile-sweep", "bounds", "occlusion", "bank", "hybrid"),
    )
    p.add_argument("--scene", help="PLY scene file (default: synthetic)")
    p.add_argument("--cameras", help="camera JSON (first camera is used)")
    p.add_argument(
        "--synthetic",
        choices=("outdoor", "indoor", "opaque", "random"),
        help="synthetic scene class when no --scene is given",
    )
    p.add_argument("--n", type=_positive_int, help="scene size / random group count")
    p.add_argument("--z-tiles", type=int)
    p.add_argument("--fraction", type=float, default=0.25)
    p.add_argument("--threads", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("checkgrad", help="finite-difference gradient check")
    p.add_argument("--n", type=_positive_int, default=8, help="gaussians per scene")
    p.add_argument("--size", type=_positive_int, default=16, help="image side length")
    p.add_argument("--scenes", type=_positive_int, default=1)
    p.add_argument("--degree", type=int, default=0, choices=(0, 1, 2, 3))
    p.add_argument("--two-views", action="store_true")
    p.add_argument("--background", nargs=3, type=float, metavar=("R", "G", "B"), default=(0.0,) * 3)
    p.add_argument("--loss", choices=("l1", "l2"), default="l2")
    p.add_argument("--h", type=_positive_float, default=1e-5, help="finite-difference step")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_checkgrad)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
