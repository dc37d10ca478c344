"""Command-line entry points, run in-process through main()."""

import json

import numpy as np
import pytest

from tilesplat.cli import main
from tilesplat.sceneio import (
    load_image,
    load_ply,
    quantize_u8,
    save_cameras,
    save_image,
    save_ply,
    save_ppm,
)
from tilesplat.synth import make_camera, orbit_camera, random_scene, toy_training_scene


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    cam0 = make_camera(32, 32)
    cam1 = orbit_camera(32, 32, 15.0, 6.0, 6.0)
    scene = random_scene(rng, 20, cam0)
    save_ply(scene, tmp_path / "scene.ply")
    save_cameras(tmp_path / "cams.json", [cam0, cam1])
    return tmp_path


def test_render_writes_images_and_stats(workdir):
    out = workdir / "out"
    rc = main([
        "render", "--scene", str(workdir / "scene.ply"),
        "--cameras", str(workdir / "cams.json"), "--out", str(out),
        "--tile", "16", "16",
    ])
    assert rc == 0
    for i in range(2):
        assert (out / f"render_{i:04d}.ppm").exists()
        stats = (out / f"stats_{i:04d}.txt").read_text()
        assert "alpha_performed" in stats
    assert (out / "render_0000.ppm").read_bytes().startswith(b"P6")


def test_render_has_no_seed_flag(workdir, capsys):
    rc = main([
        "render", "--scene", str(workdir / "scene.ply"),
        "--cameras", str(workdir / "cams.json"), "--out", str(workdir / "out"),
        "--seed", "3",
    ])
    assert rc == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_render_is_byte_deterministic(workdir):
    blobs = []
    for name in ("a", "b"):
        out = workdir / name
        rc = main([
            "render", "--scene", str(workdir / "scene.ply"),
            "--cameras", str(workdir / "cams.json"), "--out", str(out),
            "--threads", "4" if name == "a" else "1",
        ])
        assert rc == 0
        blobs.append((out / "render_0001.ppm").read_bytes())
    assert blobs[0] == blobs[1]


def test_render_config_file_with_overrides(workdir):
    cfg = workdir / "render.json"
    cfg.write_text(json.dumps({"tile_size": [16, 16],
                               "hybrid": "fixed_fraction",
                               "hybrid_fraction": 0.5}))
    out1 = workdir / "c1"
    out2 = workdir / "c2"
    for out, extra in ((out1, []), (out2, ["--hybrid", "off"])):
        rc = main([
            "render", "--scene", str(workdir / "scene.ply"),
            "--cameras", str(workdir / "cams.json"), "--out", str(out),
            "--config", str(cfg), *extra,
        ])
        assert rc == 0
    s1 = (out1 / "stats_0000.txt").read_text()
    s2 = (out2 / "stats_0000.txt").read_text()
    assert "hybrid_splits" in s1  # config key took effect
    assert "hybrid_splits" not in s2  # flag overrode the config


def test_train_smoke(tmp_path):
    from tilesplat.forward import render

    rng = np.random.default_rng(1)
    cam = make_camera(8, 8, focal=8.0)
    target, initial = toy_training_scene(rng, cam)
    save_ply(initial, tmp_path / "init.ply")
    save_ppm(render(target, cam).image, tmp_path / "target.ppm")
    save_cameras(tmp_path / "cams.json", [cam], ["target.ppm"])
    out = tmp_path / "run"
    rc = main([
        "train", "--scene", str(tmp_path / "init.ply"),
        "--cameras", str(tmp_path / "cams.json"), "--out", str(out),
        "--iters", "5", "--log-every", "0",
    ])
    assert rc == 0
    assert (out / "trained.ply").exists()
    log = (out / "loss_log.txt").read_text().strip().splitlines()
    assert len(log) == 5
    first = float(log[0].split()[1])
    last = float(log[-1].split()[1])
    assert last < first
    stats = (out / "train_stats.txt").read_text()
    assert "accum_ops" in stats
    assert "time_chain" not in stats and "time_accumulate" not in stats
    trained = load_ply(out / "trained.ply")
    assert trained.n == 10


def test_png_render_and_train_targets(workdir):
    from tilesplat.forward import render

    for name, fmt, threads in (("p1", "png", "1"), ("p4", "png", "4"),
                               ("m1", "ppm", "1")):
        rc = main([
            "render", "--scene", str(workdir / "scene.ply"),
            "--cameras", str(workdir / "cams.json"),
            "--out", str(workdir / name), "--format", fmt, "--threads", threads,
        ])
        assert rc == 0
    for i in range(2):
        png = workdir / "p1" / f"render_{i:04d}.png"
        assert png.read_bytes() == (workdir / "p4" / png.name).read_bytes()
        ppm = load_image(workdir / "m1" / f"render_{i:04d}.ppm")
        np.testing.assert_array_equal(quantize_u8(load_image(png).data),
                                      quantize_u8(ppm.data))

    rng = np.random.default_rng(1)
    cam = make_camera(8, 8, focal=8.0)
    target, initial = toy_training_scene(rng, cam)
    save_ply(initial, workdir / "init.ply")
    save_image(render(target, cam).image, workdir / "target.png")
    save_cameras(workdir / "train_cams.json", [cam], ["target.png"])
    rc = main([
        "train", "--scene", str(workdir / "init.ply"),
        "--cameras", str(workdir / "train_cams.json"),
        "--out", str(workdir / "run"), "--iters", "2", "--log-every", "0",
    ])
    assert rc == 0
    assert (workdir / "run" / "trained.ply").exists()


def test_train_rejects_missing_targets(workdir):
    out = workdir / "t"
    rc = main([
        "train", "--scene", str(workdir / "scene.ply"),
        "--cameras", str(workdir / "cams.json"), "--out", str(out),
        "--iters", "1",
    ])
    assert rc == 1


@pytest.mark.parametrize("report,needle", [
    ("tile-sweep", "reduction_16_to_64"),
    ("occlusion", "occluded_fraction"),
    ("bank", "groups_where_skewed_exceeds_unskewed"),
    ("hybrid", "savings_fraction"),
])
def test_analyze_reports(report, needle, capsys, tmp_path):
    args = ["analyze", "--report", report, "--synthetic", "indoor",
            "--out", str(tmp_path / "report.txt")]
    if report == "tile-sweep":
        args += ["--n", "200"]
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 0
    assert needle in captured.out
    assert needle in (tmp_path / "report.txt").read_text()


def test_analyze_on_file_scene(workdir, capsys):
    rc = main([
        "analyze", "--report", "tile-sweep",
        "--scene", str(workdir / "scene.ply"),
        "--cameras", str(workdir / "cams.json"),
    ])
    assert rc == 0
    assert "reduction_16_to_64" in capsys.readouterr().out


def test_checkgrad_cli(capsys):
    rc = main(["checkgrad", "--n", "4", "--size", "12", "--scenes", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert " ok" in out


def test_usage_errors_exit_2(capsys):
    assert main(["render", "--bogus-flag"]) == 2
    assert main(["not-a-command"]) == 2


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main([
        "render", "--scene", str(tmp_path / "nope.ply"),
        "--cameras", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("iters", ["0", "-1"])
def test_train_rejects_iters_below_one(tmp_path, capsys, iters):
    from tilesplat.forward import render

    rng = np.random.default_rng(1)
    cam = make_camera(8, 8, focal=8.0)
    _, initial = toy_training_scene(rng, cam)
    save_ply(initial, tmp_path / "init.ply")
    save_ppm(render(initial, cam).image, tmp_path / "target.ppm")
    save_cameras(tmp_path / "cams.json", [cam], ["target.ppm"])
    out = tmp_path / "run"
    rc = main([
        "train", "--scene", str(tmp_path / "init.ply"),
        "--cameras", str(tmp_path / "cams.json"), "--out", str(out),
        "--iters", iters,
    ])
    assert rc == 2
    assert f"argument --iters: must be >= 1, got {iters}" in capsys.readouterr().err
    assert not out.exists()


def test_selftest_runs_every_check(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "ok recip-bounds",
        "ok ztile-equivalence",
        "ok hybrid-identity",
        "ok thread-determinism",
        "ok ply-roundtrip",
        "ok ppm-golden",
        "ok gradcheck",
        "all self-tests passed",
    ]


def test_selftest_has_no_seed_flag(capsys):
    assert main(["selftest", "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
