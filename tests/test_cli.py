"""Command-line entry points, run in-process through main()."""

import dataclasses
import json

import numpy as np
import pytest

from tilesplat.backward import TrainConfig
from tilesplat.cli import _merged_config, build_parser, main
from tilesplat.forward import RenderConfig
from tilesplat.sceneio import (
    load_image,
    load_ply,
    quantize_u8,
    render_config_from_dict,
    save_cameras,
    save_image,
    save_ply,
    save_ppm,
    train_config_from_dict,
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


def test_render_rejects_colours_past_float32_and_writes_nothing(workdir, capsys):
    scene = random_scene(np.random.default_rng(4), 6, make_camera(32, 32), degree=3)
    scene.sh[:] = 3e38  # finite in float32, but the colours are not
    save_ply(scene, workdir / "hot.ply")
    out = workdir / "out"
    rc = main([
        "render", "--scene", str(workdir / "hot.ply"),
        "--cameras", str(workdir / "cams.json"), "--out", str(out),
    ])
    assert rc == 1
    assert "rgb is not finite in float32" in capsys.readouterr().err
    assert not list(out.glob("render_0000.*")) and not (out / "stats_0000.txt").exists()


def test_render_writes_nothing_when_a_later_view_fails(tmp_path, capsys):
    cam0 = make_camera(32, 32)
    cam1 = orbit_camera(32, 32, 0.0, 6.0, 0.0)  # at z = -6, facing +z
    scene = random_scene(np.random.default_rng(4), 6, cam0, degree=3)
    scene.means[0] = (0.0, 0.0, -1.0)  # behind camera 0, in front of camera 1
    scene.sh[0] = 3e38  # finite in float32, but its colour is not
    save_ply(scene, tmp_path / "hot.ply")
    save_cameras(tmp_path / "cams.json", [cam0, cam1])
    out = tmp_path / "out"
    rc = main([
        "render", "--scene", str(tmp_path / "hot.ply"),
        "--cameras", str(tmp_path / "cams.json"), "--out", str(out),
    ])
    assert rc == 1
    assert "Gaussian 0: rgb is not finite in float32" in capsys.readouterr().err
    assert not list(out.glob("render_*")) and not list(out.glob("stats_*"))


def test_render_rejects_a_splat_too_far_off_axis_for_float32(tmp_path, capsys):
    cam = make_camera(32, 32)
    scene = random_scene(np.random.default_rng(0), 20, cam)
    scene.means[0] = (1e25, 0.0, 1.0)
    scene.opacity_logits[0] = 5.0
    save_ply(scene, tmp_path / "far.ply")
    save_cameras(tmp_path / "cams.json", [cam])
    out = tmp_path / "out"
    rc = main([
        "render", "--scene", str(tmp_path / "far.ply"),
        "--cameras", str(tmp_path / "cams.json"), "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Gaussian 0: squared offset of mean2 to its pixels is not finite in float32" in err
    assert not list(out.glob("render_*")) and not list(out.glob("stats_*"))


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


# Per config field: its flag's tokens, the value they give, and a different file value.
_FLAG_CASES = {
    "tile_size": (["--tile", "16", "8"], (16, 8), [32, 16]),
    "z_tiles": (["--z-tiles", "3"], 3, 2),
    "loss": (["--loss", "l2"], "l2", "l1"),
    "eps_t": (["--eps-t", "0.01"], 0.01, 0.001),
    "hybrid": (["--hybrid", "occlusion_threshold"], "occlusion_threshold", "fixed_fraction"),
    "hybrid_fraction": (["--hybrid-fraction", "0.5"], 0.5, 0.75),
    "occlusion_threshold": (["--occlusion-threshold", "0.6"], 0.6, 0.8),
    "background": (["--background", "0.1", "0.2", "0.3"], (0.1, 0.2, 0.3), [0.4, 0.5, 0.6]),
    "recip_mode": (["--recip", "approx"], "approx", "exact"),
    "dtype": (["--dtype", "float64"], np.float64, "float32"),
    "threads": (["--threads", "2"], 2, 3),
    "record_occlusion": (["--record-occlusion"], True, False),
}


@pytest.mark.parametrize("command,cls,from_dict", [
    ("render", RenderConfig, render_config_from_dict),
    ("train", TrainConfig, train_config_from_dict),
])
def test_each_config_field_has_one_flag_over_its_file_key(tmp_path, command, cls, from_dict):
    names = [f.name for f in dataclasses.fields(cls)]
    file_keys = {name: _FLAG_CASES[name][2] for name in names}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(file_keys))
    parser = build_parser()

    def merged(*flags):
        args = parser.parse_args([command, "--scene", "s", "--cameras", "c", "--out", "o",
                                  "--config", str(path), *flags])
        return _merged_config(args, cls, from_dict)

    from_file = merged()
    assert from_file == from_dict(file_keys)  # file keys with no flag are kept
    for name in names:
        tokens, value, _ = _FLAG_CASES[name]
        # the flag sets its own field over the file key and leaves every other field alone
        assert merged(*tokens) == dataclasses.replace(from_file, **{name: value}), name
    flag_options = {
        opt
        for a in parser._subparsers._group_actions[0].choices[command]._actions
        for opt in a.option_strings
        if a.dest in names
    }
    # each field has exactly one flag (a boolean one also has its --no- form)
    assert flag_options == {_FLAG_CASES[n][0][0] for n in names} | (
        {"--no-record-occlusion"} if "record_occlusion" in names else set()
    )


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
    args = ["analyze", "--report", report, "--out", str(tmp_path / "report.txt")]
    if report != "bank":  # the bank report reads no scene
        args += ["--synthetic", "indoor"]
    if report == "tile-sweep":
        args += ["--n", "200"]
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 0
    assert needle in captured.out
    assert needle in (tmp_path / "report.txt").read_text()


def test_analyze_bounds_report(capsys):
    """Pruning the block lists keeps binning's invocations and never adds work."""
    rc = main(["analyze", "--report", "bounds", "--n", "150"])
    out = capsys.readouterr().out
    assert rc == 0
    # outdoor splats are large, so the render keeps 16 px blocks
    assert out.splitlines()[0] == "bounds before after kept (64x64 tiles, 16x16 blocks)"
    rows = {
        name: (int(before), int(after), float(kept))
        for name, before, after, kept in (line.split() for line in out.splitlines()[1:])
    }
    assert set(rows) == {"invocations", "window_px", "block_entries", "block_px"}
    assert rows["invocations"][0] == rows["invocations"][1] > 0
    for before, after, kept in rows.values():
        assert 0 < after <= before
        assert kept == pytest.approx(after / before, abs=1e-4)
    assert rows["block_entries"][1] < rows["block_entries"][0]


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


@pytest.mark.parametrize("lr", ["0", "-1", "nan", "inf"])
def test_train_rejects_lr_not_finite_positive(tmp_path, capsys, lr):
    cam = make_camera(8, 8, focal=8.0)
    _, initial = toy_training_scene(np.random.default_rng(1), cam)
    save_ply(initial, tmp_path / "init.ply")
    save_cameras(tmp_path / "cams.json", [cam], ["target.ppm"])  # never read
    out = tmp_path / "run"
    rc = main([
        "train", "--scene", str(tmp_path / "init.ply"),
        "--cameras", str(tmp_path / "cams.json"), "--out", str(out),
        "--lr", lr,
    ])
    assert rc == 2
    assert f"argument --lr: must be finite and > 0, got {lr}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--n", "0"], "argument --n: must be >= 1, got 0"),
    (["--size", "0"], "argument --size: must be >= 1, got 0"),
    (["--scenes", "0"], "argument --scenes: must be >= 1, got 0"),
    (["--h", "0"], "argument --h: must be finite and > 0, got 0"),
    (["--h", "-0.5"], "argument --h: must be finite and > 0, got -0.5"),
    (["--h", "nan"], "argument --h: must be finite and > 0, got nan"),
])
def test_checkgrad_rejects_out_of_range_numbers(capsys, flags, message):
    rc = main(["checkgrad", *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""  # reported before any scene is checked
    assert message in captured.err


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
        "ok png-filters",
        "ok kernel-exact",
        "ok gradcheck",
        "all self-tests passed",
    ]


def test_selftest_has_no_seed_flag(capsys):
    assert main(["selftest", "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--z-tiles", "0"], "z_tiles must be >= 1"),
    (["--tile", "0", "8"], "tile_size must be positive"),
    (["--eps-t", "-1"], "eps_t must be >= 0"),
    (["--eps-t", "1.5"], "eps_t must be <= 1"),
    (["--threads", "0"], "threads must be >= 1"),
])
def test_render_rejects_bad_config_before_writing(workdir, capsys, flags, message):
    out = workdir / "out"
    rc = main([
        "render", "--scene", str(workdir / "scene.ply"),
        "--cameras", str(workdir / "cams.json"), "--out", str(out), *flags,
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--threads", "0"], "threads must be >= 1"),
    (["--tile", "0", "8"], "tile_size must be positive"),
    (["--eps-t", "-1"], "eps_t must be >= 0"),
    (["--eps-t", "1.5"], "eps_t must be <= 1"),
])
def test_train_rejects_bad_config_before_writing(tmp_path, capsys, flags, message):
    cam = make_camera(8, 8, focal=8.0)
    _, initial = toy_training_scene(np.random.default_rng(1), cam)
    save_ply(initial, tmp_path / "init.ply")
    save_cameras(tmp_path / "cams.json", [cam], ["target.ppm"])  # never read
    out = tmp_path / "run"
    rc = main([
        "train", "--scene", str(tmp_path / "init.ply"),
        "--cameras", str(tmp_path / "cams.json"), "--out", str(out), *flags,
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "train"])
@pytest.mark.parametrize("content,message", [
    ({"bogus": 1}, "unknown {} config keys: ['bogus']"),
    ({"dtype": "float16"}, "dtype must be one of ['float32', 'float64'], got 'float16'"),
    ({"tile_size": 5}, "tile_size must be two integers, got 5"),
    ([1, 2], "config file must hold a JSON object"),
    ("{not json", "config file is not valid JSON: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    ({"background": 5}, "background must be 3 finite non-negative values"),
    ({"background": [1, None, 2]}, "background must be 3 finite non-negative values"),
    ({"eps_t": "x"}, "eps_t must be a number, got 'x'"),
    ({"dtype": ["float32"]}, "dtype must be one of ['float32', 'float64'], got ['float32']"),
], ids=["unknown-key", "dtype", "tile-size", "not-an-object", "not-json", "background-int",
        "background-null", "eps-t-string", "dtype-list"])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, command, content, message):
    """A config file's fault exits 2, as the same fault given as a flag does.
    A string is the file's text as it stands."""
    cam = make_camera(8, 8, focal=8.0)
    _, scene = toy_training_scene(np.random.default_rng(1), cam)
    save_ply(scene, tmp_path / "scene.ply")
    save_cameras(tmp_path / "cams.json", [cam], ["target.ppm"])  # never read
    text = content if isinstance(content, str) else json.dumps(content)
    (tmp_path / "cfg.json").write_text(text)
    out = tmp_path / "out"
    rc = main([
        command, "--scene", str(tmp_path / "scene.ply"), "--cameras", str(tmp_path / "cams.json"),
        "--out", str(out), "--config", str(tmp_path / "cfg.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(command)}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--threads", "0"], "threads must be >= 1"),
    (["--threads", "-2"], "threads must be >= 1"),
    (["--z-tiles", "0"], "z_tiles must be >= 1"),
])
def test_analyze_rejects_bad_config(tmp_path, capsys, flags, message):
    out = tmp_path / "report.txt"
    rc = main(["analyze", "--report", "occlusion", "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("report,fraction", [
    ("hybrid", "0"),
    ("hybrid", "1"),
    ("hybrid", "nan"),
    ("bank", "1.5"),
])
def test_analyze_rejects_fraction_outside_unit_interval(tmp_path, capsys, report, fraction):
    out = tmp_path / "report.txt"
    rc = main(["analyze", "--report", report, "--fraction", fraction, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: hybrid_fraction must be in (0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("report,n", [
    ("tile-sweep", "0"),
    ("bank", "-3"),
    ("hybrid", "0"),
])
def test_analyze_rejects_n_below_one(tmp_path, capsys, report, n):
    out = tmp_path / "report.txt"
    rc = main(["analyze", "--report", report, "--n", n, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"argument --n: must be >= 1, got {n}" in captured.err
    assert not out.exists()


def test_analyze_scene_without_cameras_is_a_usage_error(workdir, capsys):
    rc = main(["analyze", "--report", "tile-sweep", "--scene", str(workdir / "scene.ply")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --scene needs --cameras for the viewpoint\n"


def test_analyze_empty_camera_file_names_it(workdir, capsys):
    cams = workdir / "none.json"
    save_cameras(cams, [])
    rc = main([
        "analyze", "--report", "tile-sweep",
        "--scene", str(workdir / "scene.ply"), "--cameras", str(cams),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: camera file {cams} holds no cameras\n"


def test_train_rejects_non_string_image_path(workdir, capsys):
    cams = json.loads((workdir / "cams.json").read_text())
    cams[0]["image_path"] = 5
    (workdir / "cams.json").write_text(json.dumps(cams))
    out = workdir / "run"
    rc = main([
        "train", "--scene", str(workdir / "scene.ply"),
        "--cameras", str(workdir / "cams.json"), "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: camera 0: image_path must be a string\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--background", "-1", "0", "0"], "background must be 3 finite non-negative values"),
    (["--background", "nan", "0", "0"], "background must be 3 finite non-negative values"),
])
def test_checkgrad_rejects_bad_config_before_any_scene(capsys, flags, message):
    rc = main(["checkgrad", *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_analyze_n_sets_the_group_count(capsys):
    assert main(["analyze", "--report", "bank", "--n", "5"]) == 0
    assert "random_groups 5\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags,message", [
    (["--report", "bank", "--scene", "/nonexistent.ply", "--n", "3"],
     "--scene does not apply to --report bank, which reads no scene"),
    (["--report", "bank", "--synthetic", "indoor"],
     "--synthetic does not apply to --report bank, which reads no scene"),
    (["--report", "tile-sweep", "--cameras", "/nonexistent.json"], "--cameras needs --scene"),
    (["--report", "occlusion", "--cameras", "/nonexistent.json", "--synthetic", "indoor"],
     "--cameras needs --scene"),
])
def test_analyze_rejects_scene_flags_it_would_ignore(tmp_path, capsys, flags, message):
    out = tmp_path / "report.txt"
    rc = main(["analyze", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_analyze_rejects_synthetic_with_a_file_scene(workdir, capsys):
    rc = main([
        "analyze", "--report", "tile-sweep", "--synthetic", "outdoor",
        "--scene", str(workdir / "scene.ply"), "--cameras", str(workdir / "cams.json"),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --synthetic does not apply with --scene\n"
