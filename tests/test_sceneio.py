"""PLY scenes, camera JSON, config files, and PPM/PNG images."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tilesplat.backward import TrainConfig
from tilesplat.forward import RenderConfig, render
from tilesplat.model import GaussianScene, ImageRGB
from tilesplat.sceneio import (
    PlyError,
    image_from_png_bytes,
    image_to_png_bytes,
    image_to_ppm_bytes,
    load_cameras,
    load_image,
    load_ply,
    load_ppm,
    psnr,
    quantize_u8,
    render_config_from_dict,
    save_cameras,
    save_image,
    save_ply,
    save_ppm,
    scene_from_ply_bytes,
    scene_to_ply_bytes,
    train_config_from_dict,
)
from tilesplat.synth import make_camera, random_scene


def one_vertex_scene():
    return GaussianScene(
        means=np.array([[1.0, 2.0, 3.0]]),
        log_scales=np.array([[0.1, 0.2, 0.3]]),
        rotations=np.array([[1.0, 0.0, 0.0, 0.0]]),
        opacity_logits=np.array([0.5]),
        sh=np.array([[[0.25, 0.5, 0.75]]]),
    )


GOLDEN_HEADER = (
    b"ply\n"
    b"format binary_little_endian 1.0\n"
    b"element vertex 1\n"
    b"property float x\n"
    b"property float y\n"
    b"property float z\n"
    b"property float f_dc_0\n"
    b"property float f_dc_1\n"
    b"property float f_dc_2\n"
    b"property float opacity\n"
    b"property float scale_0\n"
    b"property float scale_1\n"
    b"property float scale_2\n"
    b"property float rot_0\n"
    b"property float rot_1\n"
    b"property float rot_2\n"
    b"property float rot_3\n"
    b"end_header\n"
)


def golden_payload():
    return struct.pack(
        "<14f",
        1.0, 2.0, 3.0,          # position
        0.25, 0.5, 0.75,        # dc color
        0.5,                    # opacity logit
        0.1, 0.2, 0.3,          # log scales
        1.0, 0.0, 0.0, 0.0,     # quaternion, w first
    )


def test_golden_ply_bytes():
    assert scene_to_ply_bytes(one_vertex_scene()) == GOLDEN_HEADER + golden_payload()


def test_golden_ply_parse():
    scene = scene_from_ply_bytes(GOLDEN_HEADER + golden_payload())
    want = one_vertex_scene()
    for got, exp in (
        (scene.means, want.means),
        (scene.log_scales, want.log_scales),
        (scene.rotations, want.rotations),
        (scene.opacity_logits, want.opacity_logits),
        (scene.sh, want.sh),
    ):
        np.testing.assert_array_equal(got, exp.astype(np.float32))
    assert scene.degree == 0


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_ply_roundtrip_all_degrees(degree):
    rng = np.random.default_rng(degree)
    cam = make_camera(32, 32)
    for trial in range(5):
        scene = random_scene(rng, int(rng.integers(1, 40)), cam, degree=degree)
        blob = scene_to_ply_bytes(scene)
        back = scene_from_ply_bytes(blob)
        assert back.degree == degree
        # a second save is byte-stable
        assert scene_to_ply_bytes(back) == blob
        np.testing.assert_array_equal(back.means, scene.means.astype(np.float32))
        np.testing.assert_array_equal(back.sh, scene.sh.astype(np.float32))


def test_ply_rest_property_order_is_channel_major():
    scene = one_vertex_scene()
    scene.sh = np.zeros((1, 4, 3))
    scene.sh[0, 0] = [0.1, 0.2, 0.3]
    scene.sh[0, 1:] = np.arange(9).reshape(3, 3)  # rest[j, channel]
    blob = scene_to_ply_bytes(scene)
    rec = np.frombuffer(blob.split(b"end_header\n", 1)[1], dtype="<f4")
    # layout: xyz, dc, then f_rest grouped by channel (all R, all G, all B)
    rest = rec[6:15]
    np.testing.assert_array_equal(rest, [0, 3, 6, 1, 4, 7, 2, 5, 8])
    back = scene_from_ply_bytes(blob)
    np.testing.assert_array_equal(back.sh, scene.sh.astype(np.float32))


def test_ply_empty_scene_roundtrip():
    scene = GaussianScene(
        means=np.zeros((0, 3)),
        log_scales=np.zeros((0, 3)),
        rotations=np.zeros((0, 4)),
        opacity_logits=np.zeros(0),
        sh=np.zeros((0, 1, 3)),
    )
    back = scene_from_ply_bytes(scene_to_ply_bytes(scene))
    assert back.n == 0 and back.degree == 0


# float32 values a scene may hold: -0.0, subnormals and the largest finite
# magnitudes next to whatever hypothesis draws
PLY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.1754942e-38, 1e30, -3.4028235e38]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(0, 5), degree=st.integers(0, 3))
def test_ply_bytes_roundtrip_property(data, n, degree):
    """bytes -> scene -> bytes is byte-exact, and every float keeps its bits."""
    shapes = {
        "means": (n, 3),
        "log_scales": (n, 3),
        "rotations": (n, 4),
        "opacity_logits": (n,),
        "sh": (n, (degree + 1) ** 2, 3),
    }
    values = {
        key: data.draw(arrays(np.float32, shape, elements=PLY_FLOAT))
        for key, shape in shapes.items()
    }
    blob = scene_to_ply_bytes(GaussianScene(**values))
    back = scene_from_ply_bytes(blob)
    assert back.n == n and back.degree == degree
    assert scene_to_ply_bytes(back) == blob
    for key, want in values.items():
        got = getattr(back, key).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), key


def test_ply_truncation_message():
    header = GOLDEN_HEADER.replace(b"element vertex 1", b"element vertex 10")
    blob = header + golden_payload() * 9
    with pytest.raises(PlyError, match=r"truncated payload: expected 560 bytes"):
        scene_from_ply_bytes(blob)


def test_ply_rejects_trailing_bytes():
    with pytest.raises(PlyError, match="trailing"):
        scene_from_ply_bytes(GOLDEN_HEADER + golden_payload() + b"\x00")


def test_ply_rejects_double_precision():
    header = GOLDEN_HEADER.replace(b"property float x", b"property double x")
    with pytest.raises(PlyError):
        scene_from_ply_bytes(header + golden_payload())


def test_ply_rejects_missing_end_header():
    with pytest.raises(PlyError, match="end_header"):
        scene_from_ply_bytes(b"ply\nformat binary_little_endian 1.0\n")


def test_ply_rejects_wrong_property_order():
    header = GOLDEN_HEADER.replace(
        b"property float x\nproperty float y\n",
        b"property float y\nproperty float x\n",
    )
    with pytest.raises(PlyError):
        scene_from_ply_bytes(header + golden_payload())


def test_ply_rejects_odd_rest_count():
    # 3 f_rest properties is not a complete band set (needs 0/9/24/45)
    extra = b"".join(b"property float f_rest_%d\n" % i for i in range(3))
    header = GOLDEN_HEADER.replace(b"property float opacity\n",
                                   extra + b"property float opacity\n")
    with pytest.raises(PlyError, match="property count"):
        scene_from_ply_bytes(header + golden_payload() + b"\x00" * 12)


def test_ply_rejects_negative_count():
    header = GOLDEN_HEADER.replace(b"element vertex 1", b"element vertex -1")
    with pytest.raises(PlyError, match="negative"):
        scene_from_ply_bytes(header)


@pytest.mark.parametrize(
    "line, message",
    [(b"element", "element needs a name and a count: 'element'"),
     (b"element vertex", "element needs a name and a count: 'element vertex'"),
     (b"element vertex x", "vertex count is not an integer: 'element vertex x'"),
     (b"element vertex 1.5", "vertex count is not an integer: 'element vertex 1.5'"),
     (b"element vertex 1 2", "element needs a name and a count: 'element vertex 1 2'")],
)
def test_ply_bad_element_line_names_it(line, message):
    header = GOLDEN_HEADER.replace(b"element vertex 1", line)
    with pytest.raises(PlyError, match=f"^{message}$"):
        scene_from_ply_bytes(header + golden_payload())


@pytest.mark.parametrize(
    "prop, field",
    [("x", "means"), ("f_dc_1", "sh"), ("opacity", "opacity_logits"),
     ("scale_2", "log_scales"), ("rot_0", "rotations")],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_ply_rejects_non_finite(prop, field, value):
    payload = bytearray(golden_payload())
    names = GOLDEN_HEADER.decode().split("\n")[3:-2]
    offset = 4 * [line.split()[-1] for line in names].index(prop)
    struct.pack_into("<f", payload, offset, value)
    with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
        scene_from_ply_bytes(GOLDEN_HEADER + bytes(payload))


def test_ply_allows_comment_lines():
    header = GOLDEN_HEADER.replace(
        b"format binary_little_endian 1.0\n",
        b"format binary_little_endian 1.0\ncomment exported scene\n",
    )
    scene = scene_from_ply_bytes(header + golden_payload())
    assert scene.n == 1


def test_ply_file_roundtrip(tmp_path):
    path = tmp_path / "scene.ply"
    scene = one_vertex_scene()
    save_ply(scene, path)
    back = load_ply(path)
    np.testing.assert_array_equal(back.means, scene.means.astype(np.float32))


def test_cameras_json_roundtrip(tmp_path):
    cam = make_camera(64, 48, focal=50.0)
    path = tmp_path / "cams.json"
    save_cameras(path, [cam, cam], ["img_000.ppm", None])
    loaded = load_cameras(path)
    assert len(loaded) == 2
    got, image_path = loaded[0]
    assert image_path == "img_000.ppm"
    assert loaded[1][1] is None
    assert (got.width, got.height, got.fx, got.fy) == (64, 48, 50.0, 50.0)
    np.testing.assert_array_equal(got.world_to_cam, cam.world_to_cam)
    raw = json.loads(path.read_text())
    assert len(raw[0]["world_to_cam"]) == 16


@pytest.mark.parametrize("key", ["fx", "width", "world_to_cam"])
def test_cameras_missing_field_names_camera_and_field(tmp_path, key):
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(16, 16)] * 2)
    entries = json.loads(path.read_text())
    del entries[1][key]
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match=f"^camera 1: missing field '{key}'$"):
        load_cameras(path)


@pytest.mark.parametrize("key,value", [("width", 16.9), ("height", "16"),
                                       ("height", None), ("width", True),
                                       ("height", False)])
def test_cameras_reject_non_integral_size(tmp_path, key, value):
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(16, 16)])
    entries = json.loads(path.read_text())
    entries[0][key] = value
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match=f"^camera 0: {key} must be an integer"):
        load_cameras(path)


def test_cameras_wrong_matrix_size_names_camera(tmp_path):
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(16, 16)] * 2)
    entries = json.loads(path.read_text())
    entries[1]["world_to_cam"] = entries[1]["world_to_cam"][:15]
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match="^camera 1: world_to_cam must hold 16"):
        load_cameras(path)


@pytest.mark.parametrize("key,value", [("fx", "abc"), ("fy", None), ("cx", [1.0]),
                                       ("cy", {"v": 1}), ("near", "near"), ("fx", True),
                                       ("cx", "8"), ("near", False)])
def test_cameras_non_numeric_field_names_camera_and_field(tmp_path, key, value):
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(16, 16)] * 2)
    entries = json.loads(path.read_text())
    entries[1][key] = value
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match=f"^camera 1: {key} must be a number, got "):
        load_cameras(path)


def test_cameras_non_numeric_matrix_names_camera(tmp_path):
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(16, 16)])
    entries = json.loads(path.read_text())
    entries[0]["world_to_cam"][3] = "abc"
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match="^camera 0: world_to_cam must hold 16 numbers"):
        load_cameras(path)


@pytest.mark.parametrize("value", ["1", True, [1.0], None])
def test_cameras_matrix_rejects_strings_and_bools(tmp_path, value):
    """A numeric string or a bool is not a number, though NumPy would convert it."""
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(16, 16)])
    entries = json.loads(path.read_text())
    entries[0]["world_to_cam"][0] = value
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match="^camera 0: world_to_cam must hold 16 numbers"):
        load_cameras(path)


def test_cameras_accept_integral_float_size(tmp_path):
    path = tmp_path / "cams.json"
    save_cameras(path, [make_camera(64, 48)])
    entries = json.loads(path.read_text())
    entries[0]["width"], entries[0]["height"] = 64.0, 48.0
    path.write_text(json.dumps(entries))
    cam = load_cameras(path)[0][0]
    assert (cam.width, cam.height) == (64, 48)
    assert type(cam.width) is int and type(cam.height) is int


def test_render_config_loader():
    cfg = render_config_from_dict({
        "tile_size": [16, 32],
        "z_tiles": 4,
        "background": [0.1, 0.2, 0.3],
        "dtype": "float64",
        "hybrid": "fixed_fraction",
        "hybrid_fraction": 0.25,
    })
    assert cfg.tile_size == (16, 32)
    assert cfg.z_tiles == 4
    assert cfg.dtype == np.float64
    assert cfg.background == (0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="unknown"):
        render_config_from_dict({"tile": 16})


def test_config_file_keeps_fractional_tile_size_for_validation():
    # a fractional tile side in a config file is an error, not truncated
    cfg = render_config_from_dict({"tile_size": [16.5, 16]})
    with pytest.raises(ValueError, match="tile_size"):
        cfg.validate()


def test_render_config_rejects_seed():
    # the renderer draws no random numbers, so a seed key is an error
    with pytest.raises(ValueError, match=r"unknown render config keys: \['seed'\]"):
        render_config_from_dict({"z_tiles": 2, "seed": 3})


def test_train_config_loader():
    tcfg = train_config_from_dict({"loss": "l1", "recip_mode": "approx",
                                   "tile_size": [32, 64]})
    assert tcfg.loss == "l1" and tcfg.recip_mode == "approx"
    assert tcfg.tile_size == (32, 64)
    for key in ("z_tiles", "offload_batch"):
        with pytest.raises(ValueError, match=rf"unknown train config keys: \['{key}'\]"):
            train_config_from_dict({key: 2})


def test_config_keys_are_the_dataclass_fields():
    # every field is settable from a config file, and nothing else is
    for build, cls in ((render_config_from_dict, RenderConfig),
                       (train_config_from_dict, TrainConfig)):
        fields = {f.name: getattr(cls(), f.name) for f in dataclasses.fields(cls)}
        fields["dtype"] = "float64"
        assert build(fields).dtype == np.float64


def test_quantize_u8():
    x = np.array([0.0, 0.5, 1.0, 1.5, -0.2, 127.4 / 255.0])
    np.testing.assert_array_equal(quantize_u8(x), [0, 128, 255, 255, 0, 127])


def test_ppm_golden_bytes():
    img = ImageRGB(np.array([[[1.0, 0.0, 0.0]]], dtype=np.float32))
    assert image_to_ppm_bytes(img) == b"P6\n1 1\n255\n\xff\x00\x00"
    half = ImageRGB(np.full((1, 1, 3), 0.5, dtype=np.float32))
    assert image_to_ppm_bytes(half)[-3:] == b"\x80\x80\x80"


def test_ppm_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(0)
    img = ImageRGB(rng.random((7, 5, 3)).astype(np.float32))
    path = tmp_path / "img.ppm"
    save_ppm(img, path)
    back = load_ppm(path)
    np.testing.assert_array_equal(
        quantize_u8(back.data), quantize_u8(img.data)
    )
    path.write_bytes(b"P6\n2 2\n255\n\x00" * 1)
    with pytest.raises(ValueError, match="truncated"):
        load_ppm(path)
    path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        load_ppm(path)


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
    img = load_ppm(path)
    assert img.data.shape == (1, 2, 3)


def test_png_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = ImageRGB(rng.random((6, 4, 3)).astype(np.float32))
    path = tmp_path / "img.png"
    save_image(img, path)
    back = load_image(path)
    np.testing.assert_array_equal(quantize_u8(back.data), quantize_u8(img.data))


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_chunk(tag, body):
    return struct.pack(">I", len(body)) + tag + body + struct.pack(
        ">I", zlib.crc32(tag + body)
    )


def read_chunks(data):
    """(tag, body, crc_ok) per chunk, after the signature."""
    pos, out = 8, []
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        out.append((tag, body, zlib.crc32(tag + body) == crc))
        pos += 12 + length
    return out


def paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def filter_scanlines(pixels, kinds):
    """Scalar reference encoder: filter each row byte by byte, as in the spec."""
    h, w, bpp = pixels.shape
    lines = pixels.reshape(h, w * bpp).astype(int).tolist()
    out = bytearray()
    for y, kind in enumerate(kinds):
        cur = lines[y]
        prev = lines[y - 1] if y else [0] * len(cur)
        out.append(kind)
        for i, x in enumerate(cur):
            a = cur[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            pred = [0, a, b, (a + b) // 2, paeth(a, b, c)][kind]
            out.append((x - pred) % 256)
    return bytes(out)


def build_png(w, h, scanlines, ctype=2, depth=8, interlace=0, split=False,
              extra=b"", end=True):
    ihdr = struct.pack(">IIBBBBB", w, h, depth, ctype, 0, 0, interlace)
    z = zlib.compress(scanlines)
    if split:  # two IDAT chunks with an ancillary chunk between them
        half = len(z) // 2
        idat = (png_chunk(b"IDAT", z[:half]) + png_chunk(b"tEXt", b"k\x00v")
                + png_chunk(b"IDAT", z[half:]))
    else:
        idat = png_chunk(b"IDAT", z)
    tail = png_chunk(b"IEND", b"") if end else b""
    return PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + extra + idat + tail


@pytest.mark.parametrize("ctype,bpp", [(2, 3), (6, 4)])
def test_png_decodes_all_filters(ctype, bpp):
    rng = np.random.default_rng(ctype)
    # each filter on the first row too, then more Paeth rows over few
    # distinct values, where its three predictors tie often
    kinds = [4, 3, 2, 1, 0, 1, 2, 3, 4, 4, 0, 4, 4]
    pixels = rng.integers(0, 256, size=(len(kinds), 16, bpp), dtype=np.uint8)
    pixels[8:] = rng.integers(0, 8, size=pixels[8:].shape)
    blob = build_png(16, len(kinds), filter_scanlines(pixels, kinds),
                     ctype=ctype, split=True)
    assert [t for t, _, _ in read_chunks(blob)].count(b"IDAT") == 2
    img = image_from_png_bytes(blob)
    assert img.data.shape == (len(kinds), 16, 3)
    np.testing.assert_array_equal(quantize_u8(img.data), pixels[:, :, :3])


def test_png_writer_structure():
    rng = np.random.default_rng(3)
    img = ImageRGB(rng.random((3, 5, 3)))
    blob = image_to_png_bytes(img)
    assert blob == image_to_png_bytes(img)  # deterministic
    assert blob[:8] == PNG_SIGNATURE
    chunks = read_chunks(blob)
    assert [t for t, _, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    assert all(ok for _, _, ok in chunks)
    assert struct.unpack(">IIBBBBB", chunks[0][1]) == (5, 3, 8, 2, 0, 0, 0)
    rows = quantize_u8(img.data).reshape(3, 15)
    want = b"".join(b"\x00" + row.tobytes() for row in rows)
    assert zlib.decompress(chunks[1][1]) == want
    assert chunks[2][1] == b""


def _valid_scanlines():
    return b"".join(b"\x00" + bytes([10, 20, 30] * 2) for _ in range(2))


IHDR_2X2 = png_chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0))


def _flip_idat_byte(blob):
    i = blob.index(b"IDAT") + 6
    return blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :]


@pytest.mark.parametrize("blob,match", [
    (b"\x89PNX" + build_png(2, 2, _valid_scanlines())[5:], "signature"),
    (_flip_idat_byte(build_png(2, 2, _valid_scanlines())), "CRC mismatch in IDAT"),
    (build_png(2, 2, _valid_scanlines())[:-6], "truncated PNG"),
    (build_png(2, 2, _valid_scanlines(), end=False), "IEND"),
    (build_png(2, 2, _valid_scanlines(), depth=16), "bit depth 16"),
    (build_png(2, 2, _valid_scanlines(), ctype=3), "colour type 3"),
    (build_png(2, 2, _valid_scanlines(), ctype=0), "colour type 0"),
    (build_png(2, 2, _valid_scanlines(), interlace=1), "interlace method 1"),
    (build_png(2, 2, _valid_scanlines(), extra=png_chunk(b"ABCD", b"")),
     "critical chunk ABCD"),
    (build_png(2, 2, b"\x05" + _valid_scanlines()[1:]), "filter type 5"),
    (build_png(2, 2, _valid_scanlines()[:-1]), "truncated IDAT"),
    (build_png(2, 2, _valid_scanlines() + b"\x00"), "more than the expected"),
    (PNG_SIGNATURE + png_chunk(b"IDAT", b""), "IHDR must be the first"),
    (PNG_SIGNATURE + IHDR_2X2 + png_chunk(b"IEND", b""), "no IDAT"),
    (PNG_SIGNATURE + IHDR_2X2 + png_chunk(b"IDAT", b"\x78\x9c\xff\xff\xff")
     + png_chunk(b"IEND", b""), "corrupt IDAT"),
])
def test_png_rejects_unsupported(blob, match):
    with pytest.raises(ValueError, match=match):
        image_from_png_bytes(blob)


def test_save_image_suffix_dispatch(tmp_path):
    img = ImageRGB(np.zeros((2, 2, 3), dtype=np.float32))
    save_image(img, tmp_path / "a.ppm")
    assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6")
    with pytest.raises(ValueError, match="suffix"):
        save_image(img, tmp_path / "a.bmp")


def test_psnr():
    a = ImageRGB(np.zeros((2, 2, 3), dtype=np.float32))
    assert psnr(a, a) == np.inf
    b = ImageRGB(np.full((2, 2, 3), 0.1, dtype=np.float32))
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-4)


def test_render_stats_stable_through_ply(tmp_path):
    # saving and reloading a scene must not change what renders
    rng = np.random.default_rng(2)
    cam = make_camera(32, 32)
    scene = random_scene(rng, 25, cam)
    f32 = GaussianScene(
        means=scene.means.astype(np.float32).astype(np.float64),
        log_scales=scene.log_scales.astype(np.float32).astype(np.float64),
        rotations=scene.rotations.astype(np.float32).astype(np.float64),
        opacity_logits=scene.opacity_logits.astype(np.float32).astype(np.float64),
        sh=scene.sh.astype(np.float32).astype(np.float64),
    )
    path = tmp_path / "s.ply"
    save_ply(scene, path)
    back = load_ply(path)
    a = render(f32, cam)
    b = render(back, cam)
    np.testing.assert_array_equal(a.image.data, b.image.data)
