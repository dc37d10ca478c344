"""Scene, camera, and image file formats.

Scenes persist as binary little-endian PLY with float32 properties in a
fixed order: position, DC color coefficients, higher-order coefficients
(channel-major), opacity logit, log scales, quaternion. Cameras travel
as JSON. Rendered images write as binary PPM (P6) by default, or as
PNG (8-bit RGB, non-interlaced). The PNG reader also takes 8-bit RGBA,
dropping alpha, and undoes all five row filters, mixed freely between
rows, in one NumPy pass over the image's anti-diagonals: a pixel's
prediction reads only its left, upper and upper-left neighbours, which
lie on the two diagonals before its own.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .backward import TrainConfig
from .forward import RenderConfig
from .model import Camera, GaussianScene, ImageRGB

_REST_COUNTS = {0: 0, 9: 1, 24: 2, 45: 3}  # f_rest count -> SH degree


class PlyError(ValueError):
    """Malformed or truncated PLY input."""


def _property_names(rest: int) -> list[str]:
    names = ["x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2"]
    names += [f"f_rest_{i}" for i in range(rest)]
    names += ["opacity", "scale_0", "scale_1", "scale_2"]
    names += [f"rot_{i}" for i in range(4)]
    return names


def _record_dtype(names: list[str]) -> np.dtype:
    return np.dtype([(name, "<f4") for name in names])


def scene_to_ply_bytes(scene: GaussianScene) -> bytes:
    n = scene.n
    m = scene.sh_coeff_count - 1  # higher-order coefficients per channel
    names = _property_names(3 * m)
    rec = np.zeros(n, dtype=_record_dtype(names))
    rec["x"], rec["y"], rec["z"] = scene.means.T
    for ch in range(3):
        rec[f"f_dc_{ch}"] = scene.sh[:, 0, ch]
    for ch in range(3):
        for j in range(m):
            rec[f"f_rest_{ch * m + j}"] = scene.sh[:, j + 1, ch]
    rec["opacity"] = scene.opacity_logits
    for i in range(3):
        rec[f"scale_{i}"] = scene.log_scales[:, i]
    for i in range(4):
        rec[f"rot_{i}"] = scene.rotations[:, i]

    header_lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header_lines += [f"property float {name}" for name in names]
    header_lines.append("end_header")
    header = ("\n".join(header_lines) + "\n").encode("ascii")
    return header + rec.tobytes()


def save_ply(scene: GaussianScene, path: str | Path) -> None:
    Path(path).write_bytes(scene_to_ply_bytes(scene))


def scene_from_ply_bytes(data: bytes) -> GaussianScene:
    end_tag = b"end_header\n"
    end = data.find(end_tag)
    if end < 0:
        raise PlyError("missing end_header")
    header_len = end + len(end_tag)
    try:
        lines = data[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise PlyError(f"non-ascii header: {exc}") from None
    if not lines or lines[0].strip() != "ply":
        raise PlyError("not a PLY file (missing 'ply' magic)")

    fmt = None
    count = None
    props: list[str] = []
    for line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1:]
        elif parts[0] == "element":
            if len(parts) != 3:
                raise PlyError(f"element needs a name and a count: {line.strip()!r}")
            if parts[1] != "vertex" or count is not None:
                raise PlyError(f"unsupported element {parts[1]!r}")
            try:
                count = int(parts[2])
            except ValueError:
                raise PlyError(
                    f"vertex count is not an integer: {line.strip()!r}"
                ) from None
        elif parts[0] == "property":
            if len(parts) != 3 or parts[1] != "float":
                raise PlyError(f"unsupported property {line.strip()!r}")
            props.append(parts[2])
        else:
            raise PlyError(f"unsupported header line {line.strip()!r}")
    if fmt != ["binary_little_endian", "1.0"]:
        raise PlyError(f"unsupported format {fmt}")
    if count is None:
        raise PlyError("missing vertex element")
    if count < 0:
        raise PlyError(f"negative vertex count {count}")

    rest = len(props) - 14
    if rest not in _REST_COUNTS:
        raise PlyError(f"unsupported property count {len(props)}")
    expected = _property_names(rest)
    if props != expected:
        raise PlyError("property names or order do not match the scene layout")

    dtype = _record_dtype(expected)
    need = count * dtype.itemsize
    payload = data[header_len:]
    if len(payload) < need:
        raise PlyError(
            f"truncated payload: expected {need} bytes after the header, "
            f"found {len(payload)} (file ends at byte {header_len + len(payload)})"
        )
    if len(payload) > need:
        raise PlyError(f"{len(payload) - need} trailing bytes after vertex data")
    rec = np.frombuffer(payload, dtype=dtype)

    m = rest // 3
    sh = np.empty((count, m + 1, 3), dtype=np.float64)
    for ch in range(3):
        sh[:, 0, ch] = rec[f"f_dc_{ch}"]
    for ch in range(3):
        for j in range(m):
            sh[:, j + 1, ch] = rec[f"f_rest_{ch * m + j}"]
    return GaussianScene(
        means=np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64),
        log_scales=np.stack([rec[f"scale_{i}"] for i in range(3)], axis=1).astype(
            np.float64
        ),
        rotations=np.stack([rec[f"rot_{i}"] for i in range(4)], axis=1).astype(
            np.float64
        ),
        opacity_logits=rec["opacity"].astype(np.float64),
        sh=sh,
    )


def load_ply(path: str | Path) -> GaussianScene:
    return scene_from_ply_bytes(Path(path).read_bytes())


def save_cameras(
    path: str | Path,
    cameras: list[Camera],
    image_paths: list[str | None] | None = None,
) -> None:
    entries = []
    for i, cam in enumerate(cameras):
        entry = {
            "id": i,
            "width": cam.width,
            "height": cam.height,
            "fx": cam.fx,
            "fy": cam.fy,
            "cx": cam.cx,
            "cy": cam.cy,
            "near": cam.near,
            "world_to_cam": [float(v) for v in cam.world_to_cam.reshape(-1)],
        }
        if image_paths is not None and image_paths[i] is not None:
            entry["image_path"] = image_paths[i]
        entries.append(entry)
    Path(path).write_text(json.dumps(entries, indent=2) + "\n")


_CAMERA_KEYS = ("width", "height", "fx", "fy", "cx", "cy", "world_to_cam")


def _is_number(v) -> bool:
    """A JSON number: an int or a float, never a bool or a string."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_cameras(path: str | Path) -> list[tuple[Camera, str | None]]:
    """Camera list plus optional per-view target image path."""
    entries = json.loads(Path(path).read_text())
    if not isinstance(entries, list):
        raise ValueError("camera file must contain a JSON list")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"camera {i}: entry must be a JSON object")
        for key in _CAMERA_KEYS:
            if key not in entry:
                raise ValueError(f"camera {i}: missing field {key!r}")
        for key in ("width", "height"):
            v = entry[key]
            if not _is_number(v) or isinstance(v, float) and not v.is_integer():
                raise ValueError(f"camera {i}: {key} must be an integer, got {v!r}")
        mat = np.asarray(entry["world_to_cam"], dtype=object).reshape(-1)
        if len(mat) != 16 or not all(map(_is_number, mat)):
            raise ValueError(f"camera {i}: world_to_cam must hold 16 numbers (row-major 4x4)")
        num = {}
        for key in ("fx", "fy", "cx", "cy", "near"):
            v = entry.get(key, 0.2)  # only near may be missing
            if not _is_number(v):
                raise ValueError(f"camera {i}: {key} must be a number, got {v!r}")
            num[key] = float(v)
        cam = Camera(
            world_to_cam=mat.astype(np.float64).reshape(4, 4),
            width=int(entry["width"]),
            height=int(entry["height"]),
            **num,
        )
        image_path = entry.get("image_path")
        if image_path is not None and not isinstance(image_path, str):
            raise ValueError(f"camera {i}: image_path must be a string")
        out.append((cam, image_path))
    return out


_DTYPES = {"float32": np.float32, "float64": np.float64}


def _config_from_dict(cls, kind: str, d: dict):
    """Build a config dataclass, accepting exactly its field names as keys."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {kind} config keys: {sorted(unknown)}")
    d = dict(d)
    if isinstance(d.get("tile_size"), list):
        d["tile_size"] = tuple(d["tile_size"])  # validation rejects any other value
    if isinstance(d.get("background"), list):  # validation rejects any other value
        d["background"] = tuple(float(v) if _is_number(v) else v for v in d["background"])
    if "dtype" in d:
        name = d["dtype"]
        if not isinstance(name, str) or name not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {name!r}")
        d["dtype"] = _DTYPES[name]
    return cls(**d)


def render_config_from_dict(d: dict) -> RenderConfig:
    return _config_from_dict(RenderConfig, "render", d)


def train_config_from_dict(d: dict) -> TrainConfig:
    return _config_from_dict(TrainConfig, "train", d)


def quantize_u8(data: np.ndarray) -> np.ndarray:
    """Linear [0, 1] floats to uint8 with round-half-up (0.5 -> 128)."""
    clipped = np.clip(np.asarray(data, dtype=np.float64), 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def image_to_ppm_bytes(img: ImageRGB) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + quantize_u8(img.data).tobytes()


def save_ppm(img: ImageRGB, path: str | Path) -> None:
    Path(path).write_bytes(image_to_ppm_bytes(img))


def load_ppm(path: str | Path) -> ImageRGB:
    data = Path(path).read_bytes()
    # header: magic, width, height, maxval, then a single whitespace byte
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise ValueError(f"not a binary PPM: magic {fields[0]!r}")
    w, h, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    need = w * h * 3
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise ValueError(f"truncated PPM: expected {need} pixel bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return ImageRGB(pixels.astype(np.float64) / 255.0)


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_ZLIB_LEVEL = 6  # fixed so that output bytes are deterministic
_PNG_CHANNELS = {2: 3, 6: 4}  # colour type (RGB, RGBA) -> bytes per pixel
# the neighbours (a, b, c) that filter types None, Sub, Up, Average and Paeth read
_PNG_READS = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)], dtype=np.int16)


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(tag + body)
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)


def image_to_png_bytes(img: ImageRGB) -> bytes:
    """8-bit RGB, non-interlaced, filter 0 on every row, one IDAT chunk."""
    pixels = quantize_u8(img.data)
    h, w = pixels.shape[:2]
    if w == 0 or h == 0:
        raise ValueError(f"PNG needs a non-empty image, got {w}x{h}")
    rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)
    rows[:, 1:] = pixels.reshape(h, 3 * w)
    return _png_from_scanlines(w, h, rows.tobytes())


def _png_from_scanlines(w: int, h: int, scanlines: bytes) -> bytes:
    """An 8-bit RGB PNG of already filtered scanlines, in one IDAT chunk."""
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = zlib.compress(scanlines, _PNG_ZLIB_LEVEL)
    return (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def _png_unfilter(rows: np.ndarray, w: int, bpp: int) -> np.ndarray:
    """The (h, w, bpp) int16 pixels of an (h, 1 + w * bpp) uint8 scanline array.

    Pixel (y, x) is predicted from its left (a), upper (b) and upper-left
    (c) neighbours only, so each anti-diagonal y + x = d is rebuilt at once
    from diagonals d - 1 and d - 2: in a buffer of rows of w + 1 pixels,
    with a zero row above and a zero column to the left, a diagonal and its
    neighbour sets are views with a stride of w pixels.  None (0, 0, 0),
    Sub (a, 0, 0) and Up (0, b, 0) are Paeth of the neighbours with those
    the filter ignores zeroed; Average rows take (a + b) >> 1 instead.
    """
    h = rows.shape[0]
    kind = rows[:, 0]
    bad = np.flatnonzero(kind > 4)
    if bad.size:
        raise ValueError(f"row {bad[0]}: unknown filter type {kind[bad[0]]}")
    buf = np.zeros((h + 1, w + 1, bpp), dtype=np.int16)
    buf[1:, 1:] = rows[:, 1:].reshape(h, w, bpp)
    px = buf.reshape(-1, bpp)
    # 0xFF where the row's filter reads a, b or c, else 0; reads wrap sums mod 256
    ma, mb, mc = 0xFF * _PNG_READS[kind].T[:, :, None]
    average = (kind == 3)[:, None]
    for d in range(h + w - 1):
        y0 = max(0, d - w + 1)
        rs = slice(y0, min(d, h - 1) + 1)
        s = (y0 + 1) * w + d + 2  # pixel (y0, d - y0) in the padded buffer
        e = s + (rs.stop - y0) * w
        a = px[s - 1 : e - 1 : w] & ma[rs]
        b = px[s - w - 1 : e - w - 1 : w] & mb[rs]
        c = px[s - w - 2 : e - w - 2 : w] & mc[rs]
        da, db = a - c, b - c
        pa, pb, pc = np.abs(db), np.abs(da), np.abs(da + db)
        pred = np.where(pa <= np.minimum(pb, pc), a, np.where(pb <= pc, b, c))
        pred = np.where(average[rs], (a + b) >> 1, pred)
        cur = px[s:e:w]
        cur += pred
    buf &= 0xFF
    return buf[1:, 1:]


def image_from_png_bytes(data: bytes) -> ImageRGB:
    """Decode 8-bit RGB or RGBA (alpha dropped), non-interlaced PNG."""
    if data[:8] != _PNG_SIGNATURE:
        raise ValueError("not a PNG: bad signature")
    pos = 8
    header = None
    idat: list[bytes] = []
    while True:
        if pos + 8 > len(data):
            raise ValueError("truncated PNG: missing IEND chunk")
        length, tag = struct.unpack_from(">I4s", data, pos)
        name = tag.decode("latin-1")
        end = pos + 12 + length
        if end > len(data):
            raise ValueError(f"truncated PNG: {name} chunk runs past end of file")
        body = data[pos + 8 : end - 4]
        if zlib.crc32(tag + body) != struct.unpack_from(">I", data, end - 4)[0]:
            raise ValueError(f"CRC mismatch in {name} chunk")
        pos = end
        if header is None:
            if tag != b"IHDR":
                raise ValueError(f"IHDR must be the first chunk, found {name}")
            if length != 13:
                raise ValueError(f"IHDR length {length}, expected 13")
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
        elif tag == b"PLTE" or tag[0] & 0x20:
            continue  # ancillary, or a suggested palette for truecolour
        else:
            raise ValueError(f"unexpected critical chunk {name}")

    w, h, depth, ctype, compression, filtering, interlace = header
    if not (0 < w < 2**31 and 0 < h < 2**31):
        raise ValueError(f"image size {w}x{h} outside 1..2^31-1")
    if depth != 8:
        raise ValueError(f"bit depth {depth} unsupported (only 8)")
    if ctype not in _PNG_CHANNELS:
        raise ValueError(f"colour type {ctype} unsupported (only 2 RGB, 6 RGBA)")
    if compression != 0 or filtering != 0:
        raise ValueError(
            f"compression method {compression} / filter method {filtering} "
            "unsupported (only 0)"
        )
    if interlace != 0:
        raise ValueError(f"interlace method {interlace} unsupported (only 0)")
    if not idat:
        raise ValueError("truncated PNG: no IDAT chunk")

    bpp = _PNG_CHANNELS[ctype]
    need = h * (1 + w * bpp)
    inflater = zlib.decompressobj()
    try:  # inflate at most one byte past the expected size
        raw = inflater.decompress(b"".join(idat), min(need + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"corrupt IDAT stream: {exc}") from None
    if len(raw) > need:
        raise ValueError(f"IDAT inflates to more than the expected {need} bytes")
    if len(raw) < need or not inflater.eof:
        raise ValueError(f"truncated IDAT: inflates to {len(raw)} of {need} bytes")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * bpp)
    pixels = _png_unfilter(rows, w, bpp)[:, :, :3]
    return ImageRGB(pixels.astype(np.float64) / 255.0)


def save_png(img: ImageRGB, path: str | Path) -> None:
    Path(path).write_bytes(image_to_png_bytes(img))


def load_png(path: str | Path) -> ImageRGB:
    return image_from_png_bytes(Path(path).read_bytes())


def save_image(img: ImageRGB, path: str | Path) -> None:
    """Dispatch on suffix: .ppm or .png."""
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        save_ppm(img, path)
    elif suffix == ".png":
        save_png(img, path)
    else:
        raise ValueError(f"unsupported image suffix {suffix!r} (use .ppm or .png)")


def load_image(path: str | Path) -> ImageRGB:
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        return load_ppm(path)
    if suffix == ".png":
        return load_png(path)
    raise ValueError(f"unsupported image suffix {suffix!r} (use .ppm or .png)")


def psnr(a: ImageRGB, b: ImageRGB) -> float:
    """Peak signal-to-noise ratio in dB between two linear [0, 1] images."""
    if a.data.shape != b.data.shape:
        raise ValueError("image shapes differ")
    mse = float(np.mean((a.data.astype(np.float64) - b.data.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
