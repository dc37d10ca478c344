"""PNG writer with per-row adaptive filters, and a plain decoder to check it.

The writer picks each row's filter by the minimum sum of absolute
differences (bytes read as signed), the default heuristic of libpng and
Pillow, with ties going to the lower filter type.  Files from such tools
mix all five filter types, so targets written here exercise every
unfilter path of a reader.  The decoder is a scalar transcription of the
PNG specification, kept slow and obvious on purpose.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
BPP = 3  # 8-bit RGB


def _chunk(tag: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, 1 + 3w) filtered scanlines and the (h,) filter type of each row."""
    h, w, _ = pixels.shape
    x = pixels.reshape(h, w * BPP).astype(np.int32)
    up = np.vstack([np.zeros((1, w * BPP), np.int32), x[:-1]])
    left = np.hstack([np.zeros((h, BPP), np.int32), x[:, :-BPP]])
    upleft = np.hstack([np.zeros((h, BPP), np.int32), up[:, :-BPP]])
    preds = [0, left, up, (left + up) // 2, _paeth(left, up, upleft)]
    filtered = np.stack([(x - p) & 0xFF for p in preds])  # (5, h, 3w)
    signed = np.where(filtered < 128, filtered, 256 - filtered)
    kinds = np.argmin(signed.sum(axis=2), axis=0)  # first minimum wins ties
    rows = np.empty((h, 1 + w * BPP), np.uint8)
    rows[:, 0] = kinds
    rows[:, 1:] = filtered[kinds, np.arange(h)]
    return rows, kinds


def encode(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """PNG bytes of an (h, w, 3) uint8 image and the filter type of each row."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != BPP:
        raise ValueError("encode takes an (h, w, 3) uint8 array")
    h, w, _ = pixels.shape
    rows, kinds = filter_rows(pixels)
    data = (
        SIGNATURE
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(rows.tobytes(), 9))
        + _chunk(b"IEND", b"")
    )
    return data, kinds


def decode(data: bytes) -> np.ndarray:
    """Pixels of an 8-bit RGB non-interlaced PNG, as written by encode."""
    if data[:8] != SIGNATURE:
        raise ValueError("not a PNG")
    pos, idat, size = 8, b"", None
    while pos < len(data):
        n, tag = struct.unpack_from(">I4s", data, pos)
        body = data[pos + 8 : pos + 8 + n]
        if zlib.crc32(tag + body) != struct.unpack_from(">I", data, pos + 8 + n)[0]:
            raise ValueError(f"bad CRC in {tag!r}")
        if tag == b"IHDR":
            size = struct.unpack(">II", body[:8])
            if body[8:] != bytes([8, 2, 0, 0, 0]):
                raise ValueError("only 8-bit RGB, non-interlaced")
        elif tag == b"IDAT":
            idat += body
        pos += 12 + n
    w, h = size
    raw = zlib.decompress(idat)
    stride = 1 + w * BPP
    out = bytearray(h * w * BPP)
    prev = bytearray(w * BPP)
    for y in range(h):
        kind = raw[y * stride]
        line = raw[y * stride + 1 : (y + 1) * stride]
        cur = bytearray(w * BPP)
        for i in range(w * BPP):
            a = cur[i - BPP] if i >= BPP else 0
            b = prev[i]
            c = prev[i - BPP] if i >= BPP else 0
            if kind == 0:
                pred = 0
            elif kind == 1:
                pred = a
            elif kind == 2:
                pred = b
            elif kind == 3:
                pred = (a + b) // 2
            elif kind == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            else:
                raise ValueError(f"row {y}: filter type {kind}")
            cur[i] = (line[i] + pred) & 0xFF
        out[y * w * BPP : (y + 1) * w * BPP] = cur
        prev = cur
    return np.frombuffer(bytes(out), np.uint8).reshape(h, w, BPP)
