"""Minimal PNG reader/writer (8-bit grayscale and RGB, no interlace).

Keeps the dataset formats dependency-free: zlib from the stdlib does the
compression, we handle chunking, CRCs, and scanline filters. The writer
emits filter 0 everywhere; the reader handles all five standard filters so
files from other encoders still load.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class PngError(ValueError):
    pass


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(path, image: np.ndarray) -> None:
    """Write a (H,W) or (H,W,3) uint8 array as a PNG file."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise PngError(f"expected uint8 image, got {img.dtype}")
    if img.ndim == 2:
        color_type, channels = 0, 1
        img = img[:, :, None]
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise PngError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    raw = np.zeros((h, 1 + w * channels), dtype=np.uint8)
    raw[:, 1:] = img.reshape(h, w * channels)
    data = zlib.compress(raw.tobytes(), level=6)
    with open(path, "wb") as f:
        f.write(_SIGNATURE)
        f.write(_chunk(b"IHDR", ihdr))
        f.write(_chunk(b"IDAT", data))
        f.write(_chunk(b"IEND", b""))


def read_png(path) -> np.ndarray:
    """Read an 8-bit grayscale or RGB PNG into a uint8 array."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _SIGNATURE:
        raise PngError(f"{path}: not a PNG file")
    pos = 8
    width = height = channels = None
    idat = b""
    while pos < len(blob):
        length = int.from_bytes(blob[pos:pos + 4], "big")
        chunk = blob[pos + 4:pos + 8 + length]             # tag and payload
        crc = blob[pos + 8 + length:pos + 12 + length]
        tag, payload = chunk[:4], chunk[4:]
        pos += 12 + length
        if pos > len(blob):
            raise PngError(f"{path}: truncated {tag!r} chunk")
        if int.from_bytes(crc, "big") != zlib.crc32(chunk):
            raise PngError(f"{path}: CRC mismatch in {tag!r} chunk")
        if tag == b"IHDR":
            if len(payload) != 13:
                raise PngError(f"{path}: IHDR has {len(payload)} bytes, not 13")
            width, height, depth, color_type, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", payload)
            if depth != 8 or interlace != 0 or color_type not in (0, 2):
                raise PngError(f"{path}: unsupported PNG variant "
                               f"(depth={depth} color={color_type} interlace={interlace})")
            channels = 1 if color_type == 0 else 3
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if width is None:
        raise PngError(f"{path}: missing IHDR")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise PngError(f"{path}: bad image data: {exc}") from exc
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise PngError(f"{path}: scanline payload has wrong size")
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for row in range(height):
        line = raw[row * (stride + 1):(row + 1) * (stride + 1)]
        ftype = line[0]
        cur = np.frombuffer(line[1:], dtype=np.uint8).astype(np.int64)
        if ftype == 0:
            rec = cur
        elif ftype == 2:  # up
            rec = (cur + prev) & 0xFF
        elif ftype in (1, 3, 4):  # sub / average / paeth need a left scan
            rec = np.zeros(stride, dtype=np.int64)
            for i in range(stride):
                left = rec[i - channels] if i >= channels else 0
                up = prev[i]
                if ftype == 1:
                    rec[i] = (cur[i] + left) & 0xFF
                elif ftype == 3:
                    rec[i] = (cur[i] + (left + up) // 2) & 0xFF
                else:
                    ul = prev[i - channels] if i >= channels else 0
                    p = left + up - ul
                    pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                    pred = left if (pa <= pb and pa <= pc) else (up if pb <= pc else ul)
                    rec[i] = (cur[i] + pred) & 0xFF
        else:
            raise PngError(f"{path}: unknown scanline filter {ftype}")
        out[row] = rec.astype(np.uint8)
        prev = rec
    img = out.reshape(height, width, channels)
    return img[:, :, 0] if channels == 1 else img
