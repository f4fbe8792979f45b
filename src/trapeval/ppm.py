"""Binary PPM (P6) reader and writer and PGM (P5) writer, maxval 255.

Tensor channels 0, 1, 2 map to R, G, B; pixel bytes become float64 values in
[0, 255] so the write/read cycle is lossless for integer-valued tensors.
Header comments ('#' to end of line) are handled on read.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

import numpy as np

from .errors import FormatError
from .tensor import Tensor3

_READ_CHUNK = 1 << 24


def _read_at_most(stream: IO[bytes], size: int) -> bytes:
    """Up to ``size`` bytes, fewer at end of file. Reads in chunks, so a
    header declaring more data than the file holds allocates only what is
    there, however large the declared size."""
    chunks = []
    while size > 0:
        chunk = stream.read(min(size, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_token(stream: IO[bytes]) -> bytes:
    token = b""
    while True:
        ch = stream.read(1)
        if ch == b"":
            if token:
                return token
            raise FormatError("unexpected end of file in header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _read_header(stream: IO[bytes], magic: bytes) -> tuple[int, int]:
    found = _read_token(stream)
    if found != magic:
        raise FormatError(f"bad magic {found!r}, expected {magic!r}")
    try:
        width = int(_read_token(stream))
        height = int(_read_token(stream))
        maxval = int(_read_token(stream))
    except ValueError as exc:
        raise FormatError(f"non-numeric header field: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255")
    return width, height


def read_ppm(path: "str | Path") -> Tensor3:
    with open(path, "rb") as stream:
        width, height = _read_header(stream, b"P6")
        payload = _read_at_most(stream, 3 * width * height)
        if len(payload) != 3 * width * height:
            raise FormatError(
                f"truncated pixel data: got {len(payload)} of {3 * width * height} bytes"
            )
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
        return Tensor3(pixels.transpose(2, 0, 1).astype(np.float64))


def _write_raster(path: "str | Path", kind: str, magic: str, pixels: np.ndarray) -> None:
    """Write ``pixels`` (height, width[, 3]) as a maxval-255 raster once
    they are checked to lie in [0, 255]; ``kind`` names the format."""
    # Written so that NaN fails the check.
    if not (pixels.min() >= 0.0 and pixels.max() <= 255.0):
        raise FormatError(f"{kind} pixel values must lie in [0, 255]")
    with open(path, "wb") as stream:
        stream.write(f"{magic}\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        stream.write(np.rint(pixels).astype(np.uint8).tobytes(order="C"))


def write_ppm(tensor: Tensor3, path: "str | Path") -> None:
    if tensor.channels != 3:
        raise FormatError(f"PPM needs 3 channels, got {tensor.channels}")
    _write_raster(path, "PPM", "P6", tensor.data.transpose(1, 2, 0))


def write_pgm(values: np.ndarray, path: "str | Path") -> None:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError(f"PGM needs a 2-dim grid, got shape {arr.shape}")
    _write_raster(path, "PGM", "P5", arr)
