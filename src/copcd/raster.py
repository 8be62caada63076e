"""Multiband raster container with bit-exact file I/O.

A raster on disk is a two-part container: ``<name>.hdr.json`` holding the
dimensions/dtype and ``<name>.<ext>`` holding the raw little-endian payload.
Float rasters are stored pixel-major, band-interleaved ("row-major-bip");
single-band binary change maps are plain row-major.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# dtype name -> (numpy dtype, payload extension, the one layout it is stored in)
_DTYPES = {
    "f32le": (np.dtype("<f4"), "f32", "row-major-bip"),
    "u8": (np.dtype("u1"), "u8", "row-major"),
}


@dataclass(frozen=True)
class Raster:
    """An M x N x C cube of finite float32 values."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"raster data must be M x N x C with every side >= 1, "
                             f"got shape {self.data.shape}")
        if self.data.dtype != np.float32:
            raise ValueError("raster data must be float32")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("raster contains non-finite values")
        self.data.setflags(write=False)

    def __repr__(self) -> str:
        return f"Raster(shape={self.data.shape})"

    @classmethod
    def from_array(cls, arr) -> "Raster":
        """A raster of a float32 copy of an M x N or M x N x C array."""
        arr = np.array(arr, dtype=np.float32)
        return cls(arr[:, :, None] if arr.ndim == 2 else arr)


def _write_container(base: str, arr: np.ndarray, dtype_name: str) -> None:
    dtype, ext, layout = _DTYPES[dtype_name]
    m, n, c = arr.shape
    header = {"m": int(m), "n": int(n), "c": int(c), "dtype": dtype_name, "layout": layout}
    with open(base + ".hdr.json", "w") as fh:
        json.dump(header, fh)
        fh.write("\n")
    arr.astype(dtype, copy=False).tofile(base + "." + ext)


def _read_container(base: str, dtype_name: str):
    """Header and m x n x c payload of a container whose header names
    ``dtype_name`` and its layout; a header that does not, or a payload of
    another size, is a ValueError naming the key or the byte counts."""
    hdr_path = base + ".hdr.json"
    with open(hdr_path) as fh:
        header = json.load(fh)
    if not isinstance(header, dict):
        raise ValueError(f"header is not a JSON object in {hdr_path}")
    for key in ("m", "n", "c"):
        value = header.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"header key {key!r} must be a positive int, got {value!r} "
                             f"in {hdr_path}")
    dtype, ext, layout = _DTYPES[dtype_name]
    if header.get("layout") != layout:
        raise ValueError(f"header key 'layout' must be {layout!r} for {dtype_name}, "
                         f"got {header.get('layout')!r} in {hdr_path}")
    if header.get("dtype") != dtype_name:
        raise ValueError(f"header key 'dtype' must be {dtype_name!r}, "
                         f"got {header.get('dtype')!r} in {hdr_path}")
    payload_path = base + "." + ext
    m, n, c = header["m"], header["n"], header["c"]
    expected = m * n * c * dtype.itemsize
    size = os.path.getsize(payload_path)
    if size != expected:
        raise ValueError(f"header claims {m}x{n}x{c} {dtype_name} = {expected} bytes, "
                         f"payload {payload_path} holds {size}")
    return header, np.fromfile(payload_path, dtype=dtype).reshape(m, n, c)


def load_raster(path: str) -> Raster:
    """Load a float32 raster; inverse of :func:`save_raster` bit-exactly."""
    return Raster(_read_container(path, "f32le")[1])


def save_raster(r: Raster, path: str) -> None:
    _write_container(path, r.data, "f32le")


def save_binary_map(bcm: np.ndarray, path: str) -> None:
    """Store an M x N {0,1} map as a u8 single-band container."""
    bcm = np.asarray(bcm)
    if not np.isin(bcm, (0, 1)).all():
        raise ValueError("binary map values must be 0 or 1")
    _write_container(path, bcm.astype(np.uint8)[:, :, None], "u8")


def load_binary_map(path: str) -> np.ndarray:
    header, arr = _read_container(path, "u8")
    if header["c"] != 1:
        raise ValueError(f"header key 'c' must be 1 for a binary map, got {header['c']}")
    out = arr[:, :, 0].astype(np.uint8)
    if not np.isin(out, (0, 1)).all():
        raise ValueError("binary map values must be 0 or 1")
    return out


def export_graymap(values: np.ndarray, path: str) -> None:
    """Write per-pixel values as a binary PGM (P5). A uint8 array holds gray
    levels and is written by value; any other is min-max scaled to 0-255.

    Constant scaled input maps to all-zero; rounding is half-away-from-zero.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("graymap values must be 2-D")
    if values.dtype != np.uint8:
        values = values.astype(np.float64)
        lo, hi = values.min(), values.max()
        scaled = (values - lo) / (hi - lo) * 255.0 if hi > lo else np.zeros_like(values)
        values = np.trunc(scaled + 0.5).astype(np.uint8)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(values.tobytes())
