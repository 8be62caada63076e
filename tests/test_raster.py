"""Raster container I/O and graymap export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copcd import cli
from copcd.pipeline import write_artifacts
from copcd.raster import (
    Raster,
    export_graymap,
    load_binary_map,
    load_raster,
    save_binary_map,
    save_raster,
)
from copcd.segmentation import SegmentationMap


def test_from_array_2d_adds_channel_axis():
    r = Raster.from_array(np.zeros((3, 4), dtype=np.float32))
    assert r.data.shape == (3, 4, 1)


def test_raster_rejects_non_finite():
    arr = np.zeros((2, 2, 1), dtype=np.float32)
    arr[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Raster(arr)


def test_raster_rejects_wrong_shape_and_dtype():
    with pytest.raises(ValueError):
        Raster(np.zeros((2, 2, 1), dtype=np.float64))
    with pytest.raises(ValueError):
        Raster(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        Raster(np.zeros((2, 0, 1), dtype=np.float32))


def test_from_array_copies_float32_input_once():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3, 1)
    r = Raster.from_array(arr)
    assert arr.flags.writeable
    assert not np.shares_memory(r.data, arr)
    arr[0, 0, 0] = -1.0
    assert r.data[0, 0, 0] == 0.0


def test_round_trip_random_raster(tmp_path):
    rng = np.random.default_rng(0)
    r = Raster.from_array(rng.normal(size=(8, 8, 3)).astype(np.float32))
    base = str(tmp_path / "r")
    save_raster(r, base)
    back = load_raster(base)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, r.data)  # bitwise: exact float equality


def test_header_payload_mismatch_errors(tmp_path):
    base = str(tmp_path / "bad")
    with open(base + ".hdr.json", "w") as fh:
        json.dump({"m": 1, "n": 1, "c": 3, "dtype": "f32le",
                   "layout": "row-major-bip"}, fh)
    np.zeros(2, dtype="<f4").tofile(base + ".f32")
    with pytest.raises(ValueError):
        load_raster(base)


@pytest.mark.parametrize("extra", [-1, 2, 4], ids=["byte-short", "2-bytes-over",
                                                   "value-over"])
def test_payload_bytes_must_match_the_header(tmp_path, capsys, extra):
    base = str(tmp_path / "bad")
    with open(base + ".hdr.json", "w") as fh:
        json.dump({"m": 32, "n": 32, "c": 1, "dtype": "f32le",
                   "layout": "row-major-bip"}, fh)
    with open(base + ".f32", "wb") as fh:
        fh.write(bytes(32 * 32 * 4 + extra))
    with pytest.raises(ValueError, match=f"= 4096 bytes, payload .* holds {4096 + extra}"):
        load_raster(base)
    assert cli.main(["detect", "--pre", base, "--post", base]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4096 bytes" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("m", "2"), ("n", True), ("c", 0), ("m", None)])
def test_header_dimensions_must_be_positive_ints(tmp_path, capsys, key, value):
    base = str(tmp_path / "bad")
    header = {"m": 2, "n": 2, "c": 1, "dtype": "u8", "layout": "row-major"}
    header[key] = value
    with open(base + ".hdr.json", "w") as fh:
        json.dump(header, fh)
    np.zeros(4, dtype="u1").tofile(base + ".u8")
    with pytest.raises(ValueError, match=f"header key '{key}'"):
        load_binary_map(base)
    assert cli.main(["score", "--bcm", base, "--gt", base]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}'" in err


@pytest.mark.parametrize("dtype, value", [
    ("u8", "weird"), ("u8", None), ("u8", 3),
    ("f32le", "row-major"), ("u8", "row-major-bip"),  # each dtype has one layout
], ids=["weird", "None", "3", "f32le-row-major", "u8-row-major-bip"])
def test_header_layout_must_be_known(tmp_path, capsys, dtype, value):
    base = str(tmp_path / "bad")
    with open(base + ".hdr.json", "w") as fh:
        json.dump({"m": 2, "n": 2, "c": 1, "dtype": dtype, "layout": value}, fh)
    if dtype == "u8":
        np.zeros(4, dtype="u1").tofile(base + ".u8")
        load, args = load_binary_map, ["score", "--bcm", base, "--gt", base]
    else:
        np.zeros(4, dtype="<f4").tofile(base + ".f32")
        load, args = load_raster, ["detect", "--pre", base, "--post", base]
    with pytest.raises(ValueError, match="header key 'layout'"):
        load(base)
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'layout'" in err


@pytest.mark.parametrize("value", [None, ["u8"]], ids=["missing", "list"])
def test_header_dtype_must_be_known(tmp_path, capsys, value):
    base = str(tmp_path / "bad")
    header = {"m": 2, "n": 2, "c": 1, "layout": "row-major"}
    if value is not None:
        header["dtype"] = value
    with open(base + ".hdr.json", "w") as fh:
        json.dump(header, fh)
    np.zeros(4, dtype="u1").tofile(base + ".u8")
    with pytest.raises(ValueError, match="header key 'dtype'"):
        load_binary_map(base)
    assert cli.main(["score", "--bcm", base, "--gt", base]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "header key 'dtype'" in err
    assert "Traceback" not in err


def test_missing_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_raster(str(tmp_path / "nope"))


def test_load_rejects_non_finite_payload(tmp_path):
    base = str(tmp_path / "nan")
    with open(base + ".hdr.json", "w") as fh:
        json.dump({"m": 1, "n": 1, "c": 1, "dtype": "f32le",
                   "layout": "row-major-bip"}, fh)
    np.array([np.nan], dtype="<f4").tofile(base + ".f32")
    with pytest.raises(ValueError):
        load_raster(base)


def test_zero_raster_payload_bytes(tmp_path):
    base = str(tmp_path / "z")
    save_raster(Raster.from_array(np.zeros((1, 1, 1), dtype=np.float32)), base)
    payload = open(base + ".f32", "rb").read()
    assert payload == b"\x00\x00\x00\x00"


def test_little_endian_encoding_of_one(tmp_path):
    base = str(tmp_path / "one")
    save_raster(Raster.from_array(np.ones((1, 1, 1), dtype=np.float32)), base)
    payload = open(base + ".f32", "rb").read()
    assert payload == b"\x00\x00\x80\x3f"


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float32, (4, 5, 2),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_round_trip_is_identity(tmp_path_factory, arr):
    tmp = tmp_path_factory.mktemp("rt")
    r = Raster.from_array(arr)
    save_raster(r, str(tmp / "r"))
    assert np.array_equal(load_raster(str(tmp / "r")).data, r.data)


def test_binary_map_round_trip_and_validation(tmp_path):
    bcm = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    base = str(tmp_path / "b")
    save_binary_map(bcm, base)
    assert np.array_equal(load_binary_map(base), bcm)
    with pytest.raises(ValueError):
        save_binary_map(np.array([[2]]), str(tmp_path / "b2"))


# --- PGM export ---


def _read_pgm(path):
    with open(path, "rb") as fh:
        assert fh.readline() == b"P5\n"
        w, h = map(int, fh.readline().split())
        assert fh.readline() == b"255\n"
        return np.frombuffer(fh.read(), dtype=np.uint8).reshape(h, w)


def test_graymap_constant_is_all_zero(tmp_path):
    path = str(tmp_path / "c.pgm")
    export_graymap(np.full((3, 3), 7.5), path)
    assert (_read_pgm(path) == 0).all()


def test_graymap_binary_maps_to_extremes(tmp_path):
    path = str(tmp_path / "b.pgm")
    export_graymap(np.array([[0.0, 1.0]]), path)
    assert _read_pgm(path).tolist() == [[0, 255]]
    # The change map's view is written by value: an all-changed map is all
    # 255, not the all-0 of a constant scaled map.
    seg = SegmentationMap(np.arange(1, 7).reshape(2, 3))
    for bcm in ([[0, 1, 1], [0, 0, 1]], [[1, 1, 1], [1, 1, 1]]):
        bcm = np.array(bcm, dtype=np.uint8)
        write_artifacts({"seg_test": seg, "di": np.arange(6.0), "bcm": bcm}, str(tmp_path))
        assert _read_pgm(str(tmp_path / "bcm.pgm")).tolist() == (255 * bcm).tolist()


def test_graymap_midpoint_rounds_half_away_from_zero(tmp_path):
    path = str(tmp_path / "m.pgm")
    export_graymap(np.array([[0.0, 0.5, 1.0]]), path)
    assert _read_pgm(path).tolist() == [[0, 128, 255]]
