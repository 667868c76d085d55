import json

import numpy as np
import pytest
from numpy.lib import format as npy_format

from trifuse.data import (
    NormStats,
    default_stats,
    load_frame,
    load_manifest,
    normalize,
    pad_to_stride,
    parse_labels,
    read_npy,
    save_manifest,
    text_lines,
    write_npy,
)
from trifuse.errors import FormatError, ValidationError


class TestNpyFormat:
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int64, np.uint8])
    def test_roundtrip_bitwise(self, tmp_path, rng, order, dtype):
        if np.dtype(dtype).kind == "f":
            arr = rng.standard_normal((3, 4, 5)).astype(dtype)
        else:
            arr = rng.integers(0, 100, (3, 4, 5)).astype(dtype)
        path = tmp_path / "a.npy"
        write_npy(path, arr.astype(arr.dtype.newbyteorder(order)))
        back = read_npy(path)
        assert back.dtype == np.dtype(dtype)
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()

    def test_interoperates_with_numpy(self, tmp_path, rng):
        arr = rng.standard_normal((2, 6)).astype(np.float32)
        ours = tmp_path / "ours.npy"
        theirs = tmp_path / "theirs.npy"
        write_npy(ours, arr)
        np.save(theirs, arr)
        assert np.array_equal(np.load(ours), arr)
        assert np.array_equal(read_npy(theirs), arr)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(b"NOTNPY" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_npy(p)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(FormatError, match="unsupported dtype"):
            write_npy(tmp_path / "c.npy", np.zeros(3, np.complex64))

    def test_fortran_order_rejected(self, tmp_path):
        arr = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
        p = tmp_path / "f.npy"
        np.save(p, arr)
        with pytest.raises(FormatError, match="fortran"):
            read_npy(p)

    def test_1d_shape_tuple(self, tmp_path):
        arr = np.arange(7, dtype=np.float64)
        p = tmp_path / "v.npy"
        write_npy(p, arr)
        assert np.array_equal(np.load(p), arr)


def _write_npy_header(path, shape):
    """An NPY file that claims ``shape`` in float32 and holds no data."""
    with open(path, "wb") as f:
        npy_format.write_array_header_1_0(f, {"descr": "<f4", "fortran_order": False, "shape": shape})


def _write_sample(tmp_path, rng, h=301, w=391, labels="0 0.5 0.5 0.2 0.1\n"):
    arr = rng.random((h, w, 5)).astype(np.float32)
    img = tmp_path / "f.npy"
    lbl = tmp_path / "f.txt"
    write_npy(img, arr)
    lbl.write_text(labels)
    return img, lbl, arr


def test_text_lines_end_at_newline_only(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a b\r\nc\rd\n\n  e \n")
    assert list(text_lines(path)) == [(f"{path}:1", "a b"), (f"{path}:2", "c\rd"), (f"{path}:4", "e")]


class TestLoadFrame:
    def test_native_resolution_shape(self, tmp_path, rng):
        img, lbl, arr = _write_sample(tmp_path, rng)
        frame = load_frame(img, lbl)
        assert frame.pixels.shape == (1, 5, 301, 391)
        assert np.array_equal(frame.pixels[0].transpose(1, 2, 0), arr)

    @pytest.mark.parametrize("dtype", ["<f4", ">f4", "<f8", ">f8", "|u1", "<i2", ">i8"])
    def test_pixels_bitwise_equal_to_cast_then_transpose(self, tmp_path, rng, dtype):
        arr = (rng.standard_normal((7, 9, 5)) * 1e3).astype(dtype)
        np.save(tmp_path / "a.npy", arr)
        pixels = load_frame(tmp_path / "a.npy", None).pixels
        want = np.ascontiguousarray(arr.astype(np.float32).transpose(2, 0, 1)[None])
        assert pixels.dtype == np.float32 and pixels.flags.c_contiguous and pixels.flags.writeable
        assert pixels.tobytes() == want.tobytes()

    def test_empty_labels(self, tmp_path, rng):
        img, lbl, _ = _write_sample(tmp_path, rng, h=8, w=8, labels="")
        assert load_frame(img, lbl).boxes == []

    def test_yolo_pixel_arithmetic(self, tmp_path, rng):
        img, lbl, _ = _write_sample(tmp_path, rng, h=100, w=200)
        frame = load_frame(img, lbl)
        (box,) = frame.boxes
        x1, y1, x2, y2 = box.to_pixels(frame.height, frame.width)
        assert ((x1 + x2) / 2, (y1 + y2) / 2) == (100.0, 50.0)
        assert (x2 - x1, y2 - y1) == pytest.approx((40.0, 10.0))

    def test_wrong_rank(self, tmp_path, rng):
        p = tmp_path / "bad.npy"
        write_npy(p, rng.random((4, 4)).astype(np.float32))
        with pytest.raises(FormatError, match="rank"):
            load_frame(p, None)

    def test_wrong_channel_count(self, tmp_path, rng):
        p = tmp_path / "bad.npy"
        write_npy(p, rng.random((4, 4, 3)).astype(np.float32))
        with pytest.raises(FormatError, match="channels"):
            load_frame(p, None)

    def test_pixel_bound_checked_from_the_header(self, tmp_path):
        # header-only files: the bound is checked before the data size, so
        # 2049 x 2049 is refused by it and 2048 x 2048 = 2**22 passes it
        big, edge = tmp_path / "big.npy", tmp_path / "edge.npy"
        _write_npy_header(big, (2049, 2049, 5))
        _write_npy_header(edge, (2048, 2048, 5))
        with pytest.raises(ValidationError) as e:
            load_frame(big, None)
        assert str(e.value) == f"{big}: frame 2049x2049 = 4198401 pixels, above the bound of 4194304"
        with pytest.raises(FormatError, match="truncated data section"):
            load_frame(edge, None)

    def test_malformed_label_line_number(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0 0.5 0.5 0.2 0.1\n0 0.5 0.5\n")
        with pytest.raises(FormatError, match="l.txt:2"):
            parse_labels(p)

    def test_out_of_range_box(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0 0.95 0.5 0.3 0.1\n")  # right edge at 1.1
        with pytest.raises(ValidationError, match="right edge"):
            parse_labels(p)


class TestNormalize:
    def test_means_give_zero(self):
        stats = NormStats([0.1, 0.2, 0.3, 0.4, 0.5], [1, 1, 1, 1, 1])
        x = np.broadcast_to(
            np.array([0.1, 0.2, 0.3, 0.4, 0.5], np.float32).reshape(1, 5, 1, 1), (1, 5, 3, 3)
        ).copy()
        assert np.abs(normalize(x, stats)).max() < 1e-7

    def test_identity_stats(self, rng):
        x = rng.random((1, 5, 4, 4)).astype(np.float32)
        stats = NormStats(np.zeros(5), np.ones(5))
        assert np.array_equal(normalize(x, stats), x)

    def test_imagenet_channel0_hand_computed(self):
        stats = default_stats()
        x = np.zeros((1, 5, 1, 3), np.float32)
        x[0, 0] = [0.0, 0.485, 1.0]
        out = normalize(x, stats)
        want = (np.array([0.0, 0.485, 1.0]) - 0.485) / 0.229
        assert np.abs(out[0, 0, 0] - want.astype(np.float32)).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8, np.int32])
    def test_bitwise_equal_to_the_whole_array_formula(self, rng, dtype):
        x = (rng.standard_normal((2, 5, 7, 18)) * 300).astype(dtype)
        stats = NormStats(rng.uniform(-2, 2, 5), rng.uniform(0.01, 3, 5))
        m, s = stats.mean.reshape(1, 5, 1, 1), stats.std.reshape(1, 5, 1, 1)
        for view in (x, x[..., ::2]):
            want = ((view.astype(np.float64) - m) / s).astype(np.float32)
            got = normalize(view, stats)
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_bad_std_rejected(self):
        with pytest.raises(ValidationError, match="std"):
            NormStats(np.zeros(5), [1, 1, 0, 1, 1])


class TestPadToStride:
    def test_aligned_untouched(self, rng):
        x = rng.random((1, 5, 64, 64)).astype(np.float32)
        padded, _ = pad_to_stride(x, 32)
        assert padded is x

    def test_33x33(self, rng):
        x = rng.random((1, 5, 33, 33)).astype(np.float32)
        padded, _ = pad_to_stride(x, 32)
        assert padded.shape == (1, 5, 64, 64)
        assert np.array_equal(padded[:, :, :33, :33], x)
        assert np.all(padded[:, :, 33:, :] == 0)


class TestManifest:
    def _write(self, tmp_path, rng, flags):
        records = []
        for i, flag in enumerate(flags):
            arr = rng.random((4, 4, 5)).astype(np.float32)
            write_npy(tmp_path / f"m{i}.npy", arr)
            (tmp_path / f"m{i}.txt").write_text("")
            records.append({"image": f"m{i}.npy", "labels": f"m{i}.txt", "day_night": flag})
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(records))
        return p

    def test_counts(self, tmp_path, rng):
        m = load_manifest(self._write(tmp_path, rng, ["day", "day", "day", "night", "night"]))
        assert m.counts() == {"day": 3, "night": 2}

    def test_missing_file_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps([{"image": "nope.npy", "labels": "nope.txt", "day_night": "day"}]))
        with pytest.raises(ValidationError, match="missing file"):
            load_manifest(p)

    @pytest.mark.parametrize("record, error", [
        ({"image": "m.npy", "day_night": "day"}, "record 0 missing field 'labels'"),
        ({"image": 5, "labels": "m.txt", "day_night": "day"}, "record 0 field 'image' is not a string, got 5"),
        (["m.npy", "m.txt", "day"], "record 0 is not a JSON object, got list"),
    ], ids=["missing", "not-a-string", "not-an-object"])
    def test_bad_record_says_what_is_wrong(self, tmp_path, record, error):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps([record]))
        with pytest.raises(FormatError) as e:
            load_manifest(p, check_files=False)
        assert str(e.value) == f"{p}: {error}"

    def test_save_load_roundtrip(self, tmp_path, rng):
        p = self._write(tmp_path, rng, ["day", "night"])
        m = load_manifest(p)
        save_manifest(tmp_path / "copy.json", m)
        m2 = load_manifest(tmp_path / "copy.json")
        assert [e.day_night for e in m2.entries] == ["day", "night"]
