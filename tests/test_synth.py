import json

import numpy as np
import pytest

from trifuse.data import load_frame, load_manifest, read_npy
from trifuse.errors import ConfigError
from trifuse.synth import generate_corpus, make_frame


class TestMakeFrame:
    def test_shape_and_ranges(self, rng):
        arr, boxes = make_frame(rng, height=60, width=80, n_boxes=2)
        assert arr.shape == (60, 80, 5)
        assert arr.dtype == np.float32
        assert 0.0 <= arr[:, :, 0:4].min() and arr[:, :, 0:4].max() <= 1.0
        assert -1.0 <= arr[:, :, 4].min() and arr[:, :, 4].max() <= 1.0
        assert len(boxes) == 2

    def test_boxes_inside_unit_square(self, rng):
        for _ in range(10):
            _, boxes = make_frame(rng, height=50, width=70)
            for cls, cx, cy, w, h in boxes:
                assert cls == 0
                assert 0.0 <= cx - w / 2 and cx + w / 2 <= 1.0
                assert 0.0 <= cy - h / 2 and cy + h / 2 <= 1.0

    def test_event_channel_marks_box_edges(self, rng):
        arr, boxes = make_frame(rng, height=80, width=100, n_boxes=1)
        ev = arr[:, :, 4]
        assert np.abs(ev).max() == 1.0
        # all activity lies on the rectangle outline
        cls, cx, cy, w, h = boxes[0]
        x1 = round((cx - w / 2) * 100)
        x2 = round((cx + w / 2) * 100)
        y1 = round((cy - h / 2) * 80)
        y2 = round((cy + h / 2) * 80)
        interior = ev[y1 + 1 : y2 - 1, x1 + 1 : x2 - 1]
        assert np.all(interior == 0.0)
        assert np.any(ev[y1, x1:x2] != 0.0) or np.any(ev[y2 - 1, x1:x2] != 0.0)


class TestGenerateCorpus:
    def test_byte_identical_for_same_seed(self, tmp_path):
        m1 = generate_corpus(tmp_path / "a", 3, height=50, width=60, seed=7)
        m2 = generate_corpus(tmp_path / "b", 3, height=50, width=60, seed=7)
        for f1 in sorted(m1.parent.iterdir()):
            f2 = m2.parent / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_seeds_differ(self, tmp_path):
        m1 = generate_corpus(tmp_path / "a", 1, height=50, width=60, seed=1)
        m2 = generate_corpus(tmp_path / "b", 1, height=50, width=60, seed=2)
        a = read_npy(m1.parent / "frame_0000.npy")
        b = read_npy(m2.parent / "frame_0000.npy")
        assert not np.array_equal(a, b)

    def test_corpus_loads_back(self, tmp_path):
        path = generate_corpus(tmp_path / "c", 4, height=64, width=96, seed=0)
        manifest = load_manifest(path)
        assert len(manifest.entries) == 4
        assert [e.day_night for e in manifest.entries] == ["day", "night", "day", "night"]
        frame = load_frame(manifest.entries[0].image, manifest.entries[0].labels)
        assert frame.pixels.shape == (1, 5, 64, 96)
        assert len(frame.boxes) >= 1

    def test_label_pixel_error_below_one(self, tmp_path):
        # labels store 6 decimals, so recovered pixel boxes must sit within
        # a pixel of the rendered rectangles
        path = generate_corpus(tmp_path / "d", 2, height=301, width=391, seed=3)
        manifest = load_manifest(path)
        for e in manifest.entries:
            frame = load_frame(e.image, e.labels)
            thermal = frame.pixels[0, 3]
            for box in frame.boxes:
                x1, y1, x2, y2 = box.to_pixels(frame.height, frame.width)
                xi1, yi1 = int(round(x1)), int(round(y1))
                assert abs(x1 - round(x1)) < 1.0 and abs(y1 - round(y1)) < 1.0
                # rendered rectangles are hot in the thermal channel
                assert thermal[yi1 + 1, xi1 + 1] >= 0.5

    def test_manifest_is_relative_and_json(self, tmp_path):
        path = generate_corpus(tmp_path / "e", 1, height=40, width=40, seed=0)
        records = json.loads(path.read_text())
        assert records[0]["image"] == "frame_0000.npy"
        assert records[0]["labels"] == "frame_0000.txt"

    @pytest.mark.parametrize("kwargs, error", [
        (dict(height=2048, width=2049), "frame size 2048x2049 = 4196352 pixels, above the bound of 4194304"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["pixels", "seed"])
    def test_refused_before_anything_is_written(self, tmp_path, kwargs, error):
        with pytest.raises(ConfigError, match=f"^{error}$"):
            generate_corpus(tmp_path / "f", 1, **{"height": 40, "width": 40, **kwargs})
        assert not (tmp_path / "f").exists()
