"""Desk-scale synthetic corpus generator.

Renders random rectangles ("vehicles") into the RGB and thermal channels,
emits a consistent event channel by binning a synthetic polarity stream
along the rectangle edges, and writes NPY arrays, YOLO labels and a JSON
manifest with alternating day/night flags.  Fully deterministic for a
fixed seed: the same call produces a byte-identical corpus.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import MAX_FRAME_PIXELS, DatasetManifest, ManifestEntry, save_manifest, write_npy
from .errors import ConfigError
from .events import DEFAULT_WINDOW_S, EventStream, bin_events

DEFAULT_HEIGHT = 301
DEFAULT_WIDTH = 391
MIN_SIDE = 13  # boxes are at least 12 px, placed at an offset in [0, side - 12)


def _edge_pixels(x1, y1, x2, y2):
    xs = np.arange(x1, x2)
    ys = np.arange(y1, y2)
    top = np.stack([np.full_like(xs, y1), xs], axis=1)
    bot = np.stack([np.full_like(xs, y2 - 1), xs], axis=1)
    left = np.stack([ys, np.full_like(ys, x1)], axis=1)
    right = np.stack([ys, np.full_like(ys, x2 - 1)], axis=1)
    return np.concatenate([top, bot, left, right], axis=0)


def make_frame(rng, height=DEFAULT_HEIGHT, width=DEFAULT_WIDTH, n_boxes=None, frame_t=1.0):
    """One synthetic (H, W, 5) array plus its normalized boxes."""
    if n_boxes is None:
        n_boxes = int(rng.integers(1, 5))
    arr = np.zeros((height, width, 5), np.float32)
    arr[:, :, 0:3] = rng.uniform(0.0, 0.15, (height, width, 3))
    arr[:, :, 3] = rng.uniform(0.0, 0.1, (height, width))

    boxes = []
    all_edges = []
    for _ in range(n_boxes):
        bw = int(rng.integers(12, max(13, width // 4)))
        bh = int(rng.integers(12, max(13, height // 4)))
        x1 = int(rng.integers(0, width - bw))
        y1 = int(rng.integers(0, height - bh))
        x2, y2 = x1 + bw, y1 + bh
        color = rng.uniform(0.5, 1.0, 3).astype(np.float32)
        arr[y1:y2, x1:x2, 0:3] = color
        arr[y1:y2, x1:x2, 3] = rng.uniform(0.6, 1.0)
        boxes.append(
            (
                0,
                (x1 + x2) / 2.0 / width,
                (y1 + y2) / 2.0 / height,
                bw / width,
                bh / height,
            )
        )
        all_edges.append(_edge_pixels(x1, y1, x2, y2))

    # moving edges fire polarity events inside the frame's temporal window
    edges = np.concatenate(all_edges, axis=0)
    n_ev = min(len(edges) * 2, 4000)
    idx = rng.integers(0, len(edges), n_ev)
    t_lo = (frame_t - DEFAULT_WINDOW_S / 2) * 1e6
    t = np.sort(rng.integers(int(t_lo), int(t_lo + DEFAULT_WINDOW_S * 1e6), n_ev))
    pol = rng.choice([-1, 1], n_ev)
    stream = EventStream(
        t=t, x=edges[idx, 1], y=edges[idx, 0], p=pol, sensor_size=(height, width)
    )
    arr[:, :, 4] = bin_events(stream, frame_t, DEFAULT_WINDOW_S)
    return arr, boxes


def generate_corpus(out_dir, n_frames, height=DEFAULT_HEIGHT, width=DEFAULT_WIDTH, seed=0):
    """Write ``n_frames`` samples plus labels and manifest; returns the
    manifest path."""
    if n_frames < 0:
        raise ConfigError(f"frame count must be >= 0, got {n_frames}")
    if min(height, width) < MIN_SIDE:
        raise ConfigError(f"frame size {height}x{width}: height and width must be >= {MIN_SIDE}, "
                          "the smallest that fits a 12 px box")
    if height * width > MAX_FRAME_PIXELS:
        raise ConfigError(f"frame size {height}x{width} = {height * width} pixels, "
                          f"above the bound of {MAX_FRAME_PIXELS}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_frames):
        arr, boxes = make_frame(rng, height, width, frame_t=1.0 + i / 30.0)
        img = f"frame_{i:04d}.npy"
        lbl = f"frame_{i:04d}.txt"
        write_npy(out / img, arr)
        with open(out / lbl, "w") as f:
            for cls, cx, cy, w, h in boxes:
                f.write(f"{cls} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}\n")
        entries.append(ManifestEntry(img, lbl, "day" if i % 2 == 0 else "night"))
    manifest_path = out / "manifest.json"
    save_manifest(manifest_path, DatasetManifest(entries))
    return manifest_path
