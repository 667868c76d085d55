"""Generate a small synthetic corpus and feed one frame through the input
pipeline: load, normalize, pad to the stride the encoder needs."""

import tempfile
from pathlib import Path

from trifuse.data import default_stats, load_frame, load_manifest, normalize, pad_to_stride
from trifuse.synth import generate_corpus

with tempfile.TemporaryDirectory(prefix="trifuse_demo_") as tmp:
    out = Path(tmp)
    manifest_path = generate_corpus(out, n_frames=4, seed=42)
    manifest = load_manifest(manifest_path)

    print(f"corpus at {out}")
    print(f"frames: {len(manifest.entries)}, split counts: {manifest.counts()}")

    entry = manifest.entries[0]
    frame = load_frame(entry.image, entry.labels)
    print(f"\nfirst frame ({entry.day_night}): pixels {frame.pixels.shape}")
    for box in frame.boxes:
        x1, y1, x2, y2 = box.to_pixels(frame.height, frame.width)
        print(f"  box class {box.class_id}: ({x1:.0f}, {y1:.0f}) - ({x2:.0f}, {y2:.0f})")

    x = normalize(frame.pixels, default_stats())
    padded, original = pad_to_stride(x, 32)
    print(f"\nnormalized mean per channel: {[round(float(m), 3) for m in x.mean(axis=(0, 2, 3))]}")
    print(f"padded {original} -> {padded.shape[2:]} (multiple of 32)")
