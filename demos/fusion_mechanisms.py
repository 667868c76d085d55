"""Run every fusion mechanism on the same pair of feature streams.

All five operators map two (B, C, H, W) maps to one, so they are drop-in
replacements for each other at any backbone stage, and each returns its
diagnostics beside the map.  This script shows the output statistics and
per-mechanism diagnostics side by side.
"""

import numpy as np

from trifuse.fusion import FusionConfig, apply_fusion, fusion_param_specs
from trifuse.tensors import init_params

rng = np.random.default_rng(7)
c = 32
xa = rng.standard_normal((1, c, 12, 16)).astype(np.float32)
xb = rng.standard_normal((1, c, 12, 16)).astype(np.float32)

for mechanism in ("mage_bite", "mage_only", "bite_only", "cssa", "gaff"):
    cfg = FusionConfig(mechanism=mechanism, stages=frozenset({1}))
    params = init_params(fusion_param_specs(cfg, c, "fuse.s1"), seed=0)
    fused, diagnostics = apply_fusion(cfg, xa, xb, params, "fuse.s1")
    stats = f"mean {fused.mean():+.3f} std {fused.std():.3f}"
    extras = ", ".join(f"{k}={v:.3f}" for k, v in diagnostics.items())
    print(f"{mechanism:>10}: {fused.shape} {stats}  {extras}")

# the switching mechanism exposes its threshold: higher tau swaps more channels
print("\nchannel switching vs threshold:")
for tau in (0.1, 0.5, 0.9):
    cfg = FusionConfig(mechanism="cssa", stages=frozenset({1}), tau=tau)
    params = init_params(fusion_param_specs(cfg, c, "fuse.s1"), seed=0)
    _, diagnostics = apply_fusion(cfg, xa, xb, params, "fuse.s1")
    print(f"  tau={tau}: swap fraction {diagnostics['swap_fraction']:.2f}")
