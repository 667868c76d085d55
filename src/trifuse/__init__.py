"""Tri-modal (RGB / thermal / event) detection backbone toolkit.

A forward-only numpy implementation of a dual-stream hierarchical
transformer with pluggable stage-wise fusion operators, the surrounding
data pipeline, a feature-pyramid neck, COCO-style detection metrics and a
config-driven ablation harness.
"""

from .backbone import (
    BackboneConfig,
    StageFeature,
    StreamSplit,
    count_params,
    forward_dual,
    forward_single,
    split_streams,
)
from .data import (
    DatasetManifest,
    GroundTruthBox,
    NormStats,
    TriModalFrame,
    compute_stats,
    default_stats,
    denormalize,
    filter_split,
    load_frame,
    load_manifest,
    normalize,
    pad_to_stride,
    read_npy,
    write_npy,
)
from .errors import (
    ConfigError,
    FormatError,
    ShapeError,
    TrifuseError,
    ValidationError,
)
from .events import DEFAULT_WINDOW_S, EventStream, bin_events
from .fusion import (
    FusionConfig,
    GatePack,
    bite,
    cssa,
    gaff,
    mage,
    mage_bite,
    mage_only,
)
from .harness import RunConfig, RunReport, run_grid, run_ablation_grid, run_single
from .metrics import (
    Detection,
    EvalReport,
    GroundTruth,
    average_precision,
    evaluate,
    iou,
)
from .neck import Pyramid, fpn
from .synth import generate_corpus
from .tensors import ParamSpec, ParamStore, init_params, param_count
from .verify import run_verification

__version__ = "0.1.0"
