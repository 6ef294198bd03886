"""Two-stream combination rules: weighted score sums and feature concatenation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .tensors import ScoreVector, _checked


@dataclass(frozen=True)
class FusionWeights:
    object_weight: float = 1.0
    scene_weight: float = 1.0

    def __post_init__(self):
        ow, sw = float(self.object_weight), float(self.scene_weight)
        if not (np.isfinite(ow) and np.isfinite(sw)):
            raise ParameterError("fusion weights must be finite")
        if ow < 0.0 or sw < 0.0:
            raise ParameterError("fusion weights must be nonnegative")
        if ow == 0.0 and sw == 0.0:
            raise ParameterError("fusion weights cannot both be zero")
        object.__setattr__(self, "object_weight", ow)
        object.__setattr__(self, "scene_weight", sw)


@dataclass(frozen=True)
class FusedFeature:
    """Concatenated two-stream feature, object block first."""

    data: np.ndarray


def fuse_scores(
    object_scores: ScoreVector,
    scene_scores: ScoreVector,
    w: FusionWeights | None = None,
) -> ScoreVector:
    """Weighted elementwise sum of the two streams' class scores."""
    w = w or FusionWeights()
    if object_scores.class_count != scene_scores.class_count:
        raise ShapeError(
            f"class count mismatch: {object_scores.class_count} vs "
            f"{scene_scores.class_count}"
        )
    fused = w.object_weight * object_scores.scores + w.scene_weight * scene_scores.scores
    return ScoreVector(class_count=object_scores.class_count, scores=fused)


def concat_features(
    object_feat: np.ndarray,
    scene_feat: np.ndarray,
    w: FusionWeights | None = None,
) -> FusedFeature:
    """[w_o * object_feat, w_s * scene_feat] as one float64 vector."""
    w = w or FusionWeights()
    o, s = _checked(
        np.float64,
        ("object stream features", object_feat, (None,)),
        ("scene stream features", scene_feat, (None,)),
        flat=True,
    )
    fused = np.concatenate([w.object_weight * o, w.scene_weight * s])
    return FusedFeature(data=fused)
