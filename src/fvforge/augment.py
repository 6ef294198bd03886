"""Deterministic test-time crop/flip/scale view geometry and sum pooling.

The enumeration covers, per scale, the four corner crops plus the center
crop of the aspect-preserving resize whose smallest side equals that
scale, optionally doubled by horizontal flips.  Pixel work happens
upstream; this module only emits coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class View:
    scale_smallest_side: int
    crop_x: int
    crop_y: int
    crop_size: int
    flipped: bool


@dataclass(frozen=True)
class ViewPlan:
    views: tuple[View, ...]


def scaled_size(image_width: int, image_height: int, scale: int) -> tuple[int, int]:
    """Aspect-preserving resize target with min(side) == scale.

    The long side rounds half away from zero, computed in integer
    arithmetic so the result is platform-independent.
    """
    if image_width <= image_height:
        w = scale
        h = (2 * image_height * scale + image_width) // (2 * image_width)
    else:
        h = scale
        w = (2 * image_width * scale + image_height) // (2 * image_height)
    return w, h


def plan_views(
    image_width: int,
    image_height: int,
    scales: Sequence[int],
    crop_size: int,
    include_flips: bool = True,
) -> ViewPlan:
    """Enumerate the 5-crop (4 corners + center) family over all scales.

    Crop origins are {0, W'-crop} x {0, H'-crop} with the center at the
    floored midpoint.  Views are emitted scale by scale, crop by crop,
    unflipped before flipped; coincident crops (possible only when a
    scale equals the crop size on a square image) are dropped, so the
    |scales| * 5 * (1 + flips) count holds whenever crops are distinct.
    """
    if image_width < 1 or image_height < 1:
        raise ParameterError("image dimensions must be positive")
    if crop_size < 1:
        raise ParameterError("crop_size must be positive")
    if not scales:
        raise ParameterError("at least one scale is required")
    for s in scales:
        if s < 1:
            raise ParameterError(f"scale {s} must be positive")
        if crop_size > s:
            raise ParameterError(f"crop_size {crop_size} exceeds scale {s}")

    views: list[View] = []
    seen: set[tuple] = set()
    flips = (False, True) if include_flips else (False,)
    for s in scales:
        w, h = scaled_size(image_width, image_height, s)
        mx, my = w - crop_size, h - crop_size
        origins = ((0, 0), (mx, 0), (0, my), (mx, my), (mx // 2, my // 2))
        for x, y in origins:
            for flip in flips:
                key = (s, x, y, crop_size, flip)
                if key in seen:
                    continue
                seen.add(key)
                views.append(View(s, x, y, crop_size, flip))
    return ViewPlan(views=tuple(views))


def sum_pool(view_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise float64 sum of per-view arrays that share one shape.

    Summation only; whether the caller normalizes or rounds before or
    after pooling is a pipeline policy, not decided here.
    """
    if not view_vectors:
        raise ParameterError("sum_pool requires at least one view")
    shape = np.shape(view_vectors[0])
    if any(np.shape(v) != shape for v in view_vectors):
        raise ShapeError("sum_pool inputs must share one shape")
    return np.sum([np.asarray(v, dtype=np.float64) for v in view_vectors], axis=0)
