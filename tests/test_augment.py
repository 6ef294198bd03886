"""View geometry (scale, five-crop, flips) and sum pooling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvforge.augment import plan_views, scaled_size, sum_pool
from fvforge.errors import ParameterError, ShapeError
from fvforge.tensors import GlobalVector

from oracles import scaled_size_reference, sum_pool_reference


def test_scaled_size_frozen_examples():
    # 512x341 at smallest-side 256: 512*256/341 = 384.37... -> 384.
    assert scaled_size(512, 341, 256) == (384, 256)
    assert scaled_size(341, 512, 256) == (256, 384)
    assert scaled_size(500, 500, 300) == (300, 300)
    # Exact .5 rounds away from zero: 3*3/2 = 4.5 -> 5.
    assert scaled_size(3, 2, 3) == (5, 3)


@settings(max_examples=200, deadline=None)
@given(
    w=st.integers(1, 4000), h=st.integers(1, 4000), s=st.integers(1, 1000)
)
def test_scaled_size_matches_reference(w, h, s):
    assert scaled_size(w, h, s) == scaled_size_reference(w, h, s)


def test_plan_views_reference_geometry():
    plan = plan_views(512, 512, scales=(256, 384, 512), crop_size=224)
    assert len(plan.views) == 30  # 3 scales x 5 crops x 2 flips
    by_scale = {}
    for v in plan.views:
        by_scale.setdefault(v.scale_smallest_side, []).append(v)
    assert sorted(by_scale) == [256, 384, 512]
    # Center crop of the 384-scaled square image sits at the floored midpoint.
    centers = [
        (v.crop_x, v.crop_y)
        for v in by_scale[384]
        if (v.crop_x, v.crop_y) not in {(0, 0), (160, 0), (0, 160), (160, 160)}
    ]
    assert set(centers) == {(80, 80)}


def test_plan_views_no_flips_halves_count():
    plan = plan_views(512, 512, scales=(256,), crop_size=224, include_flips=False)
    assert len(plan.views) == 5
    assert not any(v.flipped for v in plan.views)


def test_plan_views_dedupes_coincident_crops():
    # Square image at scale == crop: all five crops coincide at the origin.
    plan = plan_views(300, 300, scales=(224,), crop_size=224)
    assert len(plan.views) == 2  # one distinct crop, flipped and not


def test_plan_views_rejects_crop_larger_than_scale():
    with pytest.raises(ParameterError):
        plan_views(500, 400, scales=(256, 200), crop_size=224)


@settings(max_examples=300, deadline=None)
@given(
    w=st.integers(10, 3000),
    h=st.integers(10, 3000),
    scale=st.integers(224, 800),
)
def test_plan_views_crops_always_in_bounds(w, h, scale):
    plan = plan_views(w, h, scales=(scale,), crop_size=224)
    sw, sh = scaled_size(w, h, scale)
    for v in plan.views:
        assert 0 <= v.crop_x <= sw - v.crop_size
        assert 0 <= v.crop_y <= sh - v.crop_size


def test_sum_pool_global_vectors_matches_reference(rng):
    vecs = [GlobalVector(5, rng.normal(size=5)) for _ in range(4)]
    pooled = sum_pool([v.data for v in vecs])
    expected = sum_pool_reference([v.data.astype(np.float64).tolist() for v in vecs])
    assert pooled.dtype == np.float64
    np.testing.assert_allclose(pooled, expected, rtol=1e-12)


def test_sum_pool_rejects_mixed_inputs(rng):
    with pytest.raises(ShapeError):
        sum_pool([np.ones(3), np.ones(4)])
    with pytest.raises(ShapeError):
        sum_pool([rng.normal(size=12), rng.normal(size=(2, 6))])
    with pytest.raises(ParameterError):
        sum_pool([])
