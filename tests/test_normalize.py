"""Channel/spatial map normalization and descriptor extraction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fvforge.errors import DataError, ParameterError, ShapeError
from fvforge.normalize import (
    DescriptorSet,
    channel_normalize,
    extract_descriptors,
    normalize_variant,
    spatial_normalize,
)
from fvforge.tensors import FINITE_CHECK_ROWS, FeatureMap, read_tensor, write_rows

from oracles import (
    channel_normalize_reference,
    map_to_descriptors,
    spatial_normalize_reference,
)


def _random_map(rng, h=5, w=4, c=6):
    return FeatureMap(h, w, c, rng.normal(0.0, 3.0, (h, w, c)))


def test_spatial_normalize_matches_reference(rng):
    fmap = _random_map(rng)
    ours = spatial_normalize(fmap)
    ref = spatial_normalize_reference(fmap.data.astype(np.float64).tolist())
    np.testing.assert_allclose(ours.data, np.asarray(ref, np.float32), atol=1e-6)


def test_channel_normalize_matches_reference(rng):
    fmap = _random_map(rng)
    ours = channel_normalize(fmap)
    ref = channel_normalize_reference(fmap.data.astype(np.float64).tolist())
    np.testing.assert_allclose(ours.data, np.asarray(ref, np.float32), atol=1e-6)


def test_normalized_values_bounded_with_unit_peak(rng):
    fmap = _random_map(rng, 7, 7, 9)
    for variant in ("channel", "spatial"):
        out = normalize_variant(fmap, variant).data
        assert np.abs(out).max() <= 1.0 + 1e-6
        if variant == "spatial":
            # Every channel plane attains magnitude 1 somewhere.
            peaks = np.abs(out).max(axis=(0, 1))
        else:
            peaks = np.abs(out).max(axis=2)
        np.testing.assert_allclose(peaks, 1.0, atol=1e-6)


def test_normalization_is_scale_invariant(rng):
    data = rng.normal(0.0, 2.0, (4, 4, 5))
    for variant in ("channel", "spatial"):
        base = normalize_variant(FeatureMap(4, 4, 5, data), variant).data
        scaled = normalize_variant(FeatureMap(4, 4, 5, 37.0 * data), variant).data
        np.testing.assert_allclose(scaled, base, atol=1e-6)


def test_zero_map_stays_zero():
    fmap = FeatureMap(3, 3, 2, np.zeros((3, 3, 2)))
    assert not spatial_normalize(fmap).data.any()
    assert not channel_normalize(fmap).data.any()


def test_normalize_variant_rejects_unknown():
    fmap = FeatureMap(2, 2, 2, np.ones((2, 2, 2)))
    with pytest.raises(ParameterError):
        normalize_variant(fmap, "global")


def test_extract_descriptors_row_major_order(rng):
    fmap = _random_map(rng, 3, 2, 4)
    ds = extract_descriptors(fmap)
    assert ds.count == 6
    assert ds.dim == 4
    np.testing.assert_array_equal(ds.descriptors[1], fmap.data[0, 1])
    np.testing.assert_array_equal(ds.descriptors[2], fmap.data[1, 0])


def test_descriptor_container_round_trip(rng, tmp_path):
    ds = DescriptorSet(4, rng.normal(size=(9, 4)))
    write_rows(tmp_path / "bag.fvt", ds.count, ds.descriptors)
    container = read_tensor(tmp_path / "bag.fvt")
    assert (container.height, container.width, container.channels) == (9, 1, 4)
    back = map_to_descriptors(container)
    np.testing.assert_array_equal(back.descriptors, ds.descriptors)


def test_map_to_descriptors_requires_width_one(rng):
    with pytest.raises(ShapeError):
        map_to_descriptors(_random_map(rng, 3, 2, 4))


def test_descriptor_set_validation(rng):
    with pytest.raises(ShapeError):
        DescriptorSet(3, rng.normal(size=(4, 2)))
    with pytest.raises(ParameterError):
        DescriptorSet(0, np.zeros((4, 0)))


def test_descriptor_set_checks_finiteness_without_a_whole_twin():
    """The finiteness check over 16 blocks of rows holds one boolean
    block at a time, not a boolean copy of the whole array (0.25x)."""
    rows = np.ones((16 * FINITE_CHECK_ROWS, 32), np.float32)
    tracemalloc.start()
    try:
        DescriptorSet(32, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * rows.nbytes


@pytest.mark.parametrize("row", [0, FINITE_CHECK_ROWS - 1, FINITE_CHECK_ROWS, -1])
def test_descriptor_set_finds_a_non_finite_value_in_any_block(row):
    rows = np.zeros((2 * FINITE_CHECK_ROWS + 3, 4), np.float32)
    rows[row, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        DescriptorSet(4, rows)
