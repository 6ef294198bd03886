"""Fisher encoding against the brute-force oracle, plus its normalizations."""

from __future__ import annotations

import numpy as np
import pytest

from fvforge.errors import DataError, ParameterError, ShapeError
from fvforge.fisher import (
    FisherVector,
    encode_fv,
    intra_normalize,
    power_l2_normalize,
    unit_norm,
)
from fvforge.normalize import DescriptorSet

from conftest import random_descriptors, random_gmm
from oracles import (
    concat_variant_fvs,
    fisher_vector_reference,
    intra_normalize_reference,
    power_l2_reference,
)


def _reference_fv(model, ds):
    return np.asarray(
        fisher_vector_reference(
            model.weights.tolist(),
            model.means.tolist(),
            model.variances.tolist(),
            ds.descriptors.astype(np.float64).tolist(),
        )
    )


def test_encoding_matches_oracle(rng):
    model = random_gmm(rng, 3, 4)
    ds = random_descriptors(rng, 25, 4)
    fv = encode_fv(model, ds)
    np.testing.assert_allclose(fv.data, _reference_fv(model, ds), atol=1e-10)


def test_layout_is_interleaved_u_then_v(rng):
    model = random_gmm(rng, 2, 3)
    ds = random_descriptors(rng, 10, 3)
    fv = encode_fv(model, ds)
    ref = _reference_fv(model, ds)
    # u_0, v_0, u_1 are the first three length-d blocks.
    np.testing.assert_allclose(fv.data[0:3], ref[0:3], atol=1e-12)
    np.testing.assert_allclose(fv.data[3:6], ref[3:6], atol=1e-12)
    np.testing.assert_allclose(fv.data[6:9], ref[6:9], atol=1e-12)


def test_encoding_invariant_to_duplicating_the_bag(rng):
    model = random_gmm(rng, 2, 3)
    ds = random_descriptors(rng, 12, 3)
    doubled = DescriptorSet(3, np.vstack([ds.descriptors, ds.descriptors]))
    np.testing.assert_allclose(
        encode_fv(model, ds).data, encode_fv(model, doubled).data, atol=1e-10
    )


def test_descriptors_at_component_means_give_negative_v(rng):
    # Points exactly at a component mean: z = 0, so v-blocks go negative.
    model = random_gmm(rng, 2, 3)
    data = np.tile(model.means[0], (20, 1))
    fv = encode_fv(model, DescriptorSet(3, data))
    assert np.all(fv.data[3:6] < 0.0)  # v_0


def test_encode_preconditions(rng):
    model = random_gmm(rng, 2, 3)
    with pytest.raises(ShapeError):
        encode_fv(model, random_descriptors(rng, 5, 4))
    with pytest.raises(ParameterError):
        encode_fv(model, DescriptorSet(3, np.zeros((0, 3))))


def test_fisher_vector_container_validation(rng):
    with pytest.raises(ShapeError):
        FisherVector(2, 3, np.zeros(11))
    with pytest.raises(DataError):
        FisherVector(1, 2, np.array([1.0, np.nan, 0.0, 0.0]))


def test_intra_normalize_matches_reference(rng):
    fv = FisherVector(3, 4, rng.normal(size=24))
    ours = intra_normalize(fv)
    ref = intra_normalize_reference(fv.data.tolist(), 3, 4)
    np.testing.assert_allclose(ours.data, np.asarray(ref), atol=1e-12)
    # Every nonzero block has unit norm.
    norms = np.linalg.norm(ours.data.reshape(-1, 4), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_intra_normalize_keeps_zero_blocks_zero(rng):
    data = rng.normal(size=8)
    data[0:2] = 0.0  # u-block of the first component
    fv = intra_normalize(FisherVector(2, 2, data))
    assert not fv.data[0:2].any()


def test_power_l2_matches_reference_and_is_unit(rng):
    fv = FisherVector(2, 3, rng.normal(size=12))
    ours = power_l2_normalize(fv)
    ref = power_l2_reference(fv.data.tolist())
    np.testing.assert_allclose(ours.data, np.asarray(ref), atol=1e-12)
    assert abs(np.linalg.norm(ours.data) - 1.0) < 1e-12


def test_power_l2_compresses_peaks(rng):
    data = np.zeros(8)
    data[0] = 100.0
    data[1] = 1.0
    out = power_l2_normalize(FisherVector(2, 2, data)).data
    assert out[0] / out[1] == pytest.approx(10.0, abs=1e-9)


def test_l2_normalize_is_idempotent(rng):
    vec = rng.normal(size=6).astype(np.float32).astype(np.float64)
    once = unit_norm(vec)
    np.testing.assert_allclose(unit_norm(once), once, atol=1e-12)
    assert abs(np.linalg.norm(once) - 1.0) < 1e-12


def test_unit_norm_basics(rng):
    v = rng.normal(size=9)
    assert abs(np.linalg.norm(unit_norm(v)) - 1.0) < 1e-12
    assert not unit_norm(np.zeros(3)).any()


def test_concat_variants_requires_normalized_inputs(rng):
    raw = FisherVector(2, 2, rng.normal(size=8))
    done = power_l2_normalize(intra_normalize(raw))
    with pytest.raises(ParameterError):
        concat_variant_fvs(raw.data, done.data)
    joined = concat_variant_fvs(done.data, done.data)
    assert joined.size == 16
    assert abs(np.linalg.norm(joined) - 1.0) < 1e-12
