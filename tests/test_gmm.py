"""Mixture fitting by EM: likelihood behavior, recovery, serialization."""

from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest

from fvforge.errors import NumericError, ParameterError, ShapeError
from fvforge.gmm import (
    DEFAULT_VARIANCE_FLOOR_FRAC,
    GmmModel,
    _log_density,
    _posterior,
    fit_gmm,
    load_gmm,
    logsumexp,
    moments,
    responsibilities,
    save_gmm,
)
from fvforge.normalize import DescriptorSet

from conftest import arrays_at_blas_threads, random_descriptors, random_gmm
from oracles import (
    gmm_moments_reference,
    gmm_responsibilities_reference,
    log_density_expanded,
    log_likelihood,
    logsumexp_reference,
    posterior_expanded,
)


def _two_blob_set(rng, n_per=400, d=3, separation=6.0):
    a = rng.normal(0.0, 1.0, (n_per, d))
    b = rng.normal(separation, 1.0, (n_per, d))
    return DescriptorSet(d, np.vstack([a, b]))


def test_logsumexp_matches_reference(rng):
    for _ in range(50):
        vals = rng.normal(0.0, 50.0, rng.integers(1, 20))
        assert abs(logsumexp(vals) - logsumexp_reference(vals.tolist())) < 1e-9


def test_logsumexp_handles_extreme_magnitudes():
    assert np.isfinite(logsumexp(np.array([-1e6, -1e6 + 1.0])))
    big = logsumexp(np.array([1000.0, 1000.0]))
    assert abs(big - (1000.0 + np.log(2.0))) < 1e-9


def test_responsibilities_match_density_ratio_reference(rng):
    model = random_gmm(rng, 3, 4)
    x = random_descriptors(rng, 40, 4).descriptors.astype(np.float64)
    ours = responsibilities(model, x, x * x)
    ref = gmm_responsibilities_reference(
        model.weights.tolist(),
        model.means.tolist(),
        model.variances.tolist(),
        x.tolist(),
    )
    np.testing.assert_allclose(ours, np.asarray(ref), atol=1e-10)
    np.testing.assert_allclose(ours.sum(axis=1), 1.0, atol=1e-12)


def test_moments_match_loop_reference(rng):
    model = random_gmm(rng, 3, 4)
    ds = random_descriptors(rng, 40, 4)
    x = ds.descriptors.astype(np.float64)
    gamma = responsibilities(model, x, x * x)
    ref = gmm_moments_reference(gamma.tolist(), x.tolist())
    for ours, expected in zip(moments(gamma, x, x * x), ref):
        np.testing.assert_allclose(ours, np.asarray(expected), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n, K, d", [(3840, 16, 32), (11760, 4, 64), (5000, 256, 64)])
def test_in_place_log_density_is_bitwise_the_expanded_formula(rng, n, K, d):
    """Doubling the weights instead of the points and negating before the
    add are exact in floating point, and so is computing in place, so no
    bit of a fit or an encoding may move."""
    model = random_gmm(rng, K, d)
    x = rng.normal(0.0, 2.0, (n, d))
    params = (model.weights, model.means, model.variances)
    assert np.array_equal(_log_density(x, x * x, *params), log_density_expanded(x, *params))
    for ours, expected in zip(_posterior(x, x * x, *params), posterior_expanded(x, *params)):
        assert np.array_equal(ours, expected)


def test_fit_recovers_two_separated_blobs(rng):
    ds = _two_blob_set(rng)
    model = fit_gmm(ds, 2, seed=3)
    order = np.argsort(model.means[:, 0])
    np.testing.assert_allclose(model.means[order[0]], 0.0, atol=0.2)
    np.testing.assert_allclose(model.means[order[1]], 6.0, atol=0.2)
    np.testing.assert_allclose(model.weights, 0.5, atol=0.05)


def test_fit_trace_is_monotone(rng):
    for seed in range(8):
        ds = random_descriptors(np.random.default_rng(seed), 300, 3)
        model = fit_gmm(ds, 3, seed=seed)
        trace = np.asarray(model.fit_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) >= -1e-10)


def test_fit_is_deterministic(rng):
    ds = _two_blob_set(rng, n_per=150)
    a = fit_gmm(ds, 2, seed=11)
    b = fit_gmm(ds, 2, seed=11)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.variances, b.variances)


def test_different_seeds_may_differ_but_both_fit(rng):
    ds = _two_blob_set(rng, n_per=200)
    a = fit_gmm(ds, 2, seed=1)
    b = fit_gmm(ds, 2, seed=2)
    # Average log-likelihood should be nearly identical on this easy set.
    assert abs(a.fit_trace[-1] - b.fit_trace[-1]) < 0.05


def test_duplicated_points_collapse_variance_to_floor(rng):
    # All-identical descriptors: variance hits its floor, no crash.
    data = np.tile(rng.normal(size=3), (50, 1))
    model = fit_gmm(DescriptorSet(3, data), 1, seed=0)
    assert np.all(model.variances > 0.0)
    np.testing.assert_allclose(model.means[0], data[0], atol=1e-5)


@pytest.mark.parametrize("K", [3, 4])
def test_component_resets_keep_a_valid_deterministic_model(rng, caplog, K):
    # Two distinct points and K > 2: k-means leaves clusters empty and EM
    # sees components collapse, so both reset paths run.
    values = np.array([[0.0, 1.0], [3.0, -2.0]])
    data = values[rng.integers(0, 2, 100)]
    ds = DescriptorSet(2, data)
    with caplog.at_level(logging.WARNING, logger="fvforge.gmm"):
        a = fit_gmm(ds, K, seed=4)
    assert any("stage=gmm-reset" in r.getMessage() for r in caplog.records)
    assert abs(a.weights.sum() - 1.0) < 1e-12
    assert np.all(a.variances >= DEFAULT_VARIANCE_FLOOR_FRAC * data.var(axis=0))
    b = fit_gmm(ds, K, seed=4)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.variances, b.variances)


def test_subsampled_fit_is_logged_deterministic_and_widens_only_the_kept_rows(caplog):
    """Above ``max_points`` the fit runs on a seeded subsample, and only
    the kept float32 rows are converted to float64."""
    n, d, kept = 20_000, 32, 500
    data = np.random.default_rng(3).normal(size=(n, d)).astype(np.float32)
    data[: n // 2] += 4.0
    ds = DescriptorSet(d, data)
    with caplog.at_level(logging.INFO, logger="fvforge.gmm"):
        tracemalloc.start()
        try:
            a = fit_gmm(ds, 2, seed=5, max_iters=5, max_points=kept)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert any(
        f"stage=gmm-subsample kept={kept} of={n}" in r.getMessage() for r in caplog.records
    )
    assert peak < 0.25 * n * d * 8
    b = fit_gmm(ds, 2, seed=5, max_iters=5, max_points=kept)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.variances, b.variances)
    assert a.fit_trace == b.fit_trace


_FIT_AND_ENCODE = """
import sys
import numpy as np
from fvforge.fisher import encode_fv
from fvforge.gmm import fit_gmm
from fvforge.normalize import DescriptorSet

rng = np.random.default_rng(5)
x = rng.normal(size=(6000, 24)) + 3.0 * rng.integers(0, 4, size=(6000, 1))
model = fit_gmm(DescriptorSet(24, x), 8, seed=3, max_iters=10)
fv = encode_fv(model, DescriptorSet(24, x[:3000]))
np.savez(sys.argv[1], means=model.means, variances=model.variances, fv=fv.data)
"""


def test_fit_and_encode_do_not_depend_on_blas_threads(tmp_path):
    """Fitted parameters and Fisher vectors are bitwise equal at 1 and 2 BLAS threads."""
    results = arrays_at_blas_threads(_FIT_AND_ENCODE, tmp_path)
    for key in ("means", "variances", "fv"):
        np.testing.assert_array_equal(results[0][key], results[1][key])


def test_fit_preconditions(rng):
    ds = random_descriptors(rng, 10, 3)
    with pytest.raises(ParameterError):
        fit_gmm(ds, 0)
    with pytest.raises(ParameterError):
        fit_gmm(ds, 11)  # fewer points than components
    with pytest.raises(ParameterError):
        fit_gmm(ds, 2, tol=0.0)


def test_nan_tol_and_negative_seed_are_rejected(rng):
    """A NaN tol would never stop EM before max_iters."""
    ds = random_descriptors(rng, 10, 3)
    with pytest.raises(ParameterError, match="tol"):
        fit_gmm(ds, 2, tol=float("nan"))
    with pytest.raises(ParameterError, match="seed"):
        fit_gmm(ds, 2, seed=-1)


def test_responsibilities_dim_mismatch(rng):
    model = random_gmm(rng, 2, 4)
    x = random_descriptors(rng, 5, 3).descriptors.astype(np.float64)
    with pytest.raises(ShapeError):
        responsibilities(model, x, x * x)


def test_model_invariants():
    with pytest.raises(NumericError):
        GmmModel(
            K=2, dim=1,
            weights=np.array([0.7, 0.7]),
            means=np.zeros((2, 1)),
            variances=np.ones((2, 1)),
        )
    with pytest.raises(NumericError):
        GmmModel(
            K=2, dim=1,
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 1)),
            variances=np.array([[1.0], [0.0]]),
        )


def test_save_load_round_trip(rng, tmp_path):
    model = fit_gmm(_two_blob_set(rng, n_per=100), 2, seed=5)
    save_gmm(model, tmp_path / "gmm")
    back = load_gmm(tmp_path / "gmm")
    assert back.K == model.K and back.dim == model.dim
    np.testing.assert_allclose(back.means, model.means, atol=1e-5)
    np.testing.assert_allclose(back.weights, model.weights, atol=1e-6)
    assert abs(back.weights.sum() - 1.0) < 1e-12  # renormalized on load


def test_loaded_model_scores_like_original(rng, tmp_path):
    ds = _two_blob_set(rng, n_per=80)
    model = fit_gmm(ds, 2, seed=5)
    save_gmm(model, tmp_path / "gmm")
    back = load_gmm(tmp_path / "gmm")
    probe = random_descriptors(rng, 30, 3).descriptors
    assert abs(log_likelihood(back, probe) - log_likelihood(model, probe)) < 1e-2
