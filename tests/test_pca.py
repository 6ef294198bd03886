"""Projection fitting, its linear-algebra contracts, and serialization."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fvforge.errors import NumericError, ParameterError, ShapeError
from fvforge.normalize import DescriptorSet
from fvforge.pca import COV_BLOCK_ROWS, PcaModel, fit_pca, load_pca, project, save_pca

from conftest import random_descriptors
from oracles import blocked_covariance, centred_two_pass, project_reference


def test_basis_is_orthonormal_and_eigenvalues_sorted(rng):
    model = fit_pca(random_descriptors(rng, 200, 10), 6)
    gram = model.basis @ model.basis.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0.0)


def test_projection_matches_scalar_reference(rng):
    ds = random_descriptors(rng, 60, 7)
    model = fit_pca(ds, 4)
    ours = project(model, ds).descriptors
    ref = project_reference(
        model.mean.tolist(), model.basis.tolist(), ds.descriptors.astype(np.float64).tolist()
    )
    np.testing.assert_allclose(ours, np.asarray(ref, np.float32), atol=1e-4)


@pytest.mark.parametrize("rows", [5, 3840, 11760, COV_BLOCK_ROWS + 1])
def test_one_pass_centring_matches_the_two_pass_form(rng, rows):
    """Fit and projection centre exactly as a float64 copy centred in
    place does, also past numpy's 8192-element cast buffer, and the fit
    sums that copy's covariance block by block."""
    ds = random_descriptors(rng, rows, 64)
    model = fit_pca(ds, 3)
    mean, centred = centred_two_pass(ds.descriptors)
    assert np.array_equal(model.mean, mean)
    eigvals = np.linalg.eigh(blocked_covariance(centred, COV_BLOCK_ROWS))[0]
    assert np.array_equal(model.eigenvalues, np.clip(eigvals[::-1][:3], 0.0, None))
    _, centred = centred_two_pass(ds.descriptors, model.mean)
    expected = DescriptorSet(3, centred @ model.basis.T).descriptors
    assert np.array_equal(project(model, ds).descriptors, expected)


def test_fit_pca_holds_no_float64_copy_of_the_stack():
    """Beyond the float32 stack, a fit holds one centred block and two
    d x d arrays, far below a float64 copy of the stack."""
    n, d = 20_000, 64
    ds = DescriptorSet(d, np.random.default_rng(3).normal(size=(n, d)).astype(np.float32))
    tracemalloc.start()
    try:
        fit_pca(ds, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * d * 8


def test_projected_descriptors_are_decorrelated(rng):
    ds = random_descriptors(rng, 500, 8)
    model = fit_pca(ds, 5)
    z = project(model, ds).descriptors.astype(np.float64)
    # Projecting the fitting set centers it.
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-6)
    cov = (z - z.mean(0)).T @ (z - z.mean(0)) / z.shape[0]
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() < 1e-4
    # Diagonal equals the kept eigenvalues.
    np.testing.assert_allclose(np.diag(cov), model.eigenvalues, rtol=1e-3, atol=1e-5)


def test_isotropic_cloud_gives_unit_eigenvalues(rng):
    ds = DescriptorSet(6, rng.standard_normal((20000, 6)))
    model = fit_pca(ds, 6)
    np.testing.assert_allclose(model.eigenvalues, 1.0, atol=0.05)


def test_full_rank_projection_preserves_distances(rng):
    ds = random_descriptors(rng, 80, 6)
    model = fit_pca(ds, 6)
    z = project(model, ds).descriptors.astype(np.float64)
    x = ds.descriptors.astype(np.float64)
    d_orig = np.linalg.norm(x[:10, None] - x[None, :10], axis=2)
    d_proj = np.linalg.norm(z[:10, None] - z[None, :10], axis=2)
    np.testing.assert_allclose(d_proj, d_orig, atol=1e-3)


def test_sign_convention_is_deterministic(rng):
    ds = random_descriptors(rng, 150, 6)
    a = fit_pca(ds, 3)
    b = fit_pca(ds, 3)
    np.testing.assert_array_equal(a.basis, b.basis)
    # Largest-magnitude coefficient of every basis row is nonnegative.
    idx = np.argmax(np.abs(a.basis), axis=1)
    assert np.all(a.basis[np.arange(3), idx] >= 0.0)


def test_fit_preconditions(rng):
    with pytest.raises(ParameterError):
        fit_pca(random_descriptors(rng, 5, 10), 6)  # fewer points than dims
    with pytest.raises(ParameterError):
        fit_pca(random_descriptors(rng, 50, 4), 5)  # output > input dim
    with pytest.raises(ParameterError):
        fit_pca(random_descriptors(rng, 50, 4), 0)


def test_project_dim_mismatch(rng):
    model = fit_pca(random_descriptors(rng, 50, 6), 3)
    with pytest.raises(ShapeError):
        project(model, random_descriptors(rng, 10, 5))


def test_model_validates_orthonormality():
    with pytest.raises(NumericError):
        PcaModel(
            input_dim=3,
            output_dim=2,
            mean=np.zeros(3),
            basis=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            eigenvalues=np.array([2.0, 1.0]),
        )


def test_save_load_round_trip_is_exact(rng, tmp_path):
    model = fit_pca(random_descriptors(rng, 120, 8), 5)
    save_pca(model, tmp_path / "pca")
    back = load_pca(tmp_path / "pca")
    # Parameters live in float32 files; fitting already stores float32-
    # compatible values, so the round trip is exact.
    np.testing.assert_array_equal(
        back.mean, model.mean.astype(np.float32).astype(np.float64)
    )
    np.testing.assert_array_equal(
        back.basis, model.basis.astype(np.float32).astype(np.float64)
    )
    assert back.input_dim == model.input_dim
    assert back.output_dim == model.output_dim


def test_loaded_model_projects_identically_to_saved(rng, tmp_path):
    ds = random_descriptors(rng, 100, 8)
    model = fit_pca(ds, 4)
    save_pca(model, tmp_path / "pca")
    back = load_pca(tmp_path / "pca")
    probe = random_descriptors(rng, 20, 8)
    np.testing.assert_allclose(
        project(back, probe).descriptors, project(model, probe).descriptors, atol=1e-5
    )
