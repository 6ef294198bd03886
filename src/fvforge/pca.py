"""Linear dimensionality reduction via covariance eigendecomposition.

Uses the maximum-likelihood (1/N) covariance so variance conventions line
up with the mixture model that consumes the projected descriptors.  No
whitening is applied; eigenvalues are stored with the model so it could
be added without refitting.

A fit makes two passes over the float32 stack: one for the mean, and one
that sums the centred cross products over ``COV_BLOCK_ROWS``-row blocks
(Chan, Golub & LeVeque, 1979).  Beyond the stack it holds one float64
block and two d x d arrays (the sum and one block's product), never a
float64 copy of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .normalize import DescriptorSet
from .tensors import _checked, load_model, save_model

ORTHONORMALITY_TOL = 1e-6
COV_BLOCK_ROWS = 1024  # fixed: the block size sets the covariance's summation order

_HEADER_NAME = "pca.model"


@dataclass(frozen=True)
class PcaModel:
    input_dim: int
    output_dim: int
    mean: np.ndarray        # (input_dim,)
    basis: np.ndarray       # (output_dim, input_dim), orthonormal rows
    eigenvalues: np.ndarray  # (output_dim,), nonincreasing, >= 0

    def __post_init__(self):
        if not 1 <= self.output_dim <= self.input_dim:
            raise ParameterError("need 1 <= output_dim <= input_dim")
        mean, basis, eig = _checked(
            np.float64,
            ("PCA mean", self.mean, (self.input_dim,)),
            ("PCA basis", self.basis, (self.output_dim, self.input_dim)),
            ("PCA eigenvalues", self.eigenvalues, (self.output_dim,)),
            error=NumericError,
        )
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(self.output_dim), atol=ORTHONORMALITY_TOL):
            raise NumericError("basis rows are not orthonormal")
        if np.any(np.diff(eig) > 1e-12) or np.any(eig < -1e-12):
            raise NumericError("eigenvalues must be nonincreasing and nonnegative")
        for name, arr in (("mean", mean), ("basis", basis), ("eigenvalues", eig)):
            object.__setattr__(self, name, arr)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    # Deterministic sign convention: the largest-magnitude entry of each
    # row is made nonnegative, first index winning ties.
    out = basis.copy()
    for row in out:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return out


def fit_pca(descriptors: DescriptorSet, output_dim: int) -> PcaModel:
    """Fit mean + top-``output_dim`` principal axes of a descriptor bag.

    The mean is one pass over the stack; the covariance is a second pass
    that centres ``COV_BLOCK_ROWS`` rows at a time in float64 and adds
    each block's ``x.T @ x`` into one (d, d) sum.  Memory beyond the
    stack is one block and two (d, d) arrays; each block is freed before
    the next is made.
    """
    n, d = descriptors.count, descriptors.dim
    if output_dim < 1 or output_dim > d:
        raise ParameterError(f"output_dim {output_dim} outside 1..{d}")
    if n < output_dim:
        raise ParameterError(f"{n} descriptors cannot support output_dim {output_dim}")
    points = descriptors.descriptors
    mean = points.mean(axis=0, dtype=np.float64)
    cov = np.zeros((d, d))
    for start in range(0, n, COV_BLOCK_ROWS):
        x = np.subtract(points[start:start + COV_BLOCK_ROWS], mean, dtype=np.float64)
        cov += x.T @ x
        del x  # free this block before the next one is made
    cov /= n
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigvals)[::-1][:output_dim]
    eigvals = np.clip(eigvals[order], 0.0, None)
    basis = _fix_signs(eigvecs[:, order].T)
    return PcaModel(
        input_dim=d, output_dim=output_dim,
        mean=mean, basis=basis, eigenvalues=eigvals,
    )


def project(model: PcaModel, descriptors: DescriptorSet) -> DescriptorSet:
    """Center and project a descriptor bag onto the model's basis."""
    if descriptors.dim != model.input_dim:
        raise ShapeError(
            f"descriptor dim {descriptors.dim} != model input_dim {model.input_dim}"
        )
    x = np.subtract(descriptors.descriptors, model.mean, dtype=np.float64)
    reduced = x @ model.basis.T
    return DescriptorSet(dim=model.output_dim, descriptors=reduced)


def save_pca(model: PcaModel, model_dir: str | Path) -> None:
    """Write mean/basis/eigenvalue tensors plus a header naming them."""
    save_model(
        model_dir, _HEADER_NAME,
        {"mean": model.mean, "basis": model.basis, "eigenvalues": model.eigenvalues},
    )


def load_pca(model_dir: str | Path) -> PcaModel:
    """Load a serialized model; orthonormality is re-checked on load."""
    arrays, _ = load_model(
        model_dir, _HEADER_NAME, {"mean": 1, "basis": 2, "eigenvalues": 1}
    )
    return PcaModel(
        input_dim=arrays["mean"].size, output_dim=arrays["basis"].shape[0], **arrays
    )
