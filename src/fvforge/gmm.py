"""Diagonal-covariance Gaussian mixtures fit by EM.

All density work happens in log space through a stable log-sum-exp; raw
densities are never multiplied.  Initialization is seeded k-means++
followed by a short k-means refinement, which makes the fit a pure
function of (data, K, seed, parameters).  The k-means refinement (on
one-hot assignments), the EM M-step and Fisher encoding all derive from
the statistics S0, S1, S2 of ``moments`` (Sanchez et al., IJCV 2013).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .normalize import DescriptorSet
from .tensors import _checked, load_model, save_model

logger = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-9
DEFAULT_WEIGHT_FLOOR = 1e-6
DEFAULT_VARIANCE_FLOOR_FRAC = 1e-4
DEFAULT_MAX_FIT_POINTS = 500_000
KMEANS_REFINE_ITERS = 10
MONOTONICITY_TOL = 1e-10

_HEADER_NAME = "gmm.model"


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Stable log(sum(exp(a))) along ``axis``."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    shifted = a - amax
    np.exp(shifted, out=shifted)
    out = np.log(np.sum(shifted, axis=axis, keepdims=True)) + amax
    return out if axis is None else np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class GmmModel:
    K: int
    dim: int
    weights: np.ndarray    # (K,), positive, sums to 1
    means: np.ndarray      # (K, dim)
    variances: np.ndarray  # (K, dim), strictly positive diagonals
    fit_trace: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.K < 1 or self.dim < 1:
            raise ParameterError("K and dim must be positive")
        w, mu, var = _checked(
            np.float64,
            ("mixture weights", self.weights, (self.K,)),
            ("mixture means", self.means, (self.K, self.dim)),
            ("mixture variances", self.variances, (self.K, self.dim)),
            error=NumericError,
        )
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL or np.any(w <= 0.0):
            raise NumericError("weights must be positive and sum to 1")
        if np.any(var <= 0.0):
            raise NumericError("variances must be strictly positive")
        for name, arr in (("weights", w), ("means", mu), ("variances", var)):
            object.__setattr__(self, name, arr)


def _log_density(x, x2, weights, means, variances) -> np.ndarray:
    """Per-point, per-component log(pi_k * N(x; mu_k, var_k)), shape (N, K),
    with ``x2`` the elementwise square of ``x``.

    sum_d (x - mu_k)^2 / var_k is expanded into one quadratic form in x,
    built in place in one (N, K) array.
    """
    inv_var = 1.0 / variances
    log_norm = np.log(weights) - 0.5 * (
        means.shape[1] * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1)
    )
    out = x2 @ inv_var.T
    out -= x @ (2.0 * (means * inv_var)).T
    out += np.sum(means * means * inv_var, axis=1)
    out *= -0.5
    out += log_norm
    return out


def _posterior(x, x2, weights, means, variances) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities gamma (N, K), rows summing to 1, and log p(x) (N,)."""
    log_joint = _log_density(x, x2, weights, means, variances)
    log_px = logsumexp(log_joint, axis=1)
    log_joint -= log_px[:, None]
    return np.exp(log_joint, out=log_joint), log_px


def moments(
    gamma: np.ndarray, x: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S0 = sum_n gamma_nk (K,), S1 = gamma^T x and S2 = gamma^T x2, both
    (K, d), where ``x2`` is the elementwise square of ``x``."""
    return gamma.sum(axis=0), gamma.T @ x, gamma.T @ x2


def _estimate(gamma: np.ndarray, x: np.ndarray, x2: np.ndarray, var_floor: np.ndarray):
    """S0, means S1/S0 and floored variances S2/S0 - mean^2 (non-finite where S0 = 0)."""
    s0, s1, s2 = moments(gamma, x, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = s1 / s0[:, None]
        variances = np.maximum(s2 / s0[:, None] - means * means, var_floor)
    return s0, means, variances


def _kmeans_plus_plus(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def _assign(x: np.ndarray, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """One-hot nearest-center assignment, (N, K); ties go to the lowest index."""
    k = centers.shape[0]
    # Equal weights and unit variances: log-density = const - ||x - c||^2 / 2.
    log_joint = _log_density(x, x2, np.ones(k), centers, np.ones_like(centers))
    return np.eye(k)[np.argmax(log_joint, axis=1)]


def fit_gmm(
    descriptors: DescriptorSet,
    K: int,
    seed: int = 7,
    max_iters: int = 100,
    tol: float = 1e-5,
    *,
    max_points: int = DEFAULT_MAX_FIT_POINTS,
) -> GmmModel:
    """Fit a K-component diagonal mixture by EM.

    Stops when the per-point average log-likelihood improves by less than
    ``tol`` or after ``max_iters`` iterations, whichever comes first, and
    raises NumericError if that average ever decreases beyond float noise
    (the EM guarantee).  A component whose weight collapses below the
    floor is reset to a random data point with isotropic variance; the
    event is logged, not fatal.  Fits on more than ``max_points``
    descriptors use a seeded subsample.
    """
    if K < 1:
        raise ParameterError("K must be positive")
    if max_iters < 1:
        raise ParameterError("max_iters must be positive")
    if not tol > 0.0 or seed < 0:
        raise ParameterError("tol must be positive and seed non-negative")
    x = descriptors.descriptors
    if x.shape[0] < K:
        raise ParameterError(f"{x.shape[0]} descriptors < K={K}")
    rng = np.random.default_rng(seed)
    if x.shape[0] > max_points:
        keep = rng.choice(x.shape[0], size=max_points, replace=False)
        keep.sort()
        x = x[keep]
        logger.info("stage=gmm-subsample kept=%d of=%d", max_points, descriptors.count)
    x = x.astype(np.float64)  # only the kept float32 rows are widened
    n, d = x.shape

    global_var = x.var(axis=0)
    var_floor = np.maximum(DEFAULT_VARIANCE_FLOOR_FRAC * global_var, 1e-12)
    iso_var = np.maximum(np.full(d, global_var.mean()), var_floor)

    # k-means++ seeding, a short Lloyd refinement, then the moments of the
    # final hard assignment; an empty cluster restarts at a random point.
    means = _kmeans_plus_plus(x, K, rng)
    x2 = x * x  # squared only now, so it never coexists with the seeding's temporaries
    for _ in range(KMEANS_REFINE_ITERS + 1):
        counts, means, variances = _estimate(_assign(x, x2, means), x, x2, var_floor)
        for j in np.flatnonzero(counts == 0):
            means[j] = x[rng.integers(n)]
            variances[j] = iso_var
    weights = np.maximum(counts / n, DEFAULT_WEIGHT_FLOOR)
    weights /= weights.sum()

    trace: list[float] = []  # per-point average log-likelihood at each E-step
    check_monotone = True  # False after an iteration that reset a component
    for iteration in range(max_iters):
        gamma, log_px = _posterior(x, x2, weights, means, variances)
        avg_ll = float(log_px.mean())
        if not np.isfinite(avg_ll):
            raise NumericError("log-likelihood became non-finite during EM")
        if trace and check_monotone and avg_ll < trace[-1] - MONOTONICITY_TOL:
            raise NumericError(
                f"EM log-likelihood decreased at iteration {iteration}: "
                f"{trace[-1]:.12g} -> {avg_ll:.12g}"
            )
        trace.append(avg_ll)
        if len(trace) > 1 and avg_ll - trace[-2] < tol:
            break

        nk, means, variances = _estimate(gamma, x, x2, var_floor)
        del gamma  # so the next E-step's (N, K) arrays do not coexist with it
        new_weights = nk / n
        collapsed = np.flatnonzero(new_weights < DEFAULT_WEIGHT_FLOOR)
        check_monotone = collapsed.size == 0
        for j in collapsed:
            # Collapsed component: restart it at a random data point.
            means[j] = x[rng.integers(n)]
            variances[j] = iso_var
            new_weights[j] = 1.0 / K
            logger.warning(
                "stage=gmm-reset component=%d iteration=%d", j, iteration
            )
        weights = np.maximum(new_weights, DEFAULT_WEIGHT_FLOOR)
        weights /= weights.sum()

    return GmmModel(
        K=K, dim=d, weights=weights, means=means, variances=variances,
        fit_trace=tuple(trace),
    )


def responsibilities(model: GmmModel, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Posterior component probabilities (N, K) of a float64 (N, dim)
    descriptor array ``x``, given ``x2``, its elementwise square, via
    log-sum-exp."""
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ShapeError(f"descriptors of shape {x.shape} for model dim {model.dim}")
    return _posterior(x, x2, model.weights, model.means, model.variances)[0]


def save_gmm(model: GmmModel, model_dir: str | Path) -> None:
    """Write weights/means/variances tensors plus a header naming them."""
    save_model(
        model_dir, _HEADER_NAME,
        {"weights": model.weights, "means": model.means, "variances": model.variances},
    )


def load_gmm(model_dir: str | Path) -> GmmModel:
    """Load a serialized mixture; float32 weights are renormalized to sum to 1."""
    arrays, _ = load_model(
        model_dir, _HEADER_NAME, {"weights": 1, "means": 2, "variances": 2}
    )
    total = arrays["weights"].sum()
    if not total > 0.0:
        raise NumericError("serialized mixture weights do not sum to a positive value")
    arrays["weights"] = arrays["weights"] / total
    return GmmModel(K=arrays["weights"].size, dim=arrays["means"].shape[1], **arrays)
