"""Shared fixtures and small random-instance builders."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvforge
from fvforge.gmm import GmmModel
from fvforge.normalize import DescriptorSet


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


def random_gmm(rng: np.random.Generator, K: int, d: int) -> GmmModel:
    """A well-conditioned random mixture for oracle comparisons."""
    raw = rng.uniform(0.2, 1.0, K)
    return GmmModel(
        K=K,
        dim=d,
        weights=raw / raw.sum(),
        means=rng.normal(0.0, 2.0, (K, d)),
        variances=rng.uniform(0.5, 2.0, (K, d)),
    )


def random_descriptors(rng: np.random.Generator, n: int, d: int) -> DescriptorSet:
    return DescriptorSet(dim=d, descriptors=rng.normal(0.0, 1.5, (n, d)))


def make_blobs(
    rng: np.random.Generator,
    classes: int,
    per_class: int,
    dim: int,
    spread: float = 1.0,
    separation: float = 4.0,
):
    """Gaussian blob classification problem; returns (x, y)."""
    centers = separation * rng.standard_normal((classes, dim))
    xs, ys = [], []
    for k in range(classes):
        xs.append(centers[k] + spread * rng.standard_normal((per_class, dim)))
        ys.extend([k] * per_class)
    return np.vstack(xs), np.asarray(ys, dtype=np.int64)


def arrays_at_blas_threads(script: str, tmp_path: Path) -> list[dict]:
    """Run ``script``, which saves an .npz to ``sys.argv[1]``, in a fresh
    interpreter with OPENBLAS/OMP/MKL threads at 1 and then at 2; return
    the arrays of each run."""
    src = str(Path(fvforge.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"threads_{threads}.npz"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
        with np.load(out) as arrays:
            results.append(dict(arrays))
    return results
