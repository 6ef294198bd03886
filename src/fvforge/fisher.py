"""Fisher vector encoding of descriptor bags and its post-normalizations.

One encoded vector holds, per mixture component, a first-order block and a
second-order block of the component's soft-assigned standardized
residuals, laid out [u_1, v_1, ..., u_K, v_K].  Both blocks are closed
forms in the bag's sufficient statistics S0, S1, S2 from ``gmm.moments``,
the same kernel EM and its initialization use.  The 1/N averaging makes
the encoding invariant to duplicating the descriptor bag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from .errors import ParameterError
from .normalize import DescriptorSet
from .tensors import _checked


@dataclass(frozen=True)
class FisherVector:
    """2*K*d encoding of a descriptor bag against a mixture model."""

    K: int
    d: int
    data: np.ndarray

    def __post_init__(self):
        if self.K < 1 or self.d < 1:
            raise ParameterError("K and d must be positive")
        (data,) = _checked(
            np.float64, ("FisherVector", self.data, (2 * self.K * self.d,)), flat=True
        )
        object.__setattr__(self, "data", data)


def encode_fv(model: gmm_mod.GmmModel, descriptors: DescriptorSet) -> FisherVector:
    """Encode a descriptor bag into an unnormalized Fisher vector.

    From S0, S1, S2 = gmm.moments(gamma, x, x * x) of the responsibilities
    gamma, which are computed from the same x * x, with sigma_k = sqrt(var_k):

        u_k = (S1 - S0 mu_k) / (N sigma_k sqrt(pi_k))
        v_k = ((S2 - 2 mu_k S1 + mu_k^2 S0) / var_k - S0) / (N sqrt(2 pi_k))
    """
    if descriptors.count < 1:
        raise ParameterError("cannot encode an empty descriptor set")
    x = descriptors.descriptors.astype(np.float64)
    x2 = x * x
    s0, s1, s2 = gmm_mod.moments(gmm_mod.responsibilities(model, x, x2), x, x2)
    s0, n, w = s0[:, None], x.shape[0], model.weights[:, None]
    mu, var = model.means, model.variances
    u = (s1 - s0 * mu) / (np.sqrt(var) * n * np.sqrt(w))
    v = ((s2 - 2.0 * mu * s1 + mu * mu * s0) / var - s0) / (n * np.sqrt(2.0 * w))
    return FisherVector(K=model.K, d=model.dim, data=np.hstack([u, v]))


def intra_normalize(fv: FisherVector) -> FisherVector:
    """Independently l2-normalize each per-order block of the Fisher
    vector: every u_k and every v_k (length d) is its own block.  Zero
    blocks stay zero.
    """
    blocks = fv.data.reshape(-1, fv.d).copy()
    norms = np.linalg.norm(blocks, axis=1, keepdims=True)
    np.divide(blocks, norms, out=blocks, where=norms > 0.0)
    return FisherVector(K=fv.K, d=fv.d, data=blocks.reshape(-1))


def unit_norm(vec: np.ndarray) -> np.ndarray:
    """vec / max(||vec||, 1e-12); the zero vector maps to itself."""
    return vec / max(float(np.linalg.norm(vec)), 1e-12)


def power_l2_normalize(fv: FisherVector) -> FisherVector:
    """Signed square root of every entry, then global l2 normalization."""
    data = np.sign(fv.data) * np.sqrt(np.abs(fv.data))
    return FisherVector(K=fv.K, d=fv.d, data=unit_norm(data))
