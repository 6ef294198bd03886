"""Channel/spatial normalization of conv feature maps and descriptor bags.

Both transforms divide by a max-magnitude statistic, so they are invariant
to positive rescaling of the input map and bounded to [-1, 1].  The
normalized per-position channel vectors are the local descriptors every
downstream encoder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tensors import FeatureMap, _checked

VARIANTS = ("channel", "spatial")

DEFAULT_EPSILON = 1e-12


@dataclass(frozen=True)
class DescriptorSet:
    """A bag of fixed-dimension local descriptors.

    ``descriptors`` is an (N, dim) float32 array; float32 matches the
    tensor container these sets serialize to, so the in-memory value and
    its file round-trip are identical.
    """

    dim: int
    descriptors: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("descriptor dim must be positive")
        (descriptors,) = _checked(
            np.float32, ("DescriptorSet", self.descriptors, (None, self.dim))
        )
        object.__setattr__(self, "descriptors", descriptors)

    @property
    def count(self) -> int:
        return self.descriptors.shape[0]


def _peak_normalize(fmap: FeatureMap, axis) -> FeatureMap:
    """Divide the map by its max magnitude over ``axis``; an all-zero
    slice stays zero thanks to the epsilon floor."""
    data = fmap.data.astype(np.float64)
    peak = np.maximum(data.max(axis, keepdims=True), -data.min(axis, keepdims=True))
    data /= np.maximum(peak, DEFAULT_EPSILON, out=peak)
    return FeatureMap(
        height=fmap.height,
        width=fmap.width,
        channels=fmap.channels,
        data=data,
        nonnegative=fmap.nonnegative,
    )


def spatial_normalize(fmap: FeatureMap) -> FeatureMap:
    """Divide each channel plane by its own spatial max magnitude.

    Output values lie in [-1, 1]; all-zero channels stay zero.
    """
    return _peak_normalize(fmap, (0, 1))


def channel_normalize(fmap: FeatureMap) -> FeatureMap:
    """Divide each position's channel vector by its max-magnitude entry."""
    return _peak_normalize(fmap, 2)


def normalize_variant(fmap: FeatureMap, variant: str) -> FeatureMap:
    """Apply one named normalization variant to a feature map."""
    if variant == "channel":
        return channel_normalize(fmap)
    if variant == "spatial":
        return spatial_normalize(fmap)
    raise ParameterError(f"unknown variant '{variant}'; choose from {VARIANTS}")


def extract_descriptors(fmap: FeatureMap) -> DescriptorSet:
    """Flatten a map into height*width descriptors in row-major position order."""
    flat = fmap.data.reshape(fmap.height * fmap.width, fmap.channels)
    return DescriptorSet(dim=fmap.channels, descriptors=flat)


def variant_descriptors(fmap: FeatureMap, variant: str) -> DescriptorSet:
    """Normalize a map with one variant and extract its descriptors."""
    return extract_descriptors(normalize_variant(fmap, variant))
