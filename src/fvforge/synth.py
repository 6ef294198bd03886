"""Seeded synthetic activation datasets for self-contained end-to-end runs.

No network is involved: each class gets Gaussian-parameterized fake
activations per stream — a softmax-like score vector biased toward the
true class, a global fully-connected vector around a class mean, and a
small conv map whose channel statistics depend on the class.  Every file
uses the package tensor format and a manifest ties them together with
train/test roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import ParameterError
from .tensors import (
    STREAMS,
    FeatureMap,
    GlobalVector,
    Manifest,
    ManifestEntry,
    load_manifest,
    write_manifest,
    write_tensor,
)


@dataclass(frozen=True)
class SynthSpec:
    """Size and signal-strength knobs for one generated dataset."""

    classes: int = 10
    images_per_class: int = 20
    seed: int = 7
    views: int = 1
    test_fraction: float = 0.25
    fc_dim: int = 32
    map_size: int = 6
    map_channels: int = 16
    class_scale: float = 2.0
    noise_scale: float = 0.5

    def __post_init__(self):
        if self.classes < 2:
            raise ParameterError("need at least 2 classes")
        if self.images_per_class < 2:
            raise ParameterError("need at least 2 images per class")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")
        if self.views < 1:
            raise ParameterError("views must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError("test_fraction must lie in (0, 1)")
        if self.fc_dim < 1 or self.map_size < 1 or self.map_channels < 1:
            raise ParameterError("feature dimensions must be positive")
        if not (0.0 < self.class_scale < np.inf and 0.0 <= self.noise_scale < np.inf):
            raise ParameterError(
                "class_scale must be positive and noise_scale nonnegative, both finite"
            )

    @property
    def test_per_class(self) -> int:
        return max(1, round(self.images_per_class * self.test_fraction))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def generate_dataset(out_dir: str | Path, spec: SynthSpec | None = None) -> Manifest:
    """Write tensors + manifest under ``out_dir`` and return the manifest.

    Deterministic for a fixed spec: one generator seeded with
    ``spec.seed`` drives all sampling in a fixed order.
    """
    spec = spec or SynthSpec()
    out = Path(out_dir)
    tensor_dir = out / "tensors"
    tensor_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    layers = PipelineConfig()  # the layers a default run reads

    class_names = [f"class{k:02d}" for k in range(spec.classes)]
    # Per-stream class prototypes; streams get independent draws so the
    # two carry complementary (not identical) signal.
    fc_means = {
        stream: spec.class_scale * rng.standard_normal((spec.classes, spec.fc_dim))
        for stream in STREAMS
    }
    conv_means = {
        stream: spec.class_scale
        * rng.standard_normal((spec.classes, spec.map_channels))
        for stream in STREAMS
    }

    entries = []
    test_start = spec.images_per_class - spec.test_per_class
    for k in range(spec.classes):
        for j in range(spec.images_per_class):
            image_id = f"{class_names[k]}_im{j:03d}"
            role = "test" if j >= test_start else "train"
            views = []
            for stream in STREAMS:
                for v in range(spec.views):
                    logits = spec.noise_scale * rng.standard_normal(spec.classes)
                    logits[k] += spec.class_scale
                    fc = fc_means[stream][k] + spec.noise_scale * rng.standard_normal(
                        spec.fc_dim
                    )
                    conv = conv_means[stream][k] + spec.noise_scale * rng.standard_normal(
                        (spec.map_size, spec.map_size, spec.map_channels)
                    )
                    tensors = {
                        layers.score_layer: GlobalVector(
                            spec.classes, _softmax(logits), nonnegative=True
                        ),
                        layers.global_layer: GlobalVector(spec.fc_dim, fc),
                        layers.conv_layer: FeatureMap(*conv.shape, conv),
                    }
                    for layer, tensor in tensors.items():
                        path = tensor_dir / f"{image_id}.{stream}.v{v}.{layer}.fvt"
                        write_tensor(tensor, path)
                        views.append((stream, layer, path))
            entries.append(ManifestEntry(image_id, k, tuple(views), role))

    manifest = Manifest(class_names=tuple(class_names), entries=tuple(entries))
    write_manifest(manifest, out / "data.manifest")
    # Reload so the returned value is exactly what later stages will read.
    return load_manifest(out / "data.manifest")
