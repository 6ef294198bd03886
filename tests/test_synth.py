"""Synthetic dataset generator: determinism, layout, and tensor contents."""

from __future__ import annotations

import numpy as np
import pytest

from fvforge.errors import ParameterError
from fvforge.synth import SynthSpec, generate_dataset
from fvforge.tensors import FeatureMap, GlobalVector, read_tensor

SPEC = SynthSpec(
    classes=3, images_per_class=5, seed=21, views=2, fc_dim=7, map_size=4, map_channels=6
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    return root, generate_dataset(root, SPEC)


def test_layout_counts_and_roles(dataset):
    _, manifest = dataset
    assert manifest.class_names == ("class00", "class01", "class02")
    assert len(manifest.entries) == 15
    assert len(manifest.split("test")) == 3 * SPEC.test_per_class
    # The last images of each class hold the test role.
    for k in range(3):
        per_class = [e for e in manifest.entries if e.label == k]
        roles = [e.role for e in per_class]
        assert roles == ["train"] * (5 - SPEC.test_per_class) + ["test"] * SPEC.test_per_class


def test_every_entry_lists_all_layers_and_views(dataset):
    _, manifest = dataset
    for entry in manifest.entries:
        for stream in ("object", "scene"):
            for layer in ("prob", "fc7", "conv5_3"):
                assert len(entry.paths_for(stream, layer)) == SPEC.views


def test_tensor_kinds_and_shapes(dataset):
    _, manifest = dataset
    entry = manifest.entries[0]
    prob = read_tensor(entry.paths_for("object", "prob")[0])
    assert isinstance(prob, GlobalVector) and prob.dim == 3
    assert prob.nonnegative
    assert abs(float(prob.data.sum()) - 1.0) < 1e-5  # softmax rows
    fc = read_tensor(entry.paths_for("scene", "fc7")[1])
    assert isinstance(fc, GlobalVector) and fc.dim == 7
    conv = read_tensor(entry.paths_for("object", "conv5_3")[0])
    assert isinstance(conv, FeatureMap)
    assert (conv.height, conv.width, conv.channels) == (4, 4, 6)


def test_generation_is_deterministic(dataset, tmp_path):
    root, manifest = dataset
    again = generate_dataset(tmp_path, SPEC)
    assert (tmp_path / "data.manifest").read_text() == (root / "data.manifest").read_text()
    ours = manifest.entries[3].paths_for("object", "conv5_3")[0]
    theirs = again.entries[3].paths_for("object", "conv5_3")[0]
    assert ours.read_bytes() == theirs.read_bytes()


def test_seed_changes_the_data(dataset, tmp_path):
    root, manifest = dataset
    other = generate_dataset(
        tmp_path,
        SynthSpec(
            classes=3, images_per_class=5, seed=22, views=2,
            fc_dim=7, map_size=4, map_channels=6,
        ),
    )
    ours = manifest.entries[0].paths_for("object", "fc7")[0]
    theirs = other.entries[0].paths_for("object", "fc7")[0]
    assert ours.read_bytes() != theirs.read_bytes()


def test_spec_validation():
    with pytest.raises(ParameterError):
        SynthSpec(classes=1)
    with pytest.raises(ParameterError):
        SynthSpec(images_per_class=1)
    with pytest.raises(ParameterError):
        SynthSpec(test_fraction=0.0)
    with pytest.raises(ParameterError):
        SynthSpec(views=0)
    with pytest.raises(ParameterError):
        SynthSpec(seed=-1)
    with pytest.raises(ParameterError):
        SynthSpec(noise_scale=-0.1)
