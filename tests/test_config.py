"""Config parsing: defaults, layered overrides, and rejection of bad values."""

from __future__ import annotations

from pathlib import Path

import pytest

from fvforge.config import DEFAULT_CONFIG_TEXT, PipelineConfig, load_config
from fvforge.errors import DataError, FormatError, ParameterError

from oracles import write_default_config


def test_defaults_without_a_file():
    cfg = load_config()
    assert PipelineConfig() == cfg
    assert cfg.scenario == "local_fv"
    assert cfg.score_layer == "prob"
    assert cfg.global_layer == "fc7"
    assert cfg.conv_layer == "conv5_3"
    assert cfg.pca_dim == 64
    assert cfg.gmm_components == 256 and cfg.gmm_seed == 7
    assert cfg.svm_c == 1.0 and cfg.svm_seed == 7
    assert cfg.tdd_variants == ("channel", "spatial")
    assert cfg.alpha.object_weight == 1.0 and cfg.alpha.scene_weight == 1.0
    assert cfg.layer_mode == "features"
    assert cfg.intra_block_mode == "per_order"
    assert cfg.pooling_order == "pool_then_normalize"
    assert cfg.final_l2 is True
    assert cfg.integrator == "step"


def test_written_default_file_reproduces_the_defaults(tmp_path):
    path = tmp_path / "default.cfg"
    write_default_config(path)
    assert path.read_text() == DEFAULT_CONFIG_TEXT
    assert load_config(path) == load_config()


def test_partial_file_layers_over_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[pipeline]\nscenario = global_pretrained\n\n"
        "[gmm]\ncomponents = 8\n\n"
        "[fusion]\nbeta_object = 2.0\n"
    )
    cfg = load_config(path)
    assert cfg.scenario == "global_pretrained"
    assert cfg.gmm_components == 8
    assert cfg.beta.object_weight == 2.0
    assert cfg.beta.scene_weight == 1.0  # untouched default
    assert cfg.pca_dim == 64  # untouched section


def test_missing_file_and_parse_errors(tmp_path):
    with pytest.raises(DataError):
        load_config(tmp_path / "nope.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("pipeline]\nscenario local_fv\n")
    with pytest.raises(FormatError):
        load_config(bad)
    unparsable = tmp_path / "value.cfg"
    unparsable.write_text("[gmm]\ncomponents = many\n")
    with pytest.raises(FormatError):
        load_config(unparsable)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pipeline", "scenario", "transformer"),
        ("fusion", "layer_mode", "mean"),
        ("tdd", "variants", "channel,channel"),
        ("tdd", "variants", "fancy"),
        ("pca", "dim", "0"),
        ("gmm", "components", "0"),
        ("gmm", "tol", "0"),
        ("svm", "c", "0"),
        ("svm", "max_epochs", "0"),
        ("normalize", "intra_block_mode", "global"),
        ("normalize", "pooling_order", "alphabetical"),
        ("eval", "integrator", "simpson"),
    ],
)
def test_invalid_values_are_rejected(tmp_path, section, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ParameterError):
        load_config(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gmm", "componets", "16"),
        ("views", "scales", "0,256"),
        ("views", "crop", "-3"),
    ],
)
def test_unknown_sections_and_keys_are_rejected(tmp_path, section, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(FormatError, match="unknown"):
        load_config(path)


def test_shipped_default_file_matches_the_defaults():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert shipped.read_text() == DEFAULT_CONFIG_TEXT


def test_zero_fusion_weights_are_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[fusion]\nalpha_object = 0.0\nalpha_scene = 0.0\n")
    with pytest.raises(ParameterError):
        load_config(path)


def test_single_variant_config(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("[tdd]\nvariants = spatial\n")
    assert load_config(path).tdd_variants == ("spatial",)


def test_config_object_validates_directly():
    with pytest.raises(ParameterError):
        PipelineConfig(scenario="unknown")
    with pytest.raises(ParameterError):
        PipelineConfig(tdd_variants=())
