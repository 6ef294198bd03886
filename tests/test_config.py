"""Config parsing: defaults, layered overrides, and rejection of bad values."""

from __future__ import annotations

import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

from fvforge.config import DEFAULT_CONFIG_TEXT, PipelineConfig, load_config
from fvforge.errors import DataError, FormatError, ParameterError
from fvforge.fusion import FusionWeights

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
    assert cfg.pooling_order == "pool_then_normalize"


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
        ("gmm", "tol", "nan"),
        ("gmm", "seed", "-1"),
        ("svm", "tol", "nan"),
        ("svm", "seed", "-3"),
        ("svm", "c", "0"),
        ("svm", "max_epochs", "0"),
        ("normalize", "pooling_order", "alphabetical"),
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
        # Keys and a section that earlier versions read.
        ("normalize", "intra_block_mode", "per_order"),
        ("normalize", "final_l2", "true"),
        ("eval", "integrator", "step"),
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


# One valid non-default value per key, with the field it must set and the
# value it must give; written out by hand so that a key wired to the wrong
# field, or a weight pair read in the wrong order, fails.
KEY_TO_FIELD = [
    ("pipeline", "scenario", "global_pretrained", "scenario", "global_pretrained"),
    ("layers", "score_layer", "softmax", "score_layer", "softmax"),
    ("layers", "global_layer", "fc6", "global_layer", "fc6"),
    ("layers", "conv_layer", "conv4_3", "conv_layer", "conv4_3"),
    ("fusion", "alpha_object", "2.0", "alpha", FusionWeights(2.0, 1.0)),
    ("fusion", "alpha_scene", "3.0", "alpha", FusionWeights(1.0, 3.0)),
    ("fusion", "beta_object", "2.0", "beta", FusionWeights(2.0, 1.0)),
    ("fusion", "beta_scene", "3.0", "beta", FusionWeights(1.0, 3.0)),
    ("fusion", "layer_mode", "scores", "layer_mode", "scores"),
    ("fusion", "layer_weight_global", "2.0", "layer_weights", FusionWeights(2.0, 1.0)),
    ("fusion", "layer_weight_local", "3.0", "layer_weights", FusionWeights(1.0, 3.0)),
    ("tdd", "variants", "spatial, channel", "tdd_variants", ("spatial", "channel")),
    ("pca", "dim", "32", "pca_dim", 32),
    ("gmm", "components", "16", "gmm_components", 16),
    ("gmm", "seed", "8", "gmm_seed", 8),
    ("gmm", "tol", "1e-5", "gmm_tol", 1e-5),
    ("gmm", "max_iterations", "50", "gmm_max_iterations", 50),
    ("svm", "c", "0.5", "svm_c", 0.5),
    ("svm", "seed", "9", "svm_seed", 9),
    ("svm", "max_epochs", "500", "svm_max_epochs", 500),
    ("svm", "tol", "1e-3", "svm_tol", 1e-3),
    ("normalize", "pooling_order", "normalize_then_pool", "pooling_order", "normalize_then_pool"),
]


def _pairs(text: str) -> set[tuple[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {(section, key) for section in parser.sections() for key in parser[section]}


def test_default_text_names_exactly_the_keys_the_fields_read(monkeypatch):
    read = set()
    get = configparser.ConfigParser.get

    def recording_get(self, section, option, **kwargs):
        read.add((section, option))
        return get(self, section, option, **kwargs)

    monkeypatch.setattr(configparser.ConfigParser, "get", recording_get)
    load_config()
    monkeypatch.undo()
    assert read == _pairs(DEFAULT_CONFIG_TEXT)
    assert {(section, key) for section, key, *_ in KEY_TO_FIELD} == read


@pytest.mark.parametrize(
    "section, key, text, field, expected",
    KEY_TO_FIELD,
    ids=[f"{section}.{key}" for section, key, *_ in KEY_TO_FIELD],
)
def test_each_key_sets_exactly_its_field(tmp_path, section, key, text, field, expected):
    path = tmp_path / "one.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    cfg, base = load_config(path), load_config()
    changed = {
        f.name for f in fields(PipelineConfig) if getattr(cfg, f.name) != getattr(base, f.name)
    }
    assert changed == {field}
    assert getattr(cfg, field) == expected
    assert type(getattr(cfg, field)) is type(expected)


def test_readme_config_sections_are_the_default_sections():
    """The backticked ``[section]`` names in README.md are exactly the
    sections of the default config, so a removed section cannot linger."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`\[([a-z_]+)\]`", readme))
    assert named == {section for section, _ in _pairs(DEFAULT_CONFIG_TEXT)}
