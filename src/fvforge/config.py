"""Declarative run configuration: one INI file drives every pipeline stage.

Each key is declared once, as a ``PipelineConfig`` field made by ``_key``
with its section, key, default INI text, kind and choices.  The default
text (also shipped as ``configs/default.cfg``), the parser, the
known-key check and the choice checks all come from those fields.  The
defaults spell out the reference setup — mixture size 256, projection
dim 64, C = 1, equal fusion weights — so a config file only needs the
keys it overrides, and a section or key they do not name is rejected.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .fusion import FusionWeights
from .normalize import VARIANTS
from .tensors import read_text

SCENARIOS = (
    "softmax_fusion",
    "global_pretrained",
    "local_fv",
    "layer_fusion",
)
POOLING_ORDERS = ("pool_then_normalize", "normalize_then_pool")
LAYER_FUSION_MODES = ("features", "scores")


def _value(kind: type, texts: tuple[str, ...]):
    """A field's value from its INI text(s); ``tuple`` is a comma list and
    ``FusionWeights`` a pair of keys.  Raises ValueError if unparsable."""
    if kind is FusionWeights:
        return FusionWeights(*(float(t) for t in texts))
    (text,) = texts
    if kind is tuple:
        return tuple(t.strip() for t in text.split(",") if t.strip())
    return kind(text)


def _key(section: str, key, default, kind: type = str, choices: tuple = ()):
    """Declare one config field: ``key`` and ``default`` are one INI key
    and its text, or a pair of each for a ``FusionWeights`` field."""
    keys, texts = ((key,), (default,)) if isinstance(key, str) else (key, default)
    meta = dict(section=section, keys=keys, texts=texts, kind=kind, choices=choices)
    return field(default=_value(kind, texts), metadata=meta)


@dataclass(frozen=True)
class PipelineConfig:
    scenario: str = _key("pipeline", "scenario", "local_fv", choices=SCENARIOS)
    score_layer: str = _key("layers", "score_layer", "prob")
    global_layer: str = _key("layers", "global_layer", "fc7")
    conv_layer: str = _key("layers", "conv_layer", "conv5_3")
    alpha: FusionWeights = _key(
        "fusion", ("alpha_object", "alpha_scene"), ("1.0", "1.0"), FusionWeights
    )
    beta: FusionWeights = _key(
        "fusion", ("beta_object", "beta_scene"), ("1.0", "1.0"), FusionWeights
    )
    layer_mode: str = _key("fusion", "layer_mode", "features", choices=LAYER_FUSION_MODES)
    layer_weights: FusionWeights = _key(
        "fusion", ("layer_weight_global", "layer_weight_local"), ("1.0", "1.0"),
        FusionWeights,
    )
    tdd_variants: tuple[str, ...] = _key(
        "tdd", "variants", "channel,spatial", tuple, choices=VARIANTS
    )
    pca_dim: int = _key("pca", "dim", "64", int)
    gmm_components: int = _key("gmm", "components", "256", int)
    gmm_seed: int = _key("gmm", "seed", "7", int)
    gmm_tol: float = _key("gmm", "tol", "1e-6", float)
    gmm_max_iterations: int = _key("gmm", "max_iterations", "100", int)
    svm_c: float = _key("svm", "c", "1.0", float)
    svm_seed: int = _key("svm", "seed", "7", int)
    svm_max_epochs: int = _key("svm", "max_epochs", "1000", int)
    svm_tol: float = _key("svm", "tol", "1e-4", float)
    pooling_order: str = _key(
        "normalize", "pooling_order", "pool_then_normalize", choices=POOLING_ORDERS
    )

    def __post_init__(self):
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            if meta["kind"] is tuple:
                value = tuple(str(v) for v in value)
                object.__setattr__(self, f.name, value)
            for item in value if meta["kind"] is tuple else (value,):
                if meta["choices"] and item not in meta["choices"]:
                    raise ParameterError(f"{f.name} '{item}' is not one of {meta['choices']}")
        if not self.tdd_variants:
            raise ParameterError("at least one tdd variant is required")
        if len(set(self.tdd_variants)) != len(self.tdd_variants):
            raise ParameterError("tdd variants must be distinct")
        if self.pca_dim < 1:
            raise ParameterError("pca dim must be positive")
        if self.gmm_components < 1:
            raise ParameterError("gmm components must be positive")
        if self.gmm_seed < 0 or self.svm_seed < 0:
            raise ParameterError("gmm and svm seeds must be non-negative")
        if not self.gmm_tol > 0.0 or self.gmm_max_iterations < 1:
            raise ParameterError("gmm tol must be > 0 and max_iterations >= 1")
        if self.svm_c <= 0.0 or not np.isfinite(self.svm_c):
            raise ParameterError("svm c must be a positive real")
        if self.svm_max_epochs < 1 or not self.svm_tol > 0.0:
            raise ParameterError("svm max_epochs must be >= 1 and tol > 0")


def _render() -> str:
    """The default INI text: the header, then each section's keys in field order."""
    sections: dict[str, list[str]] = {}
    for f in fields(PipelineConfig):
        meta = f.metadata
        lines = sections.setdefault(meta["section"], [])
        lines += [f"{k} = {t}" for k, t in zip(meta["keys"], meta["texts"])]
    body = "\n\n".join(f"[{s}]\n" + "\n".join(ls) for s, ls in sections.items())
    header = "# Reference configuration; class count always follows the manifest."
    return f"{header}\n\n{body}\n"


DEFAULT_CONFIG_TEXT = _render()


def _parse(parser: configparser.ConfigParser) -> PipelineConfig:
    values = {}
    try:
        for f in fields(PipelineConfig):
            meta = f.metadata
            texts = tuple(parser.get(meta["section"], k) for k in meta["keys"])
            values[f.name] = _value(meta["kind"], texts)
    except (configparser.Error, ValueError) as exc:
        raise FormatError(f"bad config value: {exc}") from exc
    return PipelineConfig(**values)


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Parse a config file layered over the shipped defaults.

    With no path, returns the defaults themselves.  A section or key
    that the defaults do not name raises FormatError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(DEFAULT_CONFIG_TEXT)
    known = {section: set(parser[section]) for section in parser.sections()}
    if path is not None:
        src = Path(path)
        if not src.is_file():
            raise DataError(f"config file not found: {src}")
        try:
            parser.read_string(read_text(src), source=str(src))
        except OSError as exc:
            raise DataError(f"cannot read config file {src}: {exc}") from exc
        except configparser.Error as exc:
            raise FormatError(f"cannot parse config file {src}: {exc}") from exc
        for section in parser.sections():
            if section not in known:
                raise FormatError(f"{src}: unknown config section [{section}]")
            unknown = sorted(set(parser[section]) - known[section])
            if unknown:
                raise FormatError(f"{src}: unknown key(s) in [{section}]: {unknown}")
    return _parse(parser)
