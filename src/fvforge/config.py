"""Declarative run configuration: one INI file drives every pipeline stage.

The shipped defaults (also written to ``configs/default.cfg``) spell out
the reference setup explicitly — mixture size 256, projection dim 64,
C = 1, equal fusion weights — so a config file only needs the keys it
overrides, and a section or key the defaults do not name is rejected.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .evaluation import INTEGRATORS
from .fisher import BLOCK_MODES
from .fusion import FusionWeights
from .normalize import VARIANTS

SCENARIOS = (
    "softmax_fusion",
    "global_pretrained",
    "global_finetuned",
    "local_fv",
    "layer_fusion",
)
POOLING_ORDERS = ("pool_then_normalize", "normalize_then_pool")
LAYER_FUSION_MODES = ("features", "scores")

DEFAULT_CONFIG_TEXT = """\
# Reference configuration; class count always follows the manifest.

[pipeline]
scenario = local_fv

[layers]
score_layer = prob
global_layer = fc7
conv_layer = conv5_3

[fusion]
alpha_object = 1.0
alpha_scene = 1.0
beta_object = 1.0
beta_scene = 1.0
layer_mode = features
layer_weight_global = 1.0
layer_weight_local = 1.0

[tdd]
variants = channel,spatial

[pca]
dim = 64

[gmm]
components = 256
seed = 7
tol = 1e-6
max_iterations = 100

[svm]
c = 1.0
seed = 7
max_epochs = 1000
tol = 1e-4

[normalize]
intra_block_mode = per_order
pooling_order = pool_then_normalize
final_l2 = true

[eval]
integrator = step
"""


@dataclass(frozen=True)
class PipelineConfig:
    scenario: str = "local_fv"
    score_layer: str = "prob"
    global_layer: str = "fc7"
    conv_layer: str = "conv5_3"
    alpha: FusionWeights = FusionWeights()
    beta: FusionWeights = FusionWeights()
    layer_mode: str = "features"
    layer_weights: FusionWeights = FusionWeights()
    tdd_variants: tuple[str, ...] = ("channel", "spatial")
    pca_dim: int = 64
    gmm_components: int = 256
    gmm_seed: int = 7
    gmm_tol: float = 1e-6
    gmm_max_iterations: int = 100
    svm_c: float = 1.0
    svm_seed: int = 7
    svm_max_epochs: int = 1000
    svm_tol: float = 1e-4
    intra_block_mode: str = "per_order"
    pooling_order: str = "pool_then_normalize"
    final_l2: bool = True
    integrator: str = "step"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ParameterError(
                f"unknown scenario '{self.scenario}'; choose from {SCENARIOS}"
            )
        if self.layer_mode not in LAYER_FUSION_MODES:
            raise ParameterError(
                f"layer_mode must be one of {LAYER_FUSION_MODES}"
            )
        if not self.tdd_variants:
            raise ParameterError("at least one tdd variant is required")
        for variant in self.tdd_variants:
            if variant not in VARIANTS:
                raise ParameterError(
                    f"unknown tdd variant '{variant}'; choose from {VARIANTS}"
                )
        if len(set(self.tdd_variants)) != len(self.tdd_variants):
            raise ParameterError("tdd variants must be distinct")
        if self.pca_dim < 1:
            raise ParameterError("pca dim must be positive")
        if self.gmm_components < 1:
            raise ParameterError("gmm components must be positive")
        if self.gmm_tol <= 0.0 or self.gmm_max_iterations < 1:
            raise ParameterError("gmm tol must be > 0 and max_iterations >= 1")
        if self.svm_c <= 0.0 or not np.isfinite(self.svm_c):
            raise ParameterError("svm c must be a positive real")
        if self.svm_max_epochs < 1 or self.svm_tol <= 0.0:
            raise ParameterError("svm max_epochs must be >= 1 and tol > 0")
        if self.intra_block_mode not in BLOCK_MODES:
            raise ParameterError(
                f"intra_block_mode must be one of {BLOCK_MODES}"
            )
        if self.pooling_order not in POOLING_ORDERS:
            raise ParameterError(
                f"pooling_order must be one of {POOLING_ORDERS}"
            )
        if self.integrator not in INTEGRATORS:
            raise ParameterError(f"integrator must be one of {INTEGRATORS}")
        object.__setattr__(
            self, "tdd_variants", tuple(str(v) for v in self.tdd_variants)
        )


def _parse(parser: configparser.ConfigParser) -> PipelineConfig:
    try:
        return PipelineConfig(
            scenario=parser.get("pipeline", "scenario"),
            score_layer=parser.get("layers", "score_layer"),
            global_layer=parser.get("layers", "global_layer"),
            conv_layer=parser.get("layers", "conv_layer"),
            alpha=FusionWeights(
                parser.getfloat("fusion", "alpha_object"),
                parser.getfloat("fusion", "alpha_scene"),
            ),
            beta=FusionWeights(
                parser.getfloat("fusion", "beta_object"),
                parser.getfloat("fusion", "beta_scene"),
            ),
            layer_mode=parser.get("fusion", "layer_mode"),
            layer_weights=FusionWeights(
                parser.getfloat("fusion", "layer_weight_global"),
                parser.getfloat("fusion", "layer_weight_local"),
            ),
            tdd_variants=tuple(
                t.strip()
                for t in parser.get("tdd", "variants").split(",")
                if t.strip()
            ),
            pca_dim=parser.getint("pca", "dim"),
            gmm_components=parser.getint("gmm", "components"),
            gmm_seed=parser.getint("gmm", "seed"),
            gmm_tol=parser.getfloat("gmm", "tol"),
            gmm_max_iterations=parser.getint("gmm", "max_iterations"),
            svm_c=parser.getfloat("svm", "c"),
            svm_seed=parser.getint("svm", "seed"),
            svm_max_epochs=parser.getint("svm", "max_epochs"),
            svm_tol=parser.getfloat("svm", "tol"),
            intra_block_mode=parser.get("normalize", "intra_block_mode"),
            pooling_order=parser.get("normalize", "pooling_order"),
            final_l2=parser.getboolean("normalize", "final_l2"),
            integrator=parser.get("eval", "integrator"),
        )
    except (configparser.Error, ValueError) as exc:
        raise FormatError(f"bad config value: {exc}") from exc


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
            with src.open() as fh:
                parser.read_file(fh)
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
