"""Pipeline stages and the end-to-end scenario runs built from them.

Every stage — descriptor stacking, model fitting, Fisher encoding,
fusion, classifier training and evaluation — is written once here.
``run`` and the per-stage subcommands in ``cli`` call the same stage
functions, so a scripted chain of subcommands reproduces ``run`` byte
for byte.

Four run modes share one discipline: models are fit on train-role
entries only, every cross-stage handoff goes through the float32 file
dtype, and all randomness derives from config seeds — so a run's
serialized outputs are bit-reproducible.  Models are serialized and
reloaded before use.  Local descriptors and encodings pass between
stages in memory, but as float32 arrays, so they hold exactly what a
file in between would.  Every descriptor stack is built by
``read_stacks``: sized from its files' headers, then filled in place as
each file is read once.  ``run`` stacks the train conv views once per
variant and fits PCA on each stack as it stands, then projects each
view from its own rows into one stack for the mixture; ``fit-pca`` and
``fit-gmm`` stack their descriptor files the same way.

Every scenario ends the same way: one matrix of class scores for the
evaluated entries, one ``report_scores`` call.  Where two score sources
meet, the object and scene streams in ``softmax_fusion`` or the global
and local classifier banks of ``layer_fusion``, each source is first
one whole (images, classes) matrix, and one ``weighted_sum`` call fuses
the two.

A run is single-threaded.  Each train entry's local encodings are made
as soon as its models exist; every other entry is read and encoded as
its feature row is written, so the first failing entry in manifest order
is the one reported.

Outputs under the run directory: ``report.csv``, ``scores.csv`` for the
evaluated images, one feature container per role under ``features*/``
(``train.fvt`` and ``test.fvt``, one row per entry in manifest order,
each written as its rows are computed and read back by
``tensors.read_rows``), and fitted models under ``models/``.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .augment import sum_pool
from .classify import LinearModel, load_svm, predict_matrix, save_svm, train_ovr
from .config import POOLING_ORDERS, PipelineConfig
from .errors import CorruptionError, ParameterError, ShapeError, ValidationError
from .evaluation import EvalReport, evaluate, write_report_csv, write_scores_csv
from .fisher import FisherVector, encode_fv, intra_normalize, power_l2_normalize, unit_norm
from .fusion import FusionWeights, concat_features, weighted_sum
from .gmm import GmmModel, fit_gmm, load_gmm, save_gmm
from .normalize import VARIANTS, DescriptorSet, variant_descriptors
from .pca import PcaModel, fit_pca, load_pca, project, save_pca
from .tensors import (
    ROLES,
    STREAMS,
    FeatureMap,
    GlobalVector,
    Manifest,
    ManifestEntry,
    load_manifest,
    read_as,
    read_dims,
    read_matrix,
    read_rows,
    write_rows,
)

logger = logging.getLogger(__name__)


@contextmanager
def pinned_blas():
    """Hold numpy's bundled OpenBLAS at one thread while the block runs,
    then restore the count it had.

    Eigendecompositions and long inner products change in their last
    bits with the BLAS thread count, and file outputs inherit that.
    Another BLAS build is left as it is, with one warning.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        blas = ctypes.CDLL(str(lib))
        if hasattr(blas, "scipy_openblas_get_num_threads64_"):
            break
    else:
        logger.warning("stage=blas event=unpinned reason=no bundled OpenBLAS thread setter")
        yield
        return
    previous = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        blas.scipy_openblas_set_num_threads64_(previous)


def derived_seed(base: int, stream: str, variant: str) -> int:
    """Distinct per-(stream, variant) seed for local-encoding models."""
    return base * 4 + 2 * STREAMS.index(stream) + VARIANTS.index(variant)


def _file_round(vec: np.ndarray) -> np.ndarray:
    """Round through the file dtype so memory and disk paths agree."""
    return vec.astype(np.float32).astype(np.float64)


# ---------------------------------------------------------------- stages


def entries_for_role(manifest: Manifest, role: str):
    """Entries of one role, or every entry for role "all"; none is an error."""
    entries = manifest.entries if role == "all" else manifest.split(role)
    if not entries:
        raise ValidationError(f"manifest has no {role}-role entries")
    return entries


def labels_of(entries) -> np.ndarray:
    """Class indices of the entries; an unlabeled entry is an error."""
    unlabeled = [e.image_id for e in entries if e.label is None]
    if unlabeled:
        raise ValidationError(
            f"{len(unlabeled)} entries have no label (first: {unlabeled[0]})"
        )
    return np.asarray([e.label for e in entries], dtype=np.int64)


def read_stacks(paths, row_fns) -> tuple[list[DescriptorSet], list[int]]:
    """One float32 descriptor stack per function of ``row_fns``, over the
    rank-3 files of ``paths``, and the row offset of each file in every
    stack followed by the row total.

    Every file's header is read first, so each stack is allocated once at
    its full size; then each file is read once, and each function maps it
    to a ``DescriptorSet`` of (height * width, channels) that is written
    into that file's rows of its stack.  The files must agree on their
    channel count; a ``ValidationError`` a function raises names the file.
    """
    shapes = [read_dims(p) for p in paths]
    for path, dims in zip(paths, shapes):
        if len(dims) != 3:
            raise ValidationError(f"{path}: expected a FeatureMap tensor")
        if dims[2] != shapes[0][2]:
            raise ShapeError(f"{path}: {dims[2]} channels, {paths[0]} has {shapes[0][2]}")
    dim = shapes[0][2]
    offsets = np.cumsum([0] + [h * w for h, w, _ in shapes]).tolist()
    stacks = [np.empty((offsets[-1], dim), np.float32) for _ in row_fns]
    for path, shape, a, b in zip(paths, shapes, offsets[:-1], offsets[1:]):
        fmap = read_as(path, FeatureMap)
        if fmap.data.shape != shape:
            raise CorruptionError(f"{path}: changed while it was read")
        try:
            for fn, stack in zip(row_fns, stacks):
                stack[a:b] = fn(fmap).descriptors
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return [DescriptorSet(dim, stack) for stack in stacks], offsets


def fit_pca_model(descriptors: DescriptorSet, dim: int, model_dir: str | Path) -> PcaModel:
    """Fit a projection, serialize it, and return the reloaded model."""
    model = fit_pca(descriptors, dim)
    save_pca(model, model_dir)
    logger.info(
        "stage=fit-pca descriptors=%d in_dim=%d out_dim=%d out=%s",
        descriptors.count, model.input_dim, model.output_dim, model_dir,
    )
    return load_pca(model_dir)


def fit_gmm_model(
    descriptors: DescriptorSet, cfg: PipelineConfig, model_dir: str | Path, seed: int
) -> GmmModel:
    """Fit a mixture of the ``[gmm]`` section's components, iterations
    and tol from ``seed``, serialize it, and return the reloaded model.

    The iteration count is logged from the fitted model, because the
    reloaded one carries no fit trace.
    """
    model = fit_gmm(
        descriptors, cfg.gmm_components,
        seed=seed, max_iters=cfg.gmm_max_iterations, tol=cfg.gmm_tol,
    )
    save_gmm(model, model_dir)
    logger.info(
        "stage=fit-gmm components=%d descriptors=%d iterations=%d out=%s",
        cfg.gmm_components, descriptors.count, len(model.fit_trace), model_dir,
    )
    return load_gmm(model_dir)


def encode_views(model: GmmModel, views, pooling_order: str) -> np.ndarray:
    """Fisher-encode each view's descriptors, then sum-pool and normalize.

    The normalization is intra-normalization, then power + l2 (Sanchez
    et al., IJCV 2013), either of the pooled encoding or of each view's
    before pooling.
    """
    if pooling_order not in POOLING_ORDERS:
        raise ParameterError(f"unknown pooling_order '{pooling_order}'")

    def normalized(fv: FisherVector) -> np.ndarray:
        return power_l2_normalize(intra_normalize(fv)).data

    fvs = [encode_fv(model, ds) for ds in views]
    if pooling_order == "pool_then_normalize":
        pooled = sum_pool([fv.data for fv in fvs])
        return normalized(FisherVector(K=model.K, d=model.dim, data=pooled))
    return sum_pool([normalized(fv) for fv in fvs])


def fuse_features(first, second, weights: FusionWeights) -> np.ndarray:
    """Weighted concatenation of two feature vectors, unit-normalized."""
    return unit_norm(concat_features(first, second, weights).data)


def train_svm_model(
    manifest: Manifest, features: str | Path, model_dir: str | Path, cfg: PipelineConfig
) -> LinearModel:
    """Train on the feature container of the train-role entries with the
    ``[svm]`` section's parameters, serialize, and return the reloaded
    model."""
    train = entries_for_role(manifest, "train")
    model = train_ovr(
        read_matrix(features, len(train)),
        labels_of(train),
        manifest.class_count,
        C=cfg.svm_c,
        seed=cfg.svm_seed,
        max_epochs=cfg.svm_max_epochs,
        tol=cfg.svm_tol,
        class_names=manifest.class_names,
    )
    save_svm(model, model_dir)
    logger.info(
        "stage=train-svm classes=%d features=%d degenerate=%d out=%s",
        model.class_count, model.feature_dim,
        len(model.degenerate_classes), model_dir,
    )
    return load_svm(model_dir)


def report_scores(
    matrix: np.ndarray,
    entries,
    class_names,
    report_path: str | Path | None = None,
    scores_path: str | Path | None = None,
) -> EvalReport:
    """Evaluate a score matrix against the entries' labels; write and log it."""
    report = evaluate(matrix, labels_of(entries), class_names)
    if scores_path is not None:
        write_scores_csv(scores_path, [e.image_id for e in entries], matrix)
    if report_path is not None:
        write_report_csv(report_path, report)
    logger.info(
        "stage=evaluate images=%d map=%.6f top1=%.6f",
        len(entries), report.map_score, report.top1_accuracy,
    )
    return report


# ---------------------------------------------------------------- scenarios


def _pooled_vector(entry: ManifestEntry, stream: str, layer: str) -> np.ndarray:
    """Sum of one stream's rank-1 views, rounded through the file dtype."""
    views = [read_as(p, GlobalVector).data for p in entry.paths_for(stream, layer)]
    return _file_round(sum_pool(views))


def _write_features(features_dir: Path, manifest: Manifest, role_rows) -> None:
    """For each role the manifest has, write ``role_rows(role, entries)``,
    one vector per entry in manifest order, as the rows of
    ``<role>.fvt``."""
    features_dir.mkdir(parents=True, exist_ok=True)
    for role in ROLES:
        entries = manifest.split(role)
        if entries:
            write_rows(features_dir / f"{role}.fvt", len(entries), role_rows(role, entries))


def _stream_scores(entry: ManifestEntry, layer: str, class_count: int) -> list:
    """Each stream's pooled score vector of ``layer``, object first; a
    vector of the wrong class count is an error."""
    per_stream = []
    for stream in STREAMS:
        pooled = _pooled_vector(entry, stream, layer)
        if pooled.size != class_count:
            raise ShapeError(
                f"image '{entry.image_id}' {stream} scores have dim "
                f"{pooled.size}, manifest lists {class_count} classes"
            )
        per_stream.append(pooled)
    return per_stream


def _global_feature(entry: ManifestEntry, cfg: PipelineConfig) -> np.ndarray:
    """Sum-pool each stream's global vectors, unit-normalize, concatenate."""
    parts = [
        _file_round(unit_norm(_pooled_vector(entry, stream, cfg.global_layer)))
        for stream in STREAMS
    ]
    return fuse_features(parts[0], parts[1], cfg.beta)


def _encode_variant(gmm_model: GmmModel, views, cfg: PipelineConfig) -> np.ndarray:
    """One variant's pooled encoding of projected views, rounded to
    float32 as the feature file would."""
    return encode_views(gmm_model, views, cfg.pooling_order).astype(np.float32)


def _encode_entry(entry: ManifestEntry, stream: str, cfg: PipelineConfig, models) -> list:
    """Read an entry's views of one stream once and encode every variant
    of ``models``, (variant, PCA, mixture) triples, in their order."""
    fmaps = [read_as(p, FeatureMap) for p in entry.paths_for(stream, cfg.conv_layer)]
    encodings = []
    for variant, pca_model, gmm_model in models:
        views = [project(pca_model, variant_descriptors(f, variant)) for f in fmaps]
        encodings.append(_encode_variant(gmm_model, views, cfg))
    return encodings


def _fit_stream(
    stream: str, entries, cfg: PipelineConfig, models_dir: Path
) -> tuple[list, dict]:
    """Fit + serialize + reload one stream's PCA and GMM per configured
    variant, in ``VARIANTS`` order, and return the (variant, PCA, mixture)
    triples in that order, plus each train entry's encodings in the
    stream, by entry, one per variant in the same order.

    ``read_stacks`` builds one stack per variant from the train views,
    reading each view once.  Each PCA is fit on its stack as it stands.
    Each view is then projected from its own rows, as ``apply-pca``
    projects one view file, into one stack for the mixture, as ``fit-gmm``
    reads it; the variant's descriptor stack is freed first.  As soon as
    a variant's mixture exists, every train entry is encoded from its rows
    of that stack.
    """
    train = [entry for entry in entries if entry.role == "train"]
    view_paths = [entry.paths_for(stream, cfg.conv_layer) for entry in train]
    paths = [path for entry_paths in view_paths for path in entry_paths]
    variants = [v for v in VARIANTS if v in cfg.tdd_variants]
    stacks, offsets = read_stacks(
        paths, [functools.partial(variant_descriptors, variant=v) for v in variants]
    )
    spans = list(zip(offsets[:-1], offsets[1:]))
    encodings = {entry: [] for entry in train}
    models = []
    for variant in variants:
        stacked = stacks.pop(0)
        pca_model = fit_pca_model(
            stacked, cfg.pca_dim, models_dir / f"pca_{stream}_{variant}"
        )
        projected = np.empty((offsets[-1], pca_model.output_dim), np.float32)
        for a, b in spans:
            rows = DescriptorSet(stacked.dim, stacked.descriptors[a:b])
            projected[a:b] = project(pca_model, rows).descriptors
        del stacked, rows  # frees this variant's descriptor stack
        projected = DescriptorSet(pca_model.output_dim, projected)
        gmm_model = fit_gmm_model(
            projected, cfg, models_dir / f"gmm_{stream}_{variant}",
            derived_seed(cfg.gmm_seed, stream, variant),
        )
        models.append((variant, pca_model, gmm_model))
        views = [DescriptorSet(projected.dim, projected.descriptors[a:b]) for a, b in spans]
        first = 0
        for entry, entry_paths in zip(train, view_paths):
            last = first + len(entry_paths)
            encodings[entry].append(_encode_variant(gmm_model, views[first:last], cfg))
            first = last
    return models, encodings


def _write_local_features(
    manifest: Manifest, cfg: PipelineConfig, out: Path, features_dir: Path
) -> None:
    """Fit the local models stream by stream, encoding the train entries
    as their models appear, then write each entry's feature in manifest
    order, reading and encoding every other entry as its row is written."""
    entries = manifest.entries
    entries_for_role(manifest, "train")  # raises when there is nothing to fit on
    fitted = [_fit_stream(s, entries, cfg, out / "models") for s in STREAMS]

    def feature(entry: ManifestEntry) -> np.ndarray:
        """Variant concat per stream, the channel variant first, then
        stream concat."""
        stream_vecs = []
        for stream, (models, encodings) in zip(STREAMS, fitted):
            if entry.role == "train":
                fvs = encodings.pop(entry)
            else:
                fvs = _encode_entry(entry, stream, cfg, models)
            parts = [fv.astype(np.float64) for fv in fvs]
            if len(parts) == 2:
                parts = [_file_round(fuse_features(*parts, FusionWeights()))]
            stream_vecs.append(parts[0])
        return fuse_features(stream_vecs[0], stream_vecs[1], cfg.beta)

    _write_features(features_dir, manifest, lambda role, entries: map(feature, entries))
    logger.info("stage=features kind=local images=%d", len(entries))


@pinned_blas()
def run(
    manifest: Manifest | str | Path,
    cfg: PipelineConfig,
    out_dir: str | Path,
) -> EvalReport:
    """Run the configured scenario and evaluate its score matrix.

    ``softmax_fusion`` trains nothing: it fuses the streams' scores of the
    test entries, or of every entry when there is none.  Every other
    scenario writes its global and/or local features, trains one
    classifier bank per feature directory, saving every model before the
    test split is touched, and predicts the test entries.
    ``layer_fusion`` writes both under ``features_global/`` and
    ``features_local/``, then either fuses them into ``features/`` or,
    with ``layer_mode = scores``, trains a bank on each and fuses their
    scores.  Both score fusions are one weighted sum of two whole
    (images, classes) matrices, and every scenario ends in one
    evaluation.  The run holds the BLAS pin of ``pinned_blas``.
    """
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    out = Path(out_dir)
    scenario = cfg.scenario
    if scenario == "softmax_fusion":
        out.mkdir(parents=True, exist_ok=True)
        entries = list(manifest.split("test") or manifest.entries)
        rows = [_stream_scores(e, cfg.score_layer, manifest.class_count) for e in entries]
        object_scores, scene_scores = np.stack(rows, axis=1)
        matrix = weighted_sum(object_scores, scene_scores, cfg.alpha)
    else:
        fusion = scenario == "layer_fusion"
        global_dir = out / ("features_global" if fusion else "features")
        local_dir = out / ("features_local" if fusion else "features")
        if scenario != "local_fv":
            _write_features(
                global_dir, manifest,
                lambda role, entries: (_global_feature(e, cfg) for e in entries),
            )
            logger.info("stage=features kind=global images=%d", len(manifest.entries))
        if scenario == "local_fv" or fusion:
            _write_local_features(manifest, cfg, out, local_dir)
        banks = (("svm", out / "features"),)
        if fusion and cfg.layer_mode == "scores":
            banks = (("svm_global", global_dir), ("svm_local", local_dir))
        elif fusion:

            def combined(role: str, entries):
                rows = zip(
                    read_rows(global_dir / f"{role}.fvt", len(entries)),
                    read_rows(local_dir / f"{role}.fvt", len(entries)),
                )
                return (fuse_features(g, l, cfg.layer_weights) for g, l in rows)

            _write_features(out / "features", manifest, combined)
        models = [
            train_svm_model(manifest, features / "train.fvt", out / "models" / name, cfg)
            for name, features in banks
        ]
        entries = entries_for_role(manifest, "test")
        matrices = [
            predict_matrix(model, read_matrix(features / "test.fvt", len(entries)))
            for model, (_, features) in zip(models, banks)
        ]
        matrix = matrices[0]
        if len(matrices) == 2:
            matrix = weighted_sum(*matrices, cfg.layer_weights)
    return report_scores(
        matrix, entries, manifest.class_names, out / "report.csv", out / "scores.csv"
    )
