"""Scenario runs checked against hand-composed equivalents on seeded data."""

from __future__ import annotations

import logging
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fvforge.augment import sum_pool
from fvforge.cli import build_parser
from fvforge.config import PipelineConfig, load_config
from fvforge.errors import (
    CorruptionError,
    FormatError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from fvforge.evaluation import evaluate, read_scores_csv
from fvforge.fisher import (
    FisherVector,
    encode_fv,
    intra_normalize,
    power_l2_normalize,
    unit_norm,
)
from fvforge.fusion import FusionWeights, concat_features
from fvforge.gmm import load_gmm
from fvforge.normalize import extract_descriptors, normalize_variant
from fvforge.pca import load_pca, project
from fvforge import pipeline
from fvforge.pipeline import derived_seed, run
from fvforge.synth import SynthSpec, generate_dataset
from fvforge.tensors import (
    STREAMS,
    FeatureMap,
    GlobalVector,
    Manifest,
    read_as,
    read_dims,
    read_matrix,
    read_tensor,
    write_manifest,
    write_rows,
    write_tensor,
)

from conftest import arrays_at_blas_threads, random_descriptors, random_gmm
from oracles import concat_variant_fvs, fit_local_models_by_view

SPEC = SynthSpec(
    classes=4,
    images_per_class=8,
    seed=11,
    views=2,
    test_fraction=0.25,
    fc_dim=12,
    map_size=5,
    map_channels=10,
)


def make_cfg(**overrides) -> PipelineConfig:
    base = dict(scenario="local_fv", pca_dim=5, gmm_components=3, gmm_max_iterations=40)
    base.update(overrides)
    return PipelineConfig(**base)


def run_at_threads(manifest, cfg, out, threads):
    """``fvforge --threads N run`` on ``manifest`` under ``cfg``; a
    pipeline error surfaces as raised, not as an exit code."""
    sections: dict[str, list[str]] = {}
    for f in fields(PipelineConfig):
        meta, value = f.metadata, getattr(cfg, f.name)
        if meta["kind"] is FusionWeights:
            texts = (value.object_weight, value.scene_weight)
        else:
            texts = (",".join(value) if meta["kind"] is tuple else value,)
        sections.setdefault(meta["section"], []).extend(
            f"{k} = {t}" for k, t in zip(meta["keys"], texts)
        )
    cfg_path = out.parent / f"{out.name}.cfg"
    cfg_path.write_text(
        "".join(f"[{s}]\n" + "\n".join(ls) + "\n" for s, ls in sections.items())
    )
    assert load_config(cfg_path) == cfg
    manifest_path = out.parent / f"{out.name}.manifest"
    write_manifest(manifest, manifest_path)
    args = build_parser().parse_args(
        [
            "--threads", str(threads),
            "run",
            "--config", str(cfg_path),
            "--manifest", str(manifest_path),
            "--out", str(out),
        ]
    )
    return args.func(args)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("synthdata"), SPEC)


@pytest.fixture(scope="module")
def local_run(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("local_run")
    report = run(dataset, make_cfg(), out)
    return out, report


def _file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _run_bytes(out):
    """Every file of a run directory — scores, report, features, models —
    by its path relative to the directory."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _feature_row(out, manifest, entry):
    """The row of ``entry`` in its role's feature container under ``out``."""
    entries = manifest.split(entry.role)
    matrix = read_matrix(out / "features" / f"{entry.role}.fvt", len(entries))
    return matrix[entries.index(entry)]


def _pooled_views(entry, stream, layer):
    """Float64 sum of an entry's rank-1 views, rounded through float32."""
    pooled = sum_pool([read_tensor(p).data for p in entry.paths_for(stream, layer)])
    return pooled.astype(np.float32).astype(np.float64)


def test_score_fusion_matches_manual_composition(dataset, tmp_path):
    cfg = make_cfg(scenario="softmax_fusion", alpha=FusionWeights(0.7, 1.3))
    report = run(dataset, cfg, tmp_path / "run")
    test_entries = dataset.split("test")
    rows = []
    for entry in test_entries:
        pooled = {stream: _pooled_views(entry, stream, "prob") for stream in STREAMS}
        rows.append(0.7 * pooled["object"] + 1.3 * pooled["scene"])
    matrix = np.stack(rows)
    expected = evaluate(
        matrix, [e.label for e in test_entries], class_names=dataset.class_names
    )
    np.testing.assert_array_equal(report.per_class_ap, expected.per_class_ap)
    assert report.map_score == expected.map_score
    assert report.top1_accuracy == expected.top1_accuracy
    ids, written = read_scores_csv(tmp_path / "run" / "scores.csv")
    assert ids == [e.image_id for e in test_entries]
    np.testing.assert_array_equal(written, matrix)


def test_score_fusion_weight_projects_one_stream(dataset, tmp_path):
    cfg = make_cfg(scenario="softmax_fusion", alpha=FusionWeights(1.0, 0.0))
    run(dataset, cfg, tmp_path / "run")
    _, written = read_scores_csv(tmp_path / "run" / "scores.csv")
    rows = [_pooled_views(e, "object", "prob") for e in dataset.split("test")]
    np.testing.assert_array_equal(written, np.stack(rows))


def test_score_fusion_falls_back_to_all_entries(dataset, tmp_path):
    all_train = Manifest(
        class_names=dataset.class_names,
        entries=tuple(replace(e, role="train") for e in dataset.entries),
    )
    cfg = make_cfg(scenario="softmax_fusion")
    run(all_train, cfg, tmp_path / "run")
    ids, _ = read_scores_csv(tmp_path / "run" / "scores.csv")
    assert len(ids) == len(dataset.entries)


def test_global_run_is_deterministic(dataset, tmp_path):
    cfg = make_cfg(scenario="global_pretrained")
    a, b = tmp_path / "a", tmp_path / "b"
    run(dataset, cfg, a)
    run(dataset, cfg, b)
    assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert _file_bytes(a / "features") == _file_bytes(b / "features")


def test_global_run_leaves_one_feature_container_per_role(dataset, tmp_path):
    """Exactly ``features/train.fvt`` and ``features/test.fvt``, each with
    one row per entry of its role."""
    run(dataset, make_cfg(scenario="global_pretrained"), tmp_path / "run")
    features = tmp_path / "run" / "features"
    assert sorted(p.name for p in features.iterdir()) == ["test.fvt", "train.fvt"]
    for role in ("train", "test"):
        rows = len(dataset.split(role))
        assert read_dims(features / f"{role}.fvt") == (rows, 1, 2 * SPEC.fc_dim)


def test_global_features_are_unit_vectors(dataset, tmp_path):
    cfg = make_cfg(scenario="global_pretrained")
    run(dataset, cfg, tmp_path / "run")
    vec = _feature_row(tmp_path / "run", dataset, dataset.entries[0])
    assert vec.size == 2 * SPEC.fc_dim
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


def test_zero_scene_weight_blanks_the_scene_block(dataset, tmp_path):
    cfg = make_cfg(scenario="global_pretrained", beta=FusionWeights(1.0, 0.0))
    run(dataset, cfg, tmp_path / "run")
    entry = dataset.entries[0]
    data = _feature_row(tmp_path / "run", dataset, entry)
    assert not data[SPEC.fc_dim :].any()
    expected = unit_norm(_pooled_views(entry, "object", "fc7"))
    np.testing.assert_allclose(data[: SPEC.fc_dim], expected, atol=1e-6)


def test_global_feature_rebuilds_exactly_from_fc7_views(dataset, tmp_path):
    cfg = make_cfg(scenario="global_pretrained", beta=FusionWeights(0.6, 1.4))
    run(dataset, cfg, tmp_path / "run")
    entry = dataset.split("test")[0]
    parts = []
    for stream in STREAMS:
        views = [
            read_tensor(p).data.astype(np.float64) for p in entry.paths_for(stream, "fc7")
        ]
        pooled = np.sum(views, axis=0).astype(np.float32).astype(np.float64)
        parts.append(unit_norm(pooled).astype(np.float32).astype(np.float64))
    fused = np.concatenate([0.6 * parts[0], 1.4 * parts[1]])
    written = _feature_row(tmp_path / "run", dataset, entry)
    np.testing.assert_array_equal(written, unit_norm(fused).astype(np.float32))


@pytest.mark.parametrize("role", ["train", "test"])
def test_local_feature_recomputable_from_saved_models(dataset, local_run, role):
    """Train features come from the fitting stack, test features from a
    fresh read; both equal an encoding rebuilt view by view."""
    out, _ = local_run
    cfg = make_cfg()
    entry = dataset.split(role)[0]
    stream_vecs = []
    for stream in STREAMS:
        encoded = {}
        for variant in cfg.tdd_variants:
            pca = load_pca(out / "models" / f"pca_{stream}_{variant}")
            gmm = load_gmm(out / "models" / f"gmm_{stream}_{variant}")
            fvs = []
            for path in entry.paths_for(stream, cfg.conv_layer):
                normed = normalize_variant(read_tensor(path), variant)
                ds = extract_descriptors(normed)
                fvs.append(encode_fv(gmm, project(pca, ds)).data)
            pooled = FisherVector(gmm.K, gmm.dim, sum_pool(fvs))
            fv = power_l2_normalize(intra_normalize(pooled))
            encoded[variant] = fv.data.astype(np.float32).astype(np.float64)
        joined = concat_variant_fvs(encoded["channel"], encoded["spatial"])
        stream_vecs.append(joined.astype(np.float32).astype(np.float64))
    fused = concat_features(stream_vecs[0], stream_vecs[1], cfg.beta).data
    expected = unit_norm(fused).astype(np.float32)
    np.testing.assert_array_equal(_feature_row(out, dataset, entry), expected)


def test_gmm_fit_logs_its_em_iterations(dataset, tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="fvforge.pipeline"):
        run(dataset, make_cfg(), tmp_path / "run")
    lines = [r.message for r in caplog.records if r.message.startswith("stage=fit-gmm")]
    assert len(lines) == 4  # one mixture per (stream, variant)
    for line in lines:
        fields = dict(item.split("=", 1) for item in line.split())
        assert int(fields["iterations"]) >= 1


def test_local_run_separates_the_synthetic_classes(local_run):
    _, report = local_run
    assert report.map_score >= 0.9
    assert report.excluded_classes == ()


def test_models_never_see_test_entries(dataset, local_run, tmp_path):
    full_out, _ = local_run
    train_only = Manifest(
        class_names=dataset.class_names, entries=dataset.split("train")
    )
    with pytest.raises(ValidationError, match="no test-role"):
        run(train_only, make_cfg(), tmp_path / "trainonly")
    full_models = sorted(
        p.relative_to(full_out) for p in (full_out / "models").rglob("*") if p.is_file()
    )
    assert full_models
    for rel in full_models:
        assert (tmp_path / "trainonly" / rel).read_bytes() == (
            full_out / rel
        ).read_bytes()


@pytest.mark.parametrize("threads", [1, 3])
def test_variant_order_does_not_change_a_local_run(
    dataset, local_run, tmp_path, threads
):
    """Fits follow the config's variant order, but encodings are keyed by
    variant and joined channel first, at any --threads."""
    default_out, _ = local_run
    out = tmp_path / "reversed"
    run_at_threads(dataset, make_cfg(tdd_variants=("spatial", "channel")), out, threads)
    assert _run_bytes(out) == _run_bytes(default_out)


@pytest.mark.parametrize("threads", [1, 3])
def test_local_run_reads_each_conv_view_once(dataset, tmp_path, monkeypatch, threads):
    """Fitting and encoding share one read of every conv view file, at
    any --threads."""
    reads = []

    def counting_read_as(path, expect):
        reads.append(Path(path).resolve())
        return read_as(path, expect)

    monkeypatch.setattr(pipeline, "read_as", counting_read_as)
    cfg = make_cfg()
    run_at_threads(dataset, cfg, tmp_path / "run", threads)
    conv_views = [
        path
        for entry in dataset.entries
        for stream in STREAMS
        for path in entry.paths_for(stream, cfg.conv_layer)
    ]
    counts = Counter(reads)
    assert {path: counts[path] for path in conv_views} == dict.fromkeys(conv_views, 1)


def test_local_models_equal_a_fit_on_stacked_view_sets(dataset, tmp_path):
    """Train entries with one or two views and 5x5 or 3x3 maps: the
    stacks ``run`` fills in place give the models of stacking one
    descriptor set per view."""
    small = generate_dataset(
        tmp_path / "small", replace(SPEC, images_per_class=3, views=1, map_size=3, seed=12)
    )
    mixed = Manifest(
        class_names=dataset.class_names,
        entries=dataset.entries
        + tuple(replace(e, image_id=f"small_{e.image_id}") for e in small.entries),
    )
    cfg = make_cfg()
    run(mixed, cfg, tmp_path / "run")
    for stream in STREAMS:
        fit_local_models_by_view(mixed.entries, stream, cfg, tmp_path / "oracle")
    written = _run_bytes(tmp_path / "run" / "models")
    expected = _run_bytes(tmp_path / "oracle")
    assert len(expected) == 2 * 2 * 2 * 4  # (stream, variant, model) x 4 files
    assert {name: written[name] for name in expected} == expected


def _with_conv_views(manifest, entry, stream, paths):
    """The manifest with ``entry``'s ``stream`` conv views set to ``paths``."""
    views = tuple(v for v in entry.views if v[:2] != (stream, "conv5_3"))
    views += tuple((stream, "conv5_3", path) for path in paths)
    entries = tuple(replace(e, views=views) if e is entry else e for e in manifest.entries)
    return Manifest(class_names=manifest.class_names, entries=entries)


@pytest.mark.parametrize(
    "tensor, error, match",
    [
        (FeatureMap(5, 5, 7, np.ones((5, 5, 7))), ShapeError, "7 channels"),
        (GlobalVector(10, np.ones(10)), ValidationError, "expected a FeatureMap"),
    ],
)
def test_train_view_of_another_shape_is_rejected(
    dataset, tmp_path, tensor, error, match
):
    path = tmp_path / "odd.fvt"
    write_tensor(tensor, path)
    entry = dataset.split("train")[1]
    broken = _with_conv_views(dataset, entry, "scene", [path])
    with pytest.raises(error, match=match):
        run(broken, make_cfg(), tmp_path / "run")


def test_train_view_that_disagrees_with_its_header_is_rejected(
    dataset, tmp_path, monkeypatch
):
    """A view file rewritten between its header read and its full read."""
    monkeypatch.setattr(pipeline, "read_dims", lambda path: (4, 5, SPEC.map_channels))
    with pytest.raises(CorruptionError, match="changed while it was read"):
        run(dataset, make_cfg(), tmp_path / "run")


def test_train_entry_without_conv_views_is_named(dataset, tmp_path):
    entry = dataset.split("train")[1]
    broken = _with_conv_views(dataset, entry, "object", [])
    with pytest.raises(ValidationError, match=f"'{entry.image_id}'.*conv5_3"):
        run(broken, make_cfg(), tmp_path / "run")


def test_encode_views_rejects_an_unknown_pooling_order(rng):
    model = random_gmm(rng, 2, 3)
    with pytest.raises(ParameterError, match="pooling_order"):
        pipeline.encode_views(
            model, [random_descriptors(rng, 5, 3)], "pooled"
        )


def test_pooling_order_changes_multi_view_features(dataset, local_run, tmp_path):
    baseline_out, _ = local_run
    run(dataset, make_cfg(pooling_order="normalize_then_pool"), tmp_path / "alt")
    baseline = _file_bytes(baseline_out / "features")
    alt = _file_bytes(tmp_path / "alt" / "features")
    assert set(baseline) == set(alt)
    assert any(baseline[name] != alt[name] for name in baseline)


def test_single_variant_halves_the_local_feature(dataset, tmp_path):
    cfg = make_cfg(tdd_variants=("spatial",))
    run(dataset, cfg, tmp_path / "run")
    vec = _feature_row(tmp_path / "run", dataset, dataset.entries[0])
    assert vec.size == 2 * (2 * cfg.gmm_components * cfg.pca_dim)


def test_layer_fusion_concatenates_both_representations(dataset, tmp_path, caplog):
    cfg = make_cfg(scenario="layer_fusion")
    with caplog.at_level(logging.INFO, logger="fvforge.pipeline"):
        report = run(dataset, cfg, tmp_path / "run")
    assert report.map_score >= 0.9
    vec = _feature_row(tmp_path / "run", dataset, dataset.entries[0])
    global_dim = 2 * SPEC.fc_dim
    local_dim = 2 * 2 * (2 * cfg.gmm_components * cfg.pca_dim)
    assert vec.size == global_dim + local_dim
    messages = [rec.message for rec in caplog.records]
    for marker in ("stage=features", "stage=train-svm", "stage=evaluate"):
        assert any(marker in m for m in messages)


def test_layer_fusion_scores_with_zero_local_weight_matches_global(dataset, tmp_path):
    cfg_scores = make_cfg(
        scenario="layer_fusion",
        layer_mode="scores",
        layer_weights=FusionWeights(1.0, 0.0),
    )
    report_lf = run(dataset, cfg_scores, tmp_path / "lf")
    report_g = run(dataset, make_cfg(scenario="global_pretrained"), tmp_path / "g")
    _, fused = read_scores_csv(tmp_path / "lf" / "scores.csv")
    _, global_only = read_scores_csv(tmp_path / "g" / "scores.csv")
    np.testing.assert_array_equal(fused, global_only)
    assert report_lf.map_score == report_g.map_score
    assert report_lf.top1_accuracy == report_g.top1_accuracy
    assert (tmp_path / "lf" / "models" / "svm_local" / "svm.model").is_file()


def test_wrong_score_layer_dim_is_rejected(dataset, tmp_path):
    cfg = make_cfg(scenario="softmax_fusion", score_layer="fc7")
    with pytest.raises(ShapeError, match="classes"):
        run(dataset, cfg, tmp_path / "run")


def test_read_features_holds_one_matrix(tmp_path):
    """250 vectors come back from ``read_matrix`` as float64 rows, in
    order, with no second copy alive at the peak."""
    rows = np.random.default_rng(8).normal(size=(250, 4096)).astype(np.float32)
    write_rows(tmp_path / "train.fvt", len(rows), rows)
    tracemalloc.start()
    try:
        matrix = read_matrix(tmp_path / "train.fvt", len(rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, rows)
    assert peak < 1.25 * matrix.nbytes


def test_read_stacks_holds_one_copy_of_the_stack(tmp_path):
    """40 descriptor files of 196 x 64 come back as one float32 stack, in
    order, with each file's row offset, and no second copy alive at the
    peak: each file is read into its rows, not kept to be joined later."""
    rows = np.random.default_rng(9).normal(size=(40, 196, 64)).astype(np.float32)
    paths = [tmp_path / f"d{i}.fvt" for i in range(len(rows))]
    for path, block in zip(paths, rows):
        write_tensor(FeatureMap(196, 1, 64, block), path)
    tracemalloc.start()
    try:
        (stack,), offsets = pipeline.read_stacks(paths, [extract_descriptors])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(stack.descriptors, rows.reshape(-1, 64))
    assert offsets == list(range(0, 40 * 196 + 1, 196))
    assert peak < 1.5 * stack.descriptors.nbytes


def test_read_stacks_fills_one_stack_per_row_function(dataset):
    """Each function writes its own stack from the same single read."""
    paths = [e.paths_for("object", "conv5_3")[0] for e in dataset.entries[:3]]
    fns = [
        lambda f, v=v: extract_descriptors(normalize_variant(f, v))
        for v in ("spatial", "channel")
    ]
    stacks, offsets = pipeline.read_stacks(paths, fns)
    for fn, stack in zip(fns, stacks):
        expected = np.vstack([fn(read_as(p, FeatureMap)).descriptors for p in paths])
        assert np.array_equal(stack.descriptors, expected)
    assert offsets == [0, 25, 50, 75]


def test_feature_containers_reject_mixed_dims_and_wrong_shapes(tmp_path):
    """The writer refuses rows of mixed dims and leaves no file; the reader
    refuses no rows, a row count other than the one asked for and a tensor
    that is not rows x 1 x dim."""
    path = tmp_path / "train.fvt"
    with pytest.raises(ShapeError, match="row 1 has dim 5, expected 4"):
        write_rows(path, 2, [np.ones(4), np.ones(5)])
    assert list(tmp_path.iterdir()) == []
    write_rows(path, 3, np.ones((3, 4)))
    with pytest.raises(ValidationError, match="3 rows, expected 0"):
        read_matrix(path, 0)
    with pytest.raises(ValidationError, match="3 rows, expected 2"):
        read_matrix(path, 2)
    write_tensor(FeatureMap(3, 2, 2, np.ones(12)), path)
    with pytest.raises(ValidationError, match="rows x 1 x dim"):
        read_matrix(path, 3)


def test_unlabeled_entries_are_rejected(dataset, tmp_path):
    entries = list(dataset.entries)
    victim = dataset.split("test")[0]
    entries[entries.index(victim)] = replace(victim, label=None)
    broken = Manifest(class_names=dataset.class_names, entries=tuple(entries))
    with pytest.raises(ValidationError, match="no label"):
        run(broken, make_cfg(scenario="softmax_fusion"), tmp_path / "run")


def test_missing_conv_views_are_named(dataset, tmp_path):
    entries = tuple(
        replace(e, views=tuple(v for v in e.views if v[1] != "conv5_3"))
        for e in dataset.entries
    )
    broken = Manifest(class_names=dataset.class_names, entries=entries)
    with pytest.raises(ValidationError, match="conv5_3"):
        run(broken, make_cfg(), tmp_path / "run")


@pytest.mark.parametrize("threads", [1, 3])
def test_first_failing_entry_in_manifest_order_is_reported(tmp_path, threads):
    """The second test entry's object view and the first's scene view
    are broken; the error names the first entry, first in manifest
    order, at any --threads."""
    corpus = generate_dataset(tmp_path / "data", SPEC)
    first, second = corpus.split("test")[:2]
    second.paths_for("object", "conv5_3")[0].write_bytes(b"JUNK")
    first.paths_for("scene", "conv5_3")[0].write_bytes(b"JUNK")
    with pytest.raises(FormatError, match=f"{first.image_id}\\."):
        run_at_threads(corpus, make_cfg(), tmp_path / "run", threads)


@pytest.mark.parametrize(
    "scenario, layer", [("softmax_fusion", "prob"), ("global_pretrained", "fc7")]
)
def test_first_failing_entry_of_a_vector_scenario_is_reported(tmp_path, scenario, layer):
    """Vectors are read entry by entry, object stream first: the first
    test entry's broken scene view is reported, not the second entry's
    broken object view."""
    corpus = generate_dataset(tmp_path / "data", SPEC)
    first, second = corpus.split("test")[:2]
    second.paths_for("object", layer)[0].write_bytes(b"JUNK")
    first.paths_for("scene", layer)[0].write_bytes(b"JUNK")
    with pytest.raises(FormatError, match=f"{first.image_id}\\."):
        run(corpus, make_cfg(scenario=scenario), tmp_path / "run")


_RUN_FILES = """
import sys
from pathlib import Path
import numpy as np
from fvforge.config import PipelineConfig
from fvforge.pipeline import run
from fvforge.synth import SynthSpec, generate_dataset

work = Path(sys.argv[1]).with_suffix("")
spec = SynthSpec(seed=3, classes=2, images_per_class=8, views=1, map_size=16,
                 map_channels=512, test_fraction=0.5)
cfg = PipelineConfig(pca_dim=8, gmm_components=2, gmm_max_iterations=3)
run(generate_dataset(work / "data", spec), cfg, work / "run")
files = sorted(p for p in (work / "run").rglob("*") if p.is_file())
np.savez(sys.argv[1], **{
    str(p.relative_to(work / "run")).replace("/", ":"): np.frombuffer(p.read_bytes(), np.uint8)
    for p in files
})
"""


def test_run_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Every file of a local_fv run directory, written by the library's
    ``run`` with no CLI around it, is byte-equal at 1 and 2 BLAS threads."""
    one, two = arrays_at_blas_threads(_RUN_FILES, tmp_path)
    assert "models:pca_scene_channel:basis.fvt" in one
    assert one.keys() == two.keys()
    for name in one:
        np.testing.assert_array_equal(one[name], two[name], err_msg=name)


def test_run_accepts_a_manifest_path(tmp_path):
    cfg = make_cfg(scenario="softmax_fusion")
    generate_dataset(tmp_path / "data", SPEC)
    report = run(str(tmp_path / "data" / "data.manifest"), cfg, tmp_path / "run")
    assert 0.0 <= report.map_score <= 1.0


def test_derived_seeds_are_distinct():
    seeds = {
        derived_seed(7, stream, variant)
        for stream in STREAMS
        for variant in ("channel", "spatial")
    }
    assert len(seeds) == 4
    assert derived_seed(8, "object", "channel") not in seeds
