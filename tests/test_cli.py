"""Exit codes, flag handling, and the scripted-chain equivalence of `run`."""

from __future__ import annotations

import argparse
import re
import struct
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fvforge.classify import LinearModel, save_svm
from fvforge.cli import MAX_THREADS, build_parser, main
from fvforge.config import PipelineConfig, load_config
from fvforge.gmm import GmmModel, load_gmm, save_gmm
from fvforge.normalize import variant_descriptors
from fvforge.pca import PcaModel, load_pca, project, save_pca
from fvforge.pipeline import derived_seed
from fvforge.synth import SynthSpec
from fvforge.tensors import (
    FeatureMap,
    GlobalVector,
    load_manifest,
    read_as,
    read_rows,
    read_tensor,
    write_manifest,
    write_rows,
    write_tensor,
)

from conftest import arrays_at_blas_threads

STREAMS = ("object", "scene")
VARIANTS = ("channel", "spatial")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small two-view dataset generated through the CLI itself."""
    data = tmp_path_factory.mktemp("cli_data") / "data"
    code = main(
        [
            "synth",
            "--out", str(data),
            "--classes", "3",
            "--images-per-class", "4",
            "--views", "2",
            "--fc-dim", "6",
            "--map-size", "4",
            "--map-channels", "6",
            "--seed", "13",
        ]
    )
    assert code == 0
    return data


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("plan-views", "encode-fv", "train-svm", "synth"):
        assert name in out


@pytest.mark.parametrize(
    "argv, section",
    [
        (["fit-pca", "--out", "m", "in.fvt"], "pca"),
        (["fit-gmm", "--out", "m", "in.fvt"], "gmm"),
        (["encode-fv", "--gmm", "g", "--out", "o", "in.fvt"], "normalize"),
        (["train-svm", "--manifest", "x", "--features", "f", "--out", "m"], "svm"),
    ],
    ids=["fit-pca", "fit-gmm", "encode-fv", "train-svm"],
)
def test_stage_flags_are_the_config_keys_of_their_section(argv, section):
    """Beside the options ``argv`` names, a stage subcommand has exactly
    one ``--<key>`` flag per key of its config section, and left out they
    are the default config's values."""
    (parser,) = (
        action.choices[argv[0]]
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {flag for action in parser._actions for flag in action.option_strings}
    keyed = [f for f in fields(PipelineConfig) if f.metadata["section"] == section]
    assert options - {"-h", "--help"} - set(argv) == {
        "--" + f.metadata["keys"][0].replace("_", "-") for f in keyed
    }
    args = build_parser().parse_args(argv)
    cfg = PipelineConfig()
    assert {f.name: getattr(args, f.name) for f in keyed} == {
        f.name: getattr(cfg, f.name) for f in keyed
    }


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fit-pca", ["--dim", "0"]),
        ("fit-gmm", ["--components", "0"]),
        ("fit-gmm", ["--tol", "0"]),
        ("fit-gmm", ["--max-iterations", "0"]),
        ("encode-fv", ["--pooling-order", "sideways"]),
        ("train-svm", ["--c", "inf"]),
        ("train-svm", ["--tol", "nan"]),
        ("train-svm", ["--max-epochs", "0"]),
    ],
    ids=[
        "pca-dim", "gmm-components", "gmm-tol", "gmm-max-iterations",
        "pooling-order", "svm-c", "svm-tol", "svm-max-epochs",
    ],
)
def test_invalid_stage_flag_value_exits_two_without_writing(tiny, tmp_path, command, flags):
    """A value the config would refuse for the key is refused as a flag,
    before anything is written; the same call without it succeeds."""
    descriptors = tmp_path / "d.fvt"
    write_tensor(FeatureMap(6, 1, 4, np.arange(24.0)), descriptors)
    out = tmp_path / "out"
    if command == "train-svm":
        manifest = tiny / "data.manifest"
        train = load_manifest(manifest).split("train")
        write_rows(tmp_path / "train.fvt", len(train), [np.full(4, 0.5)] * len(train))
        argv = ["train-svm", "--manifest", str(manifest),
                "--features", str(tmp_path / "train.fvt")]
    elif command == "encode-fv":
        gmm = str(tmp_path / "gmm")
        assert main(["fit-gmm", "--components", "2", "--out", gmm, str(descriptors)]) == 0
        argv = ["encode-fv", "--gmm", gmm, str(descriptors)]
    else:
        argv = [command, "--dim" if command == "fit-pca" else "--components", "2",
                str(descriptors)]
    try:
        code = main(argv + flags + ["--out", str(out)])
    except SystemExit as exc:  # a choice argparse refuses
        code = exc.code
    assert code == 2
    assert not out.exists()
    assert main(argv + ["--out", str(out)]) == 0


def test_synth_flag_defaults_are_the_spec_defaults():
    args = vars(build_parser().parse_args(["synth", "--out", "d"]))
    spec = SynthSpec()
    assert {name: args[name] for name in spec.__dataclass_fields__} == vars(spec)


def test_readme_flags_are_parser_options():
    """Every ``--flag`` the README names is an option of the parser or of
    one of its subcommands; pip's ``--no-build-isolation`` is the exception."""
    parsers = [build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    options = {flag for p in parsers for action in p._actions for flag in action.option_strings}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert named, "the README names no flags"
    assert named <= options, sorted(named - options)


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_missing_scores_file_exits_three(tiny, tmp_path):
    code = main(
        [
            "evaluate",
            "--scores", str(tmp_path / "missing.csv"),
            "--manifest", str(tiny / "data.manifest"),
        ]
    )
    assert code == 3


def test_nonpositive_threads_exit_two():
    assert main(["--threads", "0", "plan-views", "--width", "8", "--height", "8"]) == 2


def test_threads_above_the_bound_exit_two_without_starting_one(tiny, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pipeline]\nscenario = softmax_fusion\n")
    before = threading.active_count()
    code = main(
        [
            "--threads", "100000",
            "run",
            "--config", str(cfg),
            "--manifest", str(tiny / "data.manifest"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert threading.active_count() == before
    assert str(MAX_THREADS) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario",
    [
        "scenario = local_fv\n",
        "scenario = layer_fusion\n\n[fusion]\nlayer_mode = features\n",
        "scenario = layer_fusion\n\n[fusion]\nlayer_mode = scores\n",
        "scenario = softmax_fusion\n",
        "scenario = global_pretrained\n",
    ],
    ids=[
        "local_fv", "layer_fusion-features", "layer_fusion-scores",
        "softmax_fusion", "global_pretrained",
    ],
)
def test_run_starts_no_thread_and_ignores_the_thread_count(
    tiny, tmp_path, monkeypatch, scenario
):
    """`run` works on the calling thread alone, and at --threads 3 it
    writes every byte of the run directory that --threads 1 writes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pipeline]\n" + scenario + "\n" + _SMALL_CFG)

    def refuse(self):
        raise AssertionError(f"run started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    trees = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads_{threads}"
        assert main(
            [
                "--threads", threads,
                "run",
                "--config", str(cfg),
                "--manifest", str(tiny / "data.manifest"),
                "--out", str(out),
            ]
        ) == 0
        trees.append(
            {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        )
    assert trees[0] and trees[0] == trees[1]


def test_plan_views_stdout(capsys):
    assert main(["plan-views", "--width", "512", "--height", "512"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scale,crop_x,crop_y,crop_size,flip"
    assert len(lines) == 1 + 30
    assert "384,80,80,224,0" in lines  # center crop at the middle scale
    assert main(["plan-views", "--width", "512", "--height", "512", "--no-flips"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 15


def test_plan_views_file_output_and_bad_crop(tmp_path):
    out = tmp_path / "views.csv"
    assert (
        main(
            [
                "plan-views",
                "--width", "300", "--height", "200",
                "--scales", "256", "--out", str(out),
            ]
        )
        == 0
    )
    assert out.read_text().splitlines()[0].startswith("scale,")
    assert main(
        ["plan-views", "--width", "64", "--height", "64", "--scales", "100", "--crop", "224"]
    ) == 2


@pytest.mark.parametrize("scales", ["a", ","])
def test_plan_views_bad_scales_exit_two(tmp_path, scales):
    out = tmp_path / "views.csv"
    argv = ["plan-views", "--width", "300", "--height", "200", "--scales", scales]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1", "x,y"])
def test_fuse_bad_alpha_exits_two(tmp_path, alpha):
    a, b = tmp_path / "a.fvt", tmp_path / "b.fvt"
    write_tensor(GlobalVector(3, np.ones(3)), a)
    write_tensor(GlobalVector(3, np.ones(3)), b)
    out = tmp_path / "fused.fvt"
    assert main(
        ["fuse", "--mode", "scores", "--alpha", alpha, "--out", str(out), str(a), str(b)]
    ) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["fit-pca", "--dim", "2"], ["fit-gmm", "--components", "2"]], ids=["fit-pca", "fit-gmm"]
)
def test_fits_on_descriptor_files_of_two_widths_exit_three(tmp_path, command):
    inputs = []
    for width in (4, 5):
        path = tmp_path / f"w{width}.fvt"
        write_tensor(FeatureMap(6, 1, width, np.arange(6.0 * width)), path)
        inputs.append(str(path))
    model_dir = tmp_path / "model"
    assert main(command + ["--out", str(model_dir), *inputs]) == 3
    assert not model_dir.exists()


@pytest.mark.parametrize("command", ["fit-pca", "apply-pca", "fit-gmm", "encode-fv"])
def test_descriptor_files_of_width_other_than_one_exit_three(tmp_path, rng, capsys, command):
    """A descriptor container is count x 1 x dim; a wider map is not
    flattened into descriptors, even after a valid file."""
    good, wide = tmp_path / "good.fvt", tmp_path / "wide.fvt"
    write_tensor(FeatureMap(12, 1, 4, rng.normal(size=48)), good)
    write_tensor(FeatureMap(6, 2, 4, rng.normal(size=48)), wide)
    pca, gmm = tmp_path / "pca", tmp_path / "gmm"
    assert main(["fit-pca", "--dim", "2", "--out", str(pca), str(good)]) == 0
    assert main(["fit-gmm", "--components", "2", "--out", str(gmm), str(good)]) == 0
    out = str(tmp_path / "out")
    argv = {
        "fit-pca": ["fit-pca", "--dim", "2", "--out", out, str(good), str(wide)],
        "apply-pca": ["apply-pca", "--model", str(pca), "--in", str(wide), "--out", out],
        "fit-gmm": ["fit-gmm", "--components", "2", "--out", out, str(good), str(wide)],
        "encode-fv": ["encode-fv", "--gmm", str(gmm), "--out", out, str(good), str(wide)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    assert f"{wide}: descriptor container is 6 x 2 x 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tdd_modes_and_suffixes(tiny, tmp_path):
    manifest = load_manifest(tiny / "data.manifest")
    conv = manifest.entries[0].paths_for("object", "conv5_3")[0]
    single = tmp_path / "one.fvt"
    assert main(["tdd", "--in", str(conv), "--mode", "channel", "--out", str(single)]) == 0
    tensor = read_tensor(single)
    assert (tensor.height, tensor.width, tensor.channels) == (16, 1, 6)


def test_tdd_and_apply_pca_write_the_descriptors_read_rows_reads(tiny, tmp_path):
    conv = load_manifest(tiny / "data.manifest").entries[0].paths_for("object", "conv5_3")[0]
    desc, proj, pca = (str(tmp_path / name) for name in ("desc.fvt", "proj.fvt", "pca"))
    assert main(["tdd", "--in", str(conv), "--mode", "spatial", "--out", desc]) == 0
    assert main(["fit-pca", "--dim", "3", "--out", pca, desc]) == 0
    assert main(["apply-pca", "--model", pca, "--in", desc, "--out", proj]) == 0
    written = variant_descriptors(read_as(conv, FeatureMap), "spatial")
    rows = [row.copy() for row in read_rows(desc, len(written.descriptors))]
    assert np.array_equal(rows, written.descriptors)
    projected = project(load_pca(pca), written)
    rows = [row.copy() for row in read_rows(proj, len(projected.descriptors))]
    assert np.array_equal(rows, projected.descriptors)


def test_one_dimensional_descriptors_run_the_whole_local_chain(tiny, tmp_path):
    """Every model matrix of a PCA to one dim is (rows, 1): the mixture's
    means and variances are read back as K x 1, not as K values."""
    conv = load_manifest(tiny / "data.manifest").entries[0].paths_for("object", "conv5_3")[0]
    desc, proj, pca, gmm, fv = (
        str(tmp_path / name) for name in ("desc.fvt", "proj.fvt", "pca", "gmm", "fv.fvt")
    )
    assert main(["tdd", "--in", str(conv), "--mode", "spatial", "--out", desc]) == 0
    assert main(["fit-pca", "--dim", "1", "--out", pca, desc]) == 0
    assert main(["apply-pca", "--model", pca, "--in", desc, "--out", proj]) == 0
    assert main(["fit-gmm", "--components", "2", "--out", gmm, proj]) == 0
    assert main(["encode-fv", "--gmm", gmm, "--out", fv, proj]) == 0
    assert load_gmm(gmm).means.shape == (2, 1)
    assert read_as(fv, GlobalVector).dim == 2 * 2 * 1


def test_tdd_rejects_rank1_input_without_writing(tiny, tmp_path):
    manifest = load_manifest(tiny / "data.manifest")
    vec = manifest.entries[0].paths_for("object", "fc7")[0]
    out = tmp_path / "never.fvt"
    assert main(["tdd", "--in", str(vec), "--mode", "channel", "--out", str(out)]) == 3
    assert not out.exists()


def test_corrupted_mixture_exits_four(tmp_path):
    gmm_dir = tmp_path / "gmm"
    model = GmmModel(
        K=2,
        dim=3,
        weights=np.array([0.5, 0.5]),
        means=np.zeros((2, 3)),
        variances=np.ones((2, 3)),
    )
    save_gmm(model, gmm_dir)
    write_tensor(GlobalVector(2, np.zeros(2)), gmm_dir / "weights.fvt")
    code = main(
        [
            "encode-fv",
            "--gmm", str(gmm_dir),
            "--out", str(tmp_path / "fv.fvt"),
            str(tmp_path / "in.fvt"),
        ]
    )
    assert code == 4
    assert not (tmp_path / "fv.fvt").exists()


@pytest.mark.parametrize(
    "command, payload, bad",
    [
        ("encode-fv", "variances.fvt", GlobalVector(6, np.ones(6))),
        ("encode-fv", "means.fvt", FeatureMap(2, 3, 1, np.zeros(6))),
        ("apply-pca", "basis.fvt", FeatureMap(2, 3, 1, np.zeros(6))),
        ("apply-pca", "eigenvalues.fvt", FeatureMap(2, 1, 1, np.ones(2))),
        ("predict", "svm.model", "weights=weights.fvt\nbiases=biases.fvt\n"
         "class_count=3\nfeature_dim=5\nc=1.0\n"),
        ("predict", "weights.fvt", FeatureMap(2, 1, 9, np.zeros(18))),
        ("predict", "weights.fvt", FeatureMap(3, 2, 3, np.zeros(18))),
    ],
    ids=[
        "gmm-rank1-variances", "gmm-wide-means", "pca-wide-basis",
        "pca-rank3-eigenvalues", "svm-header-feature-dim", "svm-weights-shape",
        "svm-weights-width-2",
    ],
)
def test_malformed_model_tensor_exits_three(tmp_path, command, payload, bad):
    """A model payload of the wrong rank, width or shape is a typed data error."""
    model_dir = tmp_path / "model"
    infile = tmp_path / "in.fvt"
    write_tensor(FeatureMap(4, 1, 3, np.arange(12.0)), infile)
    if command == "encode-fv":
        save_gmm(
            GmmModel(
                K=2, dim=3, weights=np.array([0.5, 0.5]),
                means=np.zeros((2, 3)), variances=np.ones((2, 3)),
            ),
            model_dir,
        )
        argv = ["encode-fv", "--gmm", str(model_dir), str(infile)]
    elif command == "apply-pca":
        save_pca(
            PcaModel(
                input_dim=3, output_dim=2, mean=np.zeros(3),
                basis=np.eye(3)[:2], eigenvalues=np.array([2.0, 1.0]),
            ),
            model_dir,
        )
        argv = ["apply-pca", "--model", str(model_dir), "--in", str(infile)]
    else:
        save_svm(LinearModel(3, 6, np.zeros((3, 6)), np.zeros(3)), model_dir)
        features = tmp_path / "test.fvt"
        write_rows(features, 1, [np.ones(6)])
        manifest = tmp_path / "data.manifest"
        manifest.write_text("classes: a,b,c\nimg\t0\tobject:fc7=img.fvt\ttest\n")
        argv = [
            "predict", "--model", str(model_dir), "--in", str(features),
            "--manifest", str(manifest),
        ]
    if isinstance(bad, str):
        (model_dir / payload).write_text(bad)
    else:
        write_tensor(bad, model_dir / payload)
    out = tmp_path / "out.fvt"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()


def test_fuse_scores_weighted_sum(tmp_path):
    a, b = tmp_path / "a.fvt", tmp_path / "b.fvt"
    write_tensor(GlobalVector(3, np.array([1.0, 2.0, 3.0])), a)
    write_tensor(GlobalVector(3, np.array([10.0, 20.0, 30.0])), b)
    out = tmp_path / "fused.fvt"
    assert main(
        ["fuse", "--mode", "scores", "--alpha", "2,0.5", "--out", str(out), str(a), str(b)]
    ) == 0
    np.testing.assert_allclose(read_tensor(out).data, [7.0, 14.0, 21.0])


def test_fuse_dim_mismatch_exits_three(tmp_path):
    a, b = tmp_path / "a.fvt", tmp_path / "b.fvt"
    write_tensor(GlobalVector(3, np.zeros(3)), a)
    write_tensor(GlobalVector(4, np.zeros(4)), b)
    code = main(
        ["fuse", "--mode", "scores", "--out", str(tmp_path / "o.fvt"), str(a), str(b)]
    )
    assert code == 3


def test_evaluate_rejects_unknown_image_without_writing(tiny, tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("image_id,score_0,score_1,score_2\nghost,1.0,2.0,3.0\n")
    report = tmp_path / "report.csv"
    code = main(
        [
            "evaluate",
            "--scores", str(scores),
            "--manifest", str(tiny / "data.manifest"),
            "--out", str(report),
        ]
    )
    assert code == 3
    assert not report.exists()


def test_run_prints_a_summary_line(tiny, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pipeline]\nscenario = softmax_fusion\n")
    code = main(
        [
            "run",
            "--config", str(cfg),
            "--manifest", str(tiny / "data.manifest"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("mAP=") and " top1=" in summary
    assert (tmp_path / "out" / "report.csv").is_file()


@pytest.mark.parametrize(
    "image_id, role",
    [("../../escaped", "train"), ("x,y", "test"), ('"q', "test"), ("", "test")],
    ids=["slash", "comma", "quote", "empty"],
)
def test_manifest_image_ids_that_break_the_run_directory_exit_three(
    tiny, tmp_path, capsys, image_id, role
):
    """An id names a scores.csv cell and the vector file `stack` reads, so
    a slash could name a file outside that directory, a comma or quote
    would make a scores.csv that evaluate rejects, and an empty id would
    name the hidden file ``.fvt``.  ``ManifestEntry`` refuses such an id,
    so it is put into the written text."""
    manifest = load_manifest(tiny / "data.manifest")
    at = next(i for i, e in enumerate(manifest.entries) if e.role == role)
    path = tmp_path / "m.manifest"
    write_manifest(manifest, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[at + 1] = image_id + lines[at + 1][lines[at + 1].index("\t"):]
    path.write_text("".join(lines))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pipeline]\nscenario = global_pretrained\n")
    out = tmp_path / "deep" / "run"
    capsys.readouterr()
    code = main(["run", "--config", str(cfg), "--manifest", str(path), "--out", str(out)])
    assert code == 3
    assert f"line {at + 2}" in capsys.readouterr().err
    assert not (tmp_path / "deep").exists()


def test_predict_refuses_a_model_whose_class_names_differ_from_the_manifest(
    tiny, tmp_path, capsys
):
    """Scores are columns by class index, so a model trained on other names
    would have evaluate report each AP under the wrong class."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pipeline]\nscenario = global_pretrained\n")
    run = tmp_path / "r"
    argv = ["run", "--config", str(cfg), "--manifest", str(tiny / "data.manifest")]
    assert main([*argv, "--out", str(run)]) == 0
    text = (tiny / "data.manifest").read_text()
    assert text.startswith("classes: class00,class01,class02\n")
    swapped = tmp_path / "swapped.manifest"  # predict opens no view file
    swapped.write_text(text.replace("class00,class01,class02", "class02,class01,class00", 1))
    capsys.readouterr()
    scores = tmp_path / "scores.csv"
    code = main(
        ["predict", "--model", str(run / "models" / "svm"), "--manifest", str(swapped),
         "--in", str(run / "features" / "test.fvt"), "--out", str(scores)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "'class00', 'class01', 'class02'" in err and "'class02', 'class01', 'class00'" in err
    assert not scores.exists()


@pytest.mark.parametrize(
    "seed_cfg", ["seed = -1\n", "\n[svm]\nseed = -3\n"], ids=["gmm", "svm"]
)
def test_run_with_a_negative_seed_exits_two_before_fitting(tiny, tmp_path, seed_cfg):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pca]\ndim = 4\n\n[gmm]\ncomponents = 2\n" + seed_cfg)
    out = tmp_path / "run"
    code = main(
        ["run", "--config", str(cfg), "--manifest", str(tiny / "data.manifest"), "--out", str(out)]
    )
    assert code == 2
    assert not (out / "models").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--class-scale", "--noise-scale"])
def test_non_finite_synth_scale_exits_two_without_writing(tmp_path, flag, value):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), flag, value]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "fit-gmm", "train-svm"])
def test_negative_seed_flag_exits_two_without_writing(tiny, tmp_path, command):
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--out", str(out), "--seed", "-1"]
    elif command == "fit-gmm":
        descriptors = tmp_path / "d.fvt"
        write_tensor(FeatureMap(6, 1, 4, np.arange(24.0)), descriptors)
        argv = ["fit-gmm", "--components", "2", "--seed", "-1", "--out", str(out), str(descriptors)]
    else:
        manifest = tiny / "data.manifest"
        features = tmp_path / "train.fvt"
        train = load_manifest(manifest).split("train")
        write_rows(features, len(train), [np.full(4, 0.5)] * len(train))
        argv = ["train-svm", "--manifest", str(manifest), "--features", str(features),
                "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


_SMALL_CFG = "[pca]\ndim = 4\n\n[gmm]\ncomponents = 2\n"


@pytest.mark.parametrize(
    "config",
    [
        _SMALL_CFG,
        _SMALL_CFG + "\n[normalize]\npooling_order = normalize_then_pool\n",
        # Some mixtures and SVM classes stop on tol and some on the
        # iteration cap, so each of the four keys changes the models.
        "[fusion]\nbeta_object = 2.0\nbeta_scene = 0.5\n\n[pca]\ndim = 3\n\n"
        "[gmm]\ncomponents = 4\nseed = 11\ntol = 1e-4\nmax_iterations = 10\n\n"
        "[svm]\nc = 0.5\nseed = 3\nmax_epochs = 20\ntol = 1e-3\n",
    ],
    ids=["pool_then_normalize", "normalize_then_pool", "non_default"],
)
def test_scripted_chain_matches_run_byte_for_byte(tiny, tmp_path, capsys, config):
    """Composing the module subcommands by hand, each stage's flags set
    to its config section's keys, reproduces `run` exactly."""
    manifest_path = str(tiny / "data.manifest")
    manifest = load_manifest(manifest_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config)
    cfg = load_config(cfg_path)
    auto = tmp_path / "auto"
    assert main(
        ["run", "--config", str(cfg_path), "--manifest", manifest_path, "--out", str(auto)]
    ) == 0

    work = tmp_path / "manual"
    vectors = work / "vectors"
    vectors.mkdir(parents=True)

    # Per-view descriptor files for every entry, stream, and variant.
    tdd_files = {}
    for entry in manifest.entries:
        for stream in STREAMS:
            for variant in VARIANTS:
                outs = []
                for i, view in enumerate(entry.paths_for(stream, "conv5_3")):
                    out = work / f"tdd_{entry.image_id}_{stream}_{variant}_{i}.fvt"
                    assert main(["tdd", "--in", str(view), "--mode", variant, "--out", str(out)]) == 0
                    outs.append(out)
                tdd_files[(entry.image_id, stream, variant)] = outs

    # Models fit on train-role files only, in manifest order.
    train = manifest.split("train")
    projected = {}
    for stream in STREAMS:
        for variant in VARIANTS:
            pca_dir = work / f"pca_{stream}_{variant}"
            train_tdd = [
                str(p) for e in train for p in tdd_files[(e.image_id, stream, variant)]
            ]
            assert main(
                ["fit-pca", "--dim", str(cfg.pca_dim), "--out", str(pca_dir), *train_tdd]
            ) == 0
            for entry in manifest.entries:
                outs = []
                for i, tdd_file in enumerate(tdd_files[(entry.image_id, stream, variant)]):
                    out = work / f"proj_{entry.image_id}_{stream}_{variant}_{i}.fvt"
                    assert main(
                        ["apply-pca", "--model", str(pca_dir), "--in", str(tdd_file), "--out", str(out)]
                    ) == 0
                    outs.append(out)
                projected[(entry.image_id, stream, variant)] = outs
            gmm_dir = work / f"gmm_{stream}_{variant}"
            train_proj = [
                str(p) for e in train for p in projected[(e.image_id, stream, variant)]
            ]
            assert main(
                [
                    "fit-gmm",
                    "--components", str(cfg.gmm_components),
                    "--seed", str(derived_seed(cfg.gmm_seed, stream, variant)),
                    "--max-iterations", str(cfg.gmm_max_iterations),
                    "--tol", str(cfg.gmm_tol),
                    "--out", str(gmm_dir),
                    *train_proj,
                ]
            ) == 0

    # Encode views, join variants, then join streams, per image.
    for entry in manifest.entries:
        stream_vecs = []
        for stream in STREAMS:
            variant_fvs = []
            for variant in VARIANTS:
                fv_out = work / f"fv_{entry.image_id}_{stream}_{variant}.fvt"
                inputs = [str(p) for p in projected[(entry.image_id, stream, variant)]]
                assert main(
                    [
                        "encode-fv",
                        "--gmm", str(work / f"gmm_{stream}_{variant}"),
                        "--pooling-order", cfg.pooling_order,
                        "--out", str(fv_out),
                        *inputs,
                    ]
                ) == 0
                variant_fvs.append(str(fv_out))
            stream_vec = work / f"stream_{entry.image_id}_{stream}.fvt"
            assert main(
                ["fuse", "--mode", "features", "--alpha", "1,1",
                 "--out", str(stream_vec), *variant_fvs]
            ) == 0
            stream_vecs.append(str(stream_vec))
        beta = f"{cfg.beta.object_weight!r},{cfg.beta.scene_weight!r}"
        assert main(
            ["fuse", "--mode", "features", "--alpha", beta,
             "--out", str(vectors / f"{entry.image_id}.fvt"), *stream_vecs]
        ) == 0

    # One feature container per role, rows in manifest order.
    for role in ("train", "test"):
        assert main(
            ["stack", "--manifest", manifest_path, "--role", role,
             "--out", str(work / f"{role}.fvt"), str(vectors)]
        ) == 0
    svm_dir = work / "svm"
    assert main(
        ["train-svm", "--manifest", manifest_path, "--features", str(work / "train.fvt"),
         "--c", str(cfg.svm_c), "--seed", str(cfg.svm_seed),
         "--max-epochs", str(cfg.svm_max_epochs), "--tol", str(cfg.svm_tol),
         "--out", str(svm_dir)]
    ) == 0
    scores = work / "scores.csv"
    assert main(
        ["predict", "--model", str(svm_dir), "--in", str(work / "test.fvt"),
         "--manifest", manifest_path, "--role", "test", "--out", str(scores)]
    ) == 0
    report = work / "report.csv"
    capsys.readouterr()
    assert main(
        ["evaluate", "--scores", str(scores), "--manifest", manifest_path,
         "--out", str(report)]
    ) == 0
    assert capsys.readouterr().out.startswith("mAP=")

    # Every serialized artifact agrees byte for byte with the one-shot run.
    assert scores.read_bytes() == (auto / "scores.csv").read_bytes()
    assert report.read_bytes() == (auto / "report.csv").read_bytes()
    assert sorted(p.name for p in (auto / "features").iterdir()) == ["test.fvt", "train.fvt"]
    for name in ("train.fvt", "test.fvt"):
        assert (work / name).read_bytes() == (auto / "features" / name).read_bytes()
    for stream in STREAMS:
        for variant in VARIANTS:
            for kind in ("pca", "gmm"):
                manual_dir = work / f"{kind}_{stream}_{variant}"
                auto_dir = auto / "models" / f"{kind}_{stream}_{variant}"
                for part in sorted(manual_dir.iterdir()):
                    assert part.read_bytes() == (auto_dir / part.name).read_bytes()
    for part in sorted(svm_dir.iterdir()):
        assert part.read_bytes() == (auto / "models" / "svm" / part.name).read_bytes()


_CLI_OUTPUTS = r"""
import sys
from pathlib import Path
import numpy as np
from fvforge.cli import main
from fvforge.gmm import GmmModel, load_gmm, save_gmm
from fvforge.tensors import read_tensor, write_rows

out = Path(sys.argv[1])
work = out.with_suffix("")
work.mkdir()
rng = np.random.default_rng(5)
x = rng.normal(size=(2000, 512))
write_rows(work / "wide.fvt", len(x), x)
assert main(["fit-pca", "--dim", "64", "--out", str(work / "pca"), str(work / "wide.fvt")]) == 0

# A mixture symmetric about the origin, with two components at the origin,
# and a bag of +/- pairs: those components' first-order blocks are pure
# rounding residue, which intra-normalization scales to unit length, so
# any change in summation order shows in the float32 output.
K, d = 256, 64
half = rng.normal(size=(K // 2 - 1, d))
raw = rng.uniform(0.2, 1.0, K // 2 - 1)
var = rng.uniform(0.5, 2.0, (K // 2 + 1, d))
weights = np.concatenate([[0.5, 0.5], raw, raw])
save_gmm(
    GmmModel(
        K=K, dim=d, weights=weights / weights.sum(),
        means=np.vstack([np.zeros((2, d)), half, -half]),
        variances=np.vstack([var, var[2:]]),
    ),
    work / "gmm",
)
pairs = rng.normal(size=(1000, d))
write_rows(work / "bag.fvt", 2 * len(pairs), np.vstack([pairs, -pairs]))
assert main(["encode-fv", "--gmm", str(work / "gmm"), "--out", str(work / "fv.fvt"), str(work / "bag.fvt")]) == 0

# One-vs-rest SVMs on 160 unit vectors of 3000 dims, scored on 40 more.
lines = ["classes: " + ",".join(f"c{k}" for k in range(8))]
rows = [row / np.linalg.norm(row) for row in rng.normal(size=(200, 3000))]
for i in range(200):
    role = "test" if i >= 160 else "train"
    lines.append(f"img{i}\t{i % 8}\tobject:fc7=img{i}.fvt\t{role}")
(work / "data.manifest").write_text("\n".join(lines) + "\n")
write_rows(work / "train.fvt", 160, rows[:160])
write_rows(work / "test.fvt", 40, rows[160:])
svm_args = ["--manifest", str(work / "data.manifest")]
assert main(["train-svm", *svm_args, "--features", str(work / "train.fvt"), "--out", str(work / "svm")]) == 0
assert main(["predict", *svm_args, "--model", str(work / "svm"), "--in", str(work / "test.fvt"), "--out", str(work / "scores.csv")]) == 0
np.savez(
    out,
    basis=read_tensor(work / "pca" / "basis.fvt").data,
    fv=read_tensor(work / "fv.fvt").data,
    weights=read_tensor(work / "svm" / "weights.fvt").data,
    biases=read_tensor(work / "svm" / "biases.fvt").data,
    scores=np.frombuffer((work / "scores.csv").read_bytes(), dtype=np.uint8),
)
"""


def test_cli_outputs_do_not_depend_on_blas_threads(tmp_path):
    """A 512-dim PCA basis, a K = 256 Fisher vector, an SVM's weights and
    biases and its scores CSV, written by the CLI, are bitwise equal at 1
    and 2 BLAS threads."""
    results = arrays_at_blas_threads(_CLI_OUTPUTS, tmp_path)
    for key in ("basis", "fv", "weights", "biases", "scores"):
        np.testing.assert_array_equal(results[0][key], results[1][key])


# ------------------------------------------------- malformed inputs exit 3

_LYING_VIEW = struct.pack("<4sBBBB3I", b"FVT1", 1, 1, 3, 0, 65535, 65535, 16) + bytes(56)


def _svm_inputs(tiny, tmp_path):
    """Write containers of the tiny corpus's train and test entries and a
    model trained on the first, under ``tmp_path``."""
    manifest = load_manifest(tiny / "data.manifest")
    train, test = manifest.split("train"), manifest.split("test")
    write_rows(tmp_path / "train.fvt", len(train), np.eye(len(train), 4) + 0.5)
    write_rows(tmp_path / "test.fvt", len(test), np.eye(len(test), 4) + 0.5)
    assert main(
        ["train-svm", "--manifest", str(tiny / "data.manifest"),
         "--features", str(tmp_path / "train.fvt"), "--out", str(tmp_path / "svm")]
    ) == 0


@pytest.mark.parametrize("command", ["train-svm", "predict"])
def test_truncated_feature_container_exits_three_without_writing(
    tiny, tmp_path, capsys, command
):
    _svm_inputs(tiny, tmp_path)
    role = "train" if command == "train-svm" else "test"
    container = tmp_path / f"{role}.fvt"
    container.write_bytes(container.read_bytes()[:-4])
    out = tmp_path / "out"
    manifest = str(tiny / "data.manifest")
    if command == "train-svm":
        argv = ["train-svm", "--manifest", manifest, "--features", str(container)]
    else:
        argv = ["predict", "--model", str(tmp_path / "svm"), "--in", str(container),
                "--manifest", manifest]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 3
    assert "payload is" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["test.fvt", "svm/weights.fvt"], ids=["features", "model"])
def test_negative_row_under_the_nonnegative_flag_exits_three(tiny, tmp_path, capsys, target):
    """A row container whose header declares its values nonnegative but
    that holds a negative one is refused as ``predict --in`` and as a
    model matrix alike."""
    _svm_inputs(tiny, tmp_path)
    path = tmp_path / target
    blob = bytearray(path.read_bytes())
    blob[7] = 1
    struct.pack_into("<f", blob, len(blob) - 4, -1.0)
    path.write_bytes(bytes(blob))
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    assert main(
        ["predict", "--model", str(tmp_path / "svm"), "--in", str(tmp_path / "test.fvt"),
         "--manifest", str(tiny / "data.manifest"), "--out", str(out)]
    ) == 3
    assert "is negative under the nonnegative flag" in capsys.readouterr().err
    assert not out.exists()


def test_scores_field_past_the_csv_field_limit_exits_three_without_writing(
    tiny, tmp_path, capsys
):
    """A field of 140000 characters exceeds the csv module's field limit;
    the error names the file instead of escaping ``main``."""
    scores = tmp_path / "scores.csv"
    scores.write_text("image_id,score_0\n" + "x" * 140000 + ",1.0\n")
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(
        ["evaluate", "--scores", str(scores), "--manifest", str(tiny / "data.manifest"),
         "--out", str(out)]
    ) == 3
    assert f"scores file {scores} is not valid CSV" in capsys.readouterr().err
    assert not out.exists()


def test_scores_csv_without_score_rows_exits_three_without_writing(tiny, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("image_id,score_0,score_1,score_2\n")
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(
        ["evaluate", "--scores", str(scores), "--manifest", str(tiny / "data.manifest"),
         "--out", str(out)]
    ) == 3
    assert f"scores file {scores} has no score rows" in capsys.readouterr().err
    assert not out.exists()


def _traced_peak(argv) -> tuple[int, int]:
    """Exit code of ``main(argv)`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_run_on_a_conv_view_with_a_lying_header_exits_three_before_sizing(
    tiny, tmp_path, capsys
):
    """A 76-byte view that declares 65535 x 65535 x 16 (256 GiB of float32)
    fails its header check before any stack is allocated from it."""
    lying = tmp_path / "lying.fvt"
    lying.write_bytes(_LYING_VIEW)
    manifest = load_manifest(tiny / "data.manifest")
    at = next(i for i, e in enumerate(manifest.entries) if e.role == "train")
    entries = list(manifest.entries)
    views = tuple(
        (s, l, lying if (s, l) == ("scene", "conv5_3") else p) for s, l, p in entries[at].views
    )
    entries[at] = replace(entries[at], views=views)
    path = tmp_path / "m.manifest"
    write_manifest(replace(manifest, entries=tuple(entries)), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pca]\ndim = 4\n\n[gmm]\ncomponents = 2\n")
    capsys.readouterr()
    code, peak = _traced_peak(
        ["run", "--config", str(cfg), "--manifest", str(path), "--out", str(tmp_path / "run")]
    )
    assert code == 3
    assert f"{lying}: payload is 56 bytes" in capsys.readouterr().err
    assert peak < 16 << 20


def test_train_svm_on_a_container_with_a_lying_header_exits_three_before_sizing(
    tiny, tmp_path, capsys
):
    """A 76-byte container that declares 65535 x 1 x 65535 rows (32 GiB as
    float64) fails its header check before the matrix is allocated."""
    container = tmp_path / "train.fvt"
    container.write_bytes(
        struct.pack("<4sBBBB3I", b"FVT1", 1, 1, 3, 0, 65535, 1, 65535) + bytes(56)
    )
    out = tmp_path / "svm"
    capsys.readouterr()
    code, peak = _traced_peak(
        ["train-svm", "--manifest", str(tiny / "data.manifest"),
         "--features", str(container), "--out", str(out)]
    )
    assert code == 3
    assert "payload is 56 bytes" in capsys.readouterr().err
    assert peak < 16 << 20
    assert not out.exists()


@pytest.mark.parametrize("reader", ["manifest", "config", "scores", "model-header"])
def test_text_that_is_not_utf8_exits_three_naming_the_file(tiny, tmp_path, capsys, reader):
    """One 0xff byte in a manifest, a config, a scores CSV or a model
    header is a data error naming the file, not a decoding traceback."""
    manifest = tiny / "data.manifest"
    if reader == "manifest":
        bad = tmp_path / "data.manifest"
        _svm_inputs(tiny, tmp_path)
        argv = ["train-svm", "--manifest", str(bad), "--features", str(tmp_path / "train.fvt"),
                "--out", str(tmp_path / "out")]
        text = manifest.read_bytes()
    elif reader == "config":
        bad = tmp_path / "run.cfg"
        argv = ["run", "--config", str(bad), "--manifest", str(manifest),
                "--out", str(tmp_path / "out")]
        text = b"[pca]\ndim = 4\n"
    elif reader == "scores":
        bad = tmp_path / "scores.csv"
        argv = ["evaluate", "--scores", str(bad), "--manifest", str(manifest),
                "--out", str(tmp_path / "out")]
        text = b"image_id,score_0\n"
    else:
        _svm_inputs(tiny, tmp_path)
        bad = tmp_path / "svm" / "svm.model"
        argv = ["predict", "--model", str(tmp_path / "svm"), "--in", str(tmp_path / "test.fvt"),
                "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        text = bad.read_bytes()
    bad.write_bytes(text[:8] + b"\xff" + text[8:])
    capsys.readouterr()
    assert main(argv) == 3
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["manifest", "model-header"])
def test_a_nul_in_a_named_path_exits_three_without_writing(tiny, tmp_path, capsys, reader):
    """A NUL in a manifest's first conv5_3 path or in the file a model
    header names is a data error naming the text file, not a ValueError
    from ``open``."""
    if reader == "manifest":
        bad = tmp_path / "data.manifest"
        text = (tiny / "data.manifest").read_text()
        at = text.index("conv5_3=") + len("conv5_3=")
        bad.write_text(text[:at] + "\x00" + text[at:])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[pca]\ndim = 4\n\n[gmm]\ncomponents = 2\n")
        argv = ["run", "--config", str(cfg), "--manifest", str(bad)]
    else:
        _svm_inputs(tiny, tmp_path)
        bad = tmp_path / "svm" / "svm.model"
        text = bad.read_text()
        assert "weights=weights.fvt" in text
        bad.write_text(text.replace("weights=weights.fvt", "weights=weig\x00hts.fvt"))
        argv = ["predict", "--model", str(tmp_path / "svm"), "--in", str(tmp_path / "test.fvt"),
                "--manifest", str(tiny / "data.manifest")]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert f"{bad}: NUL at character" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_model_header_naming_a_file_outside_its_directory_exits_three(tmp_path, capsys):
    """``mean=../../x`` is refused although ``x`` is a valid mean vector."""
    model_dir = tmp_path / "a" / "pca"
    save_pca(
        PcaModel(
            input_dim=3, output_dim=2, mean=np.zeros(3),
            basis=np.eye(3)[:2], eigenvalues=np.array([2.0, 1.0]),
        ),
        model_dir,
    )
    (model_dir / "mean.fvt").rename(tmp_path / "x")
    header = model_dir / "pca.model"
    header.write_text(header.read_text().replace("mean=mean.fvt", "mean=../../x"))
    infile = tmp_path / "in.fvt"
    write_tensor(FeatureMap(4, 1, 3, np.arange(12.0)), infile)
    out = tmp_path / "out.fvt"
    capsys.readouterr()
    code = main(["apply-pca", "--model", str(model_dir), "--in", str(infile), "--out", str(out)])
    assert code == 3
    assert "'mean' names '../../x', which contains '/'" in capsys.readouterr().err
    assert not out.exists()
