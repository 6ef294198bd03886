"""Seeded mutation gate over every input kind the CLI reads.

Each case takes one valid input of a tiny corpus, mutates it with numpy's
seeded generator (byte flips, a truncation, or, in a tensor file, a lie
in its dims) and runs the subcommand that reads it in-process.  The
subcommand must return 0, 2, 3 or 4, nothing may escape ``main``, and a
failing run must leave nothing beside its inputs: no output and no
temporary file.
"""

from __future__ import annotations

import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fvforge.cli import main
from fvforge.tensors import load_manifest

CASES = 30
EXITS = (0, 2, 3, 4)
BINARY = ("conv-view", "fc-vector", "descriptors", "features", "model-array")
TEXT = ("model-header", "manifest", "config", "scores")

_CONFIG = "[pipeline]\nscenario = global_pretrained\n\n[svm]\nmax_epochs = 50\n"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """A two-class corpus with one file of every kind, written by the CLI:
    views, a descriptor container and its projection, feature containers,
    a scores CSV, and PCA, GMM and SVM model directories."""
    root = tmp_path_factory.mktemp("mutations")
    data = root / "data"
    assert main(
        ["synth", "--out", str(data), "--classes", "2", "--images-per-class", "3",
         "--views", "1", "--fc-dim", "4", "--map-size", "3", "--map-channels", "4",
         "--seed", "5"]
    ) == 0
    (root / "run.cfg").write_text(_CONFIG)
    manifest = data / "data.manifest"
    assert main(
        ["run", "--config", str(root / "run.cfg"), "--manifest", str(manifest),
         "--out", str(root / "run")]
    ) == 0
    entry = load_manifest(manifest).entries[0]
    for layer, name in (("conv5_3", "conv.fvt"), ("fc7", "fc.fvt")):
        shutil.copy(entry.paths_for("object", layer)[0], root / name)
    shutil.copy(entry.paths_for("scene", "fc7")[0], root / "fc_scene.fvt")
    desc, proj = str(root / "desc.fvt"), str(root / "proj.fvt")
    assert main(["tdd", "--in", str(root / "conv.fvt"), "--mode", "channel", "--out", desc]) == 0
    assert main(["fit-pca", "--dim", "2", "--out", str(root / "pca"), desc]) == 0
    assert main(["apply-pca", "--model", str(root / "pca"), "--in", desc, "--out", proj]) == 0
    assert main(["fit-gmm", "--components", "2", "--out", str(root / "gmm"), proj]) == 0
    return root


def _model_argv(corpus: Path, model: str, model_dir: Path, out: Path) -> list[str]:
    """The subcommand that loads ``model_dir``, a copy of one of the
    corpus's models."""
    manifest = str(corpus / "data" / "data.manifest")
    return {
        "pca": ["apply-pca", "--model", str(model_dir), "--in", str(corpus / "desc.fvt")],
        "gmm": ["encode-fv", "--gmm", str(model_dir), str(corpus / "proj.fvt")],
        "svm": ["predict", "--model", str(model_dir), "--manifest", manifest,
                "--in", str(corpus / "run" / "features" / "test.fvt")],
    }[model] + ["--out", str(out)]


def _case(corpus: Path, kind: str, case_dir: Path, rng) -> tuple[Path, Path, list[str]]:
    """The original file of ``kind`` to mutate, the path of its mutated
    copy under ``case_dir``, and the argv that reads that copy."""
    manifest = str(corpus / "data" / "data.manifest")
    out = case_dir / "out"
    if kind in ("model-array", "model-header"):
        model = ("pca", "gmm", "svm")[rng.integers(3)]
        source = corpus / "run" / "models" / "svm" if model == "svm" else corpus / model
        model_dir = case_dir / model
        shutil.copytree(source, model_dir)
        names = sorted(p.name for p in model_dir.iterdir())
        names = [n for n in names if n.endswith(".fvt") == (kind == "model-array")]
        name = names[rng.integers(len(names))]
        return source / name, model_dir / name, _model_argv(corpus, model, model_dir, out)
    source, argv = {
        "conv-view": ("conv.fvt", ["tdd", "--mode", "channel", "--in", "{}"]),
        "fc-vector": ("fc.fvt", ["fuse", "--mode", "features", "{}", str(corpus / "fc_scene.fvt")]),
        "descriptors": ("desc.fvt", ["apply-pca", "--model", str(corpus / "pca"), "--in", "{}"]),
        "features": ("run/features/test.fvt",
                     ["predict", "--model", str(corpus / "run" / "models" / "svm"),
                      "--manifest", manifest, "--in", "{}"]),
        "manifest": ("data/data.manifest",
                     ["train-svm", "--features", str(corpus / "run" / "features" / "train.fvt"),
                      "--manifest", "{}"]),
        "config": ("run.cfg", ["run", "--manifest", manifest, "--config", "{}"]),
        "scores": ("run/scores.csv", ["evaluate", "--manifest", manifest, "--scores", "{}"]),
    }[kind]
    original = corpus / source
    mutated = case_dir / original.name
    return original, mutated, [mutated if a == "{}" else a for a in argv] + ["--out", str(out)]


def _mutate(blob: bytes, rng, binary: bool) -> tuple[bytes, str]:
    """One seeded mutation of ``blob`` and a description of it.  A text
    file's bytes flip to ASCII, tab to tilde, so the parser behind the
    UTF-8 check sees them."""
    how = ("flip", "truncate", "dims")[rng.integers(3 if binary else 2)]
    data = bytearray(blob)
    if how == "flip":
        at = rng.choice(len(data), size=min(len(data), rng.integers(1, 4)), replace=False)
        for i in sorted(at.tolist()):
            data[i] = data[i] ^ int(rng.integers(1, 256)) if binary else int(rng.integers(9, 127))
        return bytes(data), f"flip bytes {sorted(at.tolist())}"
    if how == "truncate":
        size = int(rng.integers(len(data)))
        return bytes(data[:size]), f"truncate to {size} bytes"
    rank = data[6]
    k = int(rng.integers(rank))
    true = struct.unpack_from("<I", data, 8 + 4 * k)[0]
    value = int(rng.choice([0, 1, true - 1, true + 1, 2 * true, 65535, 2**32 - 1]))
    struct.pack_into("<I", data, 8 + 4 * k, value % 2**32)
    return bytes(data), f"dim {k} {true} -> {value % 2**32}"


@pytest.mark.parametrize("kind", BINARY + TEXT)
def test_mutated_inputs_exit_with_a_documented_code_and_leave_no_output(
    corpus, tmp_path, capsys, kind
):
    seed = (BINARY + TEXT).index(kind)
    for i in range(CASES):
        rng = np.random.default_rng([seed, i])
        case_dir = tmp_path / f"case{i}"
        case_dir.mkdir()
        original, mutated, argv = _case(corpus, kind, case_dir, rng)
        blob, how = _mutate(original.read_bytes(), rng, kind in BINARY)
        mutated.write_bytes(blob)
        before = sorted(case_dir.rglob("*"))
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code in EXITS, f"case {i} ({how}): exit {code}\n{err}"
        if code != 0:
            assert sorted(case_dir.rglob("*")) == before, f"case {i} ({how}) left output"


def _lying_header(blob: bytes) -> bytes:
    """``blob``'s header declaring 2^32 - 1 in every dim, over its payload."""
    rank = blob[6]
    return blob[:8] + struct.pack(f"<{rank}I", *[2**32 - 1] * rank) + blob[8 + 4 * rank:]


@pytest.mark.parametrize("kind", BINARY)
def test_a_header_declaring_a_huge_payload_is_refused_before_sizing(
    corpus, tmp_path, capsys, kind
):
    """The lie declares at least 16 GiB of float32; the reader allocates
    nothing from it."""
    rng = np.random.default_rng(0)
    original, mutated, argv = _case(corpus, kind, tmp_path, rng)
    mutated.write_bytes(_lying_header(original.read_bytes()))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main([str(a) for a in argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "payload is" in capsys.readouterr().err
    assert peak < 16 << 20
    assert not (tmp_path / "out").exists()
