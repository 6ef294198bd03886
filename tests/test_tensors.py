"""Tensor container format, manifest grammar, and their failure modes."""

from __future__ import annotations

import dataclasses
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fvforge
from fvforge.errors import (
    CorruptionError,
    DataError,
    FormatError,
    FvForgeError,
    NumericError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from fvforge.classify import LinearModel, load_svm, save_svm, train_ovr
from fvforge.evaluation import EvalReport
from fvforge.fisher import FisherVector
from fvforge.gmm import GmmModel, fit_gmm, load_gmm, save_gmm
from fvforge.normalize import DescriptorSet
from fvforge.pca import PcaModel, fit_pca, load_pca, save_pca
from fvforge.tensors import (
    FINITE_CHECK_ROWS,
    ROLES,
    STREAMS,
    FeatureMap,
    GlobalVector,
    Manifest,
    ManifestEntry,
    ScoreVector,
    load_manifest,
    read_dims,
    read_matrix,
    read_rows,
    read_tensor,
    write_manifest,
    write_rows,
    write_tensor,
)


def test_feature_map_round_trip_is_bit_exact(rng, tmp_path):
    fmap = FeatureMap(4, 5, 3, rng.normal(size=(4, 5, 3)).astype(np.float32))
    write_tensor(fmap, tmp_path / "m.fvt")
    back = read_tensor(tmp_path / "m.fvt")
    assert isinstance(back, FeatureMap)
    assert back.data.tobytes() == fmap.data.tobytes()
    assert (back.height, back.width, back.channels) == (4, 5, 3)


# Each container, built from the array it checks first: a valid value of
# that array, and the error class a non-finite value in it raises.
CONTAINERS = {
    "FeatureMap": (lambda a: FeatureMap(3, 2, 4, a), np.ones((3, 2, 4)), DataError),
    "GlobalVector": (lambda a: GlobalVector(5, a), np.ones(5), DataError),
    "ScoreVector": (lambda a: ScoreVector(4, a), np.ones(4), DataError),
    "DescriptorSet": (lambda a: DescriptorSet(3, a), np.ones((6, 3)), DataError),
    "FisherVector": (lambda a: FisherVector(2, 3, a), np.ones(12), DataError),
    "PcaModel": (
        lambda a: PcaModel(3, 2, np.zeros(3), a, np.array([2.0, 1.0])),
        np.eye(2, 3),
        NumericError,
    ),
    "GmmModel": (
        lambda a: GmmModel(2, 3, np.array([0.5, 0.5]), a, np.ones((2, 3))),
        np.ones((2, 3)),
        NumericError,
    ),
    "LinearModel": (lambda a: LinearModel(2, 3, a, np.zeros(2)), np.ones((2, 3)), DataError),
    "EvalReport": (
        lambda a: EvalReport(a, 0.5, 0.5, np.array([1, 2, 3])),
        np.array([0.25, 0.5, 1.0]),
        DataError,
    ),
}


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_every_container_checks_shape_finiteness_and_freezes(name):
    """A non-finite value in the last row raises the container's error
    class, a wrong shape ShapeError, and every stored array is read-only
    while the caller's array stays writable."""
    make, good, error = CONTAINERS[name]
    bad = good.copy()
    bad.reshape(-1)[-1] = np.nan
    with pytest.raises(error, match="non-finite"):
        make(bad)
    with pytest.raises(ShapeError):
        make(np.ones(good.shape[:-1] + (good.shape[-1] + 1,)))
    container = make(good)
    stored = [
        value for value in (getattr(container, f.name) for f in dataclasses.fields(container))
        if isinstance(value, np.ndarray)
    ]
    assert stored and not any(arr.flags.writeable for arr in stored)
    assert good.flags.writeable


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: PcaModel(2, 1, np.array([0.0, np.nan]), np.eye(1, 2), np.ones(1)), NumericError),
        (lambda: PcaModel(2, 1, np.zeros(2), np.eye(1, 2), np.array([np.nan])), NumericError),
        (lambda: GmmModel(2, 1, np.array([np.nan, 0.5]), np.zeros((2, 1)), np.ones((2, 1))),
         NumericError),
        (lambda: EvalReport(np.array([0.5, np.nan]), 0.5, 0.5, np.array([2, 0]), (1,)), DataError),
    ],
    ids=["pca-mean", "pca-eigenvalue", "gmm-weight", "excluded-class-ap"],
)
def test_containers_refuse_non_finite_values_no_other_check_catches(make, error):
    with pytest.raises(error, match="non-finite"):
        make()


def test_read_tensor_of_a_tall_container_holds_little_beyond_its_payload(tmp_path):
    """The finiteness scan of a (16 blocks) x 1 x 32 container holds one
    block of booleans, not a boolean copy of the payload (0.25x)."""
    rows = np.ones((16 * FINITE_CHECK_ROWS, 1, 32), np.float32)
    write_tensor(FeatureMap(*rows.shape, rows), tmp_path / "tall.fvt")
    tracemalloc.start()
    try:
        read_tensor(tmp_path / "tall.fvt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * rows.nbytes


def test_global_vector_round_trip_keeps_flag(rng, tmp_path):
    vec = GlobalVector(6, np.abs(rng.normal(size=6)), nonnegative=True)
    write_tensor(vec, tmp_path / "v.fvt")
    back = read_tensor(tmp_path / "v.fvt")
    assert isinstance(back, GlobalVector)
    assert back.nonnegative
    assert back.data.tobytes() == vec.data.tobytes()


def test_containers_reject_bad_shapes_and_values():
    with pytest.raises(ShapeError):
        FeatureMap(2, 2, 2, np.zeros(7, dtype=np.float32))
    with pytest.raises(ParameterError):
        FeatureMap(0, 2, 2, np.zeros(0, dtype=np.float32))
    with pytest.raises(DataError):
        GlobalVector(2, np.array([1.0, np.nan]))
    with pytest.raises(DataError):
        GlobalVector(2, np.array([1.0, -1.0]), nonnegative=True)
    with pytest.raises(ShapeError):
        ScoreVector(3, np.zeros(2))


def test_container_data_is_read_only(rng):
    fmap = FeatureMap(2, 2, 2, rng.normal(size=(2, 2, 2)))
    with pytest.raises(ValueError):
        fmap.data[0, 0, 0] = 1.0


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.fvt"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_read_rejects_truncated_payload(rng, tmp_path):
    path = tmp_path / "t.fvt"
    write_tensor(GlobalVector(8, rng.normal(size=8)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(CorruptionError):
        read_tensor(path)


def test_read_rejects_trailing_garbage(rng, tmp_path):
    path = tmp_path / "t.fvt"
    write_tensor(GlobalVector(8, rng.normal(size=8)), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(CorruptionError):
        read_tensor(path)


def test_read_rejects_unknown_version_rank_dtype(tmp_path):
    def header(version=1, dtype=1, rank=1, flags=0, dims=(2,)):
        blob = struct.pack("<4sBBBB", b"FVT1", version, dtype, rank, flags)
        blob += struct.pack(f"<{len(dims)}I", *dims)
        blob += b"\x00" * (4 * int(np.prod(dims)))
        return blob

    cases = [
        header(version=9),
        header(dtype=2),
        header(rank=2, dims=(2, 2)),
        header(flags=0x80),
        header(dims=(0,)),
    ]
    for i, blob in enumerate(cases):
        path = tmp_path / f"bad{i}.fvt"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_tensor(path)


def test_read_dims_returns_the_dims_read_tensor_returns(rng, tmp_path):
    fmap, vec = tmp_path / "m.fvt", tmp_path / "v.fvt"
    write_tensor(FeatureMap(4, 5, 3, rng.normal(size=(4, 5, 3))), fmap)
    write_tensor(GlobalVector(7, rng.normal(size=7)), vec)
    back = read_tensor(fmap)
    assert read_dims(fmap) == (back.height, back.width, back.channels) == (4, 5, 3)
    assert read_dims(vec) == (read_tensor(vec).dim,) == (7,)


_FVT_HEAD = struct.pack("<4sBBBB", b"FVT1", 1, 1, 3, 0)


@pytest.mark.parametrize(
    "blob, error",
    [
        (b"NOPE" + bytes(16), FormatError),
        (b"FV", FormatError),
        (struct.pack("<4sBBBB", b"FVT1", 9, 1, 1, 0) + bytes(8), FormatError),
        (struct.pack("<4sBBBB", b"FVT1", 1, 1, 2, 0) + bytes(16), FormatError),
        (b"FVT1\x01\x01", CorruptionError),
        (_FVT_HEAD + struct.pack("<2I", 2, 2), CorruptionError),
    ],
    ids=["magic", "short-magic", "version", "rank", "header", "dimension-list"],
)
def test_read_dims_raises_what_read_tensor_raises(tmp_path, blob, error):
    path = tmp_path / "bad.fvt"
    path.write_bytes(blob)
    with pytest.raises(error) as from_tensor:
        read_tensor(path)
    with pytest.raises(error) as from_dims:
        read_dims(path)
    assert str(from_dims.value) == str(from_tensor.value)


def test_read_rejects_nonfinite_payload(tmp_path):
    blob = struct.pack("<4sBBBB", b"FVT1", 1, 1, 1, 0) + struct.pack("<I", 2)
    blob += np.array([1.0, np.inf], dtype="<f4").tobytes()
    path = tmp_path / "inf.fvt"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read_tensor(path)


def test_read_rejects_flag_violation(tmp_path):
    blob = struct.pack("<4sBBBB", b"FVT1", 1, 1, 1, 1) + struct.pack("<I", 2)
    blob += np.array([1.0, -1.0], dtype="<f4").tobytes()
    path = tmp_path / "neg.fvt"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read_tensor(path)


def _row_container(path, rows, flags=0):
    """A row container of ``rows`` written byte by byte, ``flags`` set."""
    rows = np.asarray(rows, dtype="<f4")
    path.write_bytes(
        struct.pack("<4sBBBB3I", b"FVT1", 1, 1, 3, flags, len(rows), 1, rows.shape[1])
        + rows.tobytes()
    )


@pytest.mark.parametrize("dim", [3, 1])
def test_read_rows_yields_what_write_rows_wrote(rng, tmp_path, dim):
    rows = rng.normal(size=(5, dim)).astype(np.float32)
    write_rows(tmp_path / "r.fvt", 5, rows)
    assert np.array_equal([row.copy() for row in read_rows(tmp_path / "r.fvt", 5)], rows)
    matrix = read_matrix(tmp_path / "r.fvt", 5)
    assert matrix.shape == (5, dim)
    assert np.array_equal(matrix, rows)


@pytest.mark.parametrize(
    "rows, flags, match",
    [
        ([[1.0, 2.0], [np.nan, 0.0]], 0, "row 1 is not finite"),
        ([[1.0, 2.0], [0.0, -1.0]], 1, "row 1 is negative under the nonnegative flag"),
    ],
    ids=["nan", "negative-under-flag"],
)
def test_row_readers_check_each_row(tmp_path, rows, flags, match):
    path = tmp_path / "r.fvt"
    _row_container(path, rows, flags)
    with pytest.raises(DataError, match=match):
        list(read_rows(path, 2))
    with pytest.raises(DataError, match=match):
        read_matrix(path)


def test_row_readers_accept_nonnegative_rows_under_the_flag(tmp_path):
    _row_container(tmp_path / "r.fvt", [[0.0, 2.0]], flags=1)
    assert read_matrix(tmp_path / "r.fvt", 1).tolist() == [[0.0, 2.0]]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(1, 20)),
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 8)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(tmp_path_factory, dims, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=dims).astype(np.float32)
    tensor = (
        GlobalVector(dims[0], data)
        if len(dims) == 1
        else FeatureMap(dims[0], dims[1], dims[2], data)
    )
    path = tmp_path_factory.mktemp("rt") / "x.fvt"
    write_tensor(tensor, path)
    assert read_tensor(path).data.tobytes() == data.tobytes()


# ---------------------------------------------------- model directories


def _fit_model(kind, rng):
    x = rng.normal(size=(60, 4))
    if kind == "pca":
        return fit_pca(DescriptorSet(4, x), 3)
    if kind == "gmm":
        return fit_gmm(DescriptorSet(4, x), 2, seed=3)
    # Class 2 has no training images, so it is stored as degenerate.
    return train_ovr(x, np.arange(60) % 2, 3, C=0.5, class_names=("a", "b", "c"))


MODEL_FORMATS = {
    "pca": (save_pca, load_pca, "pca.model",
            "mean=mean.fvt\nbasis=basis.fvt\neigenvalues=eigenvalues.fvt\n",
            {"mean.fvt": (4,), "basis.fvt": (3, 1, 4), "eigenvalues.fvt": (3,)}),
    "gmm": (save_gmm, load_gmm, "gmm.model",
            "weights=weights.fvt\nmeans=means.fvt\nvariances=variances.fvt\n",
            {"weights.fvt": (2,), "means.fvt": (2, 1, 4), "variances.fvt": (2, 1, 4)}),
    "svm": (save_svm, load_svm, "svm.model",
            "weights=weights.fvt\nbiases=biases.fvt\nclass_count=3\nfeature_dim=4\n"
            "c=0.5\nclass_names=a,b,c\ndegenerate=2\n",
            {"weights.fvt": (3, 1, 4), "biases.fvt": (3,)}),
}


@pytest.mark.parametrize("kind", sorted(MODEL_FORMATS))
def test_model_directory_bytes_are_pinned(rng, tmp_path, kind):
    """save -> load -> save is byte-identical, and the header text, key
    order included, and the tensor shapes are fixed."""
    save, load, header_name, header_text, shapes = MODEL_FORMATS[kind]
    save(_fit_model(kind, rng), tmp_path / "first")
    save(load(tmp_path / "first"), tmp_path / "second")
    first, second = (
        {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
        for d in ("first", "second")
    )
    assert first == second
    assert sorted(first) == sorted([header_name, *shapes])
    assert first[header_name].decode("utf-8") == header_text
    for name, shape in shapes.items():
        tensor = read_tensor(tmp_path / "first" / name)
        assert tensor.data.shape == shape


# ------------------------------------------------------------ manifest


def _write_tensors(tmp_path, rng, names):
    for name in names:
        write_tensor(GlobalVector(3, rng.normal(size=3)), tmp_path / name)


def test_manifest_round_trip(tmp_path, rng):
    _write_tensors(tmp_path, rng, ["a_o.fvt", "a_s.fvt", "b_o.fvt", "b_s.fvt"])
    text = (
        "classes: cat,dog\n"
        "img_a\t0\tobject:fc7=a_o.fvt,scene:fc7=a_s.fvt\ttrain\n"
        "img_b\t1\tobject:fc7=b_o.fvt,scene:fc7=b_s.fvt\ttest\n"
    )
    src = tmp_path / "data.manifest"
    src.write_text(text)
    manifest = load_manifest(src)
    assert manifest.class_names == ("cat", "dog")
    assert len(manifest.split("train")) == 1
    assert len(manifest.split("test")) == 1
    assert manifest.entries[0].paths_for("object", "fc7") == (tmp_path / "a_o.fvt",)

    out = tmp_path / "copy.manifest"
    write_manifest(manifest, out)
    again = load_manifest(out)
    assert again.class_names == manifest.class_names
    assert [e.image_id for e in again.entries] == ["img_a", "img_b"]
    assert again.entries[1].role == "test"


# Half the draws use only characters every field can carry, so that
# many manifests construct; the rest may hold any character the format
# splits or strips on.
_TEXT = st.text(alphabet="ab.:= ", min_size=1, max_size=3) | st.text(
    alphabet='ab ,/:="\t\n\r\x00\x85\u2028.', max_size=3
)
_ROWS = st.lists(
    st.tuples(
        _TEXT,
        st.none() | st.integers(-1, 3),
        st.sampled_from(ROLES),
        st.lists(st.tuples(st.sampled_from(STREAMS), _TEXT, _TEXT), min_size=1, max_size=2),
    ),
    max_size=3,
    unique_by=lambda row: row[0],
)


@settings(max_examples=300, deadline=None)
@given(class_names=st.lists(_TEXT, min_size=1, max_size=3, unique=True), rows=_ROWS)
@example(class_names=["a,b", "c"], rows=[("x", 1, "train", [("object", "fc7", "x.fvt")])])
def test_every_manifest_that_constructs_reads_back_as_written(tmp_path_factory, class_names, rows):
    """A Manifest holds only class names, ids, labels and roles that the
    manifest text carries; a view it cannot carry is refused before
    anything is written.  Everything else reloads as it was."""
    base = tmp_path_factory.mktemp("manifest")
    try:
        manifest = Manifest(
            tuple(class_names),
            tuple(
                ManifestEntry(i, label, tuple((s, l, base / "v" / p) for s, l, p in views), role)
                for i, label, role, views in rows
            ),
        )
    except ValidationError:
        return
    path = base / "data.manifest"
    try:
        write_manifest(manifest, path)
    except ValidationError as exc:
        assert "would not read back" in str(exc)
        assert not path.exists()
        return
    back = load_manifest(path)

    def described(m):
        return [
            (e.image_id, e.label, e.role, [(s, l, os.path.normpath(p)) for s, l, p in e.views])
            for e in m.entries
        ]

    assert back.class_names == manifest.class_names
    assert described(back) == described(manifest)


@pytest.mark.parametrize(
    "stream, layer, name",
    [
        ("object", "fc7", "a,b/x.fvt"),
        ("object", "fc7", "a\tb.fvt"),
        ("object", "fc7", "a\nb.fvt"),
        ("object", "fc7", "x.fvt "),
        ("object", "fc=7", "x.fvt"),
        ("object", "fc,7", "x.fvt"),
        ("object:", "fc7", "x.fvt"),
    ],
    ids=["comma-dir", "tab", "newline", "trailing-space", "equals-layer", "comma-layer",
         "colon-stream"],
)
def test_write_manifest_refuses_a_view_it_cannot_read_back(tmp_path, stream, layer, name):
    """A view whose path, stream or layer the format cannot carry raises
    before anything is written, instead of a manifest that load_manifest
    rejects or reads as other views."""
    entry = ManifestEntry("img_a", 0, ((stream, layer, tmp_path / name),))
    out = tmp_path / "data.manifest"
    with pytest.raises(ValidationError, match="img_a"):
        write_manifest(Manifest(("cat",), (entry,)), out)
    assert list(tmp_path.iterdir()) == []


def test_manifest_role_defaults_to_train(tmp_path):
    src = tmp_path / "m.manifest"
    src.write_text("classes: a,b\nx\t0\tobject:fc7=x.fvt\n")
    manifest = load_manifest(src)
    assert manifest.entries[0].role == "train"


def test_manifest_unlabeled_entry(tmp_path):
    src = tmp_path / "m.manifest"
    src.write_text("classes: a,b\nx\t-1\tobject:fc7=x.fvt\n")
    assert load_manifest(src).entries[0].label is None


@pytest.mark.parametrize(
    "body",
    [
        "x\t0\tobject:fc7=x.fvt\nx\t1\tobject:fc7=y.fvt\n",  # duplicate id
        "x\t5\tobject:fc7=x.fvt\n",  # label out of range
        "x\t0\tbody:fc7=x.fvt\n",  # unknown stream
        "x\t0\tobject:fc7=x.fvt\tvalidation\n",  # unknown role
        "x\t0\tobjectfc7=x.fvt\n",  # malformed view key
        "x\t0\n",  # missing views
        "\t0\tobject:fc7=x.fvt\n",  # empty id
    ],
)
def test_manifest_rejects_malformed_lines(tmp_path, body):
    src = tmp_path / "m.manifest"
    src.write_text("classes: a,b\n" + body)
    with pytest.raises(ValidationError):
        load_manifest(src)


@pytest.mark.parametrize(
    "classes, match",
    [
        ("a,,b", "class 1 has an empty name"),
        ("a,b,", "class 2 has an empty name"),
        ("a,a", "class name 'a' is repeated"),
        (" a , b , a", "class name 'a' is repeated"),
    ],
)
def test_manifest_rejects_empty_and_repeated_class_names(tmp_path, classes, match):
    """Labels index the class line, so a skipped empty name would shift
    every later label and a repeated one would split a class in two."""
    src = tmp_path / "m.manifest"
    src.write_text(f"classes: {classes}\nx\t0\tobject:fc7=x.fvt\n")
    with pytest.raises(ValidationError, match=f"line 1: {match}"):
        load_manifest(src)


def test_manifest_requires_class_line(tmp_path):
    src = tmp_path / "m.manifest"
    src.write_text("x\t0\tobject:fc7=x.fvt\n")
    with pytest.raises(ValidationError):
        load_manifest(src)


# ------------------------------------------------------------- fuzzing


def test_fuzzed_tensor_files_raise_typed_errors_only(rng, tmp_path):
    """Random mutations of a valid file must fail loudly but typed."""
    path = tmp_path / "v.fvt"
    write_tensor(GlobalVector(16, rng.normal(size=16)), path)
    pristine = bytearray(path.read_bytes())
    for trial in range(300):
        blob = bytearray(pristine)
        for _ in range(rng.integers(1, 6)):
            blob[rng.integers(0, len(blob))] = rng.integers(0, 256)
        if rng.integers(0, 4) == 0:
            blob = blob[: rng.integers(0, len(blob))]
        target = tmp_path / "fuzz.fvt"
        target.write_bytes(bytes(blob))
        try:
            read_tensor(target)
        except FvForgeError:
            pass  # typed failure is the contract


_MODES = """
import os, stat, sys
from pathlib import Path
import numpy as np
from fvforge.tensors import FeatureMap, atomic_write_text, write_rows, write_tensor

out = Path(sys.argv[1])
os.umask(int(sys.argv[2], 8))
write_tensor(FeatureMap(1, 1, 2, np.ones(2)), out / "map.fvt")
write_rows(out / "rows.fvt", 2, np.ones((2, 3)))
atomic_write_text(out / "report.csv", "class,positives,ap\\n")
print(" ".join(f"{p.name}={stat.S_IMODE(p.stat().st_mode):o}" for p in sorted(out.iterdir())))
"""


@pytest.mark.parametrize("umask, mode", [("022", "644"), ("077", "600")])
def test_written_files_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    """A tensor, a row container and a text file are created as any new
    file is under the process umask, and no temporary is left beside
    them.  The umask is process-wide, so a child process sets it."""
    src = str(Path(fvforge.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _MODES, str(tmp_path), umask],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.split() == [f"{n}={mode}" for n in ("map.fvt", "report.csv", "rows.fvt")]
