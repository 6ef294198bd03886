"""Dense activation containers, the binary tensor file format, model
directories and manifests.

The on-disk tensor format is a little-endian container:

    bytes 0-3   magic "FVT1"
    byte  4     version (1)
    byte  5     dtype (1 = float32)
    byte  6     rank, 1 or 3
    byte  7     flags (bit 0: values declared nonnegative)
    next        rank x uint32 dims
    rest        row-major float32 payload, (height, width, channels) for rank 3

The header is checked against the file's length before anything is sized
from it.  A row container, (rows, 1, dim) at rank 3, holds one vector per
row; ``write_rows`` writes it, and ``read_rows`` or ``read_matrix`` reads it.

A fitted model (PCA, GMM, SVM bank) is a directory written by
``save_model`` and read by ``load_model``: one ``<name>.fvt`` per array,
vectors at rank 1 and (rows, cols) matrices as row containers, plus a
UTF-8 header of ``key=value`` lines (``#`` lines are comments) that maps
each array name to its file, followed by any scalar fields.

Manifests are line-oriented UTF-8 text:

    classes: name0,name1,...
    image_id<TAB>label_or_-1<TAB>stream:layer=path[,stream:layer=path...][<TAB>role]

where stream is "object" or "scene" and the optional role field is "train"
(default) or "test".  Paths resolve relative to the manifest file.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptionError,
    DataError,
    FormatError,
    ParameterError,
    ShapeError,
    ValidationError,
)

MAGIC = b"FVT1"
VERSION = 1
DTYPE_FLOAT32 = 1
FLAG_NONNEGATIVE = 0x01
_HEADER = struct.Struct("<4sBBBB")

STREAMS = ("object", "scene")
ROLES = ("train", "test")


# Rows per finiteness scan block, so a check holds one small boolean block
# and never a boolean twin of the whole array.  A row is one vector along
# the last axis (a 1-d array is one row); a row wider than
# FINITE_CHECK_ROWS values is scanned in pieces of that many, so a block
# never holds more than FINITE_CHECK_ROWS**2 booleans (16 MiB), even for
# the wide feature matrices of a paper-size run.
FINITE_CHECK_ROWS = 4096


def _checked(dtype, *arrays, error: type = DataError, flat: bool = False,
             nonnegative: bool = False) -> list[np.ndarray]:
    """Each ``(what, data, shape)`` of ``arrays`` as a read-only
    C-contiguous ``dtype`` array; ``None`` in ``shape`` matches any length.
    With ``flat``, data of any layout is raveled, then reshaped to a fully
    given shape of its size.  The caller's own arrays keep their flags.

    Every shape is checked first (ShapeError), then every array is scanned
    ``FINITE_CHECK_ROWS`` rows at a time for a non-finite value (``error``)
    and, with ``nonnegative``, a negative one (DataError once the scans
    end), so no scan holds more than one small boolean block.
    """
    checked = []
    for what, data, shape in arrays:
        arr = np.ascontiguousarray(data, dtype=dtype)
        if flat:
            arr = arr.reshape(-1)
            if None not in shape and arr.size == math.prod(shape):
                arr = arr.reshape(shape)
        if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
            raise ShapeError(f"{what} has shape {arr.shape}, expected {shape}")
        checked.append((what, arr))
    negative = None
    for what, arr in checked:
        values = arr.reshape(-1)
        step = FINITE_CHECK_ROWS * max(min(arr.shape[-1], FINITE_CHECK_ROWS), 1)
        for start in range(0, values.size, step):
            block = values[start:start + step]
            finite = np.isfinite(block)
            if not finite.all():
                at = np.unravel_index(start + int(finite.argmin()), arr.shape)
                raise error(f"{what} is not finite: non-finite value at {tuple(map(int, at))}")
            if nonnegative and negative is None and block.min() < 0.0:
                negative = what
    if negative is not None:
        raise DataError(f"{negative} is negative under the nonnegative flag")
    views = [arr.view() for _, arr in checked]
    for view in views:
        view.flags.writeable = False
    return views


@dataclass(frozen=True)
class FeatureMap:
    """Rank-3 activation tensor of one conv layer for one image view.

    ``data`` is stored as a read-only float32 array of shape
    (height, width, channels), matching the file payload order.
    """

    height: int
    width: int
    channels: int
    data: np.ndarray
    nonnegative: bool = False

    def __post_init__(self):
        for name in ("height", "width", "channels"):
            if getattr(self, name) < 1:
                raise ParameterError(f"FeatureMap {name} must be positive")
        (data,) = _checked(
            np.float32, ("FeatureMap", self.data, (self.height, self.width, self.channels)),
            flat=True, nonnegative=self.nonnegative,
        )
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class GlobalVector:
    """Rank-1 activation vector, typically from a fully connected layer."""

    dim: int
    data: np.ndarray
    nonnegative: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("GlobalVector dim must be positive")
        (data,) = _checked(
            np.float32, ("GlobalVector", self.data, (self.dim,)),
            flat=True, nonnegative=self.nonnegative,
        )
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class ScoreVector:
    """Per-class recognition scores for one image."""

    class_count: int
    scores: np.ndarray

    def __post_init__(self):
        if self.class_count < 1:
            raise ParameterError("class_count must be positive")
        (scores,) = _checked(
            np.float64, ("ScoreVector", self.scores, (self.class_count,)), flat=True
        )
        object.__setattr__(self, "scores", scores)


@contextmanager
def _atomic_file(path: str | Path):
    """A binary file to write that appears under ``path`` by one rename
    when the block ends, and is removed if the block raises, so ``path``
    is never left half-written.  The temporary beside it is created
    exclusively, never through a symlink, with the mode the process
    umask gives a new file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; any other bytes, or a NUL, raise
    ValidationError naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    at = text.find("\x00")  # no field may hold one: open() refuses such a path
    if at >= 0:
        raise ValidationError(f"{path}: NUL at character {at}")
    return text


def _read_header(path: Path) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}: malformed header line '{line}'")
        fields[key.strip()] = value.strip()
    return fields


def _header_bytes(dims: tuple[int, ...], flags: int) -> bytes:
    head = _HEADER.pack(MAGIC, VERSION, DTYPE_FLOAT32, len(dims), flags)
    return head + struct.pack(f"<{len(dims)}I", *dims)


def write_tensor(tensor: FeatureMap | GlobalVector, path: str | Path) -> None:
    """Serialize a tensor to ``path`` in the FVT1 container format."""
    if isinstance(tensor, FeatureMap):
        dims = (tensor.height, tensor.width, tensor.channels)
    elif isinstance(tensor, GlobalVector):
        dims = (tensor.dim,)
    else:
        raise ParameterError(f"cannot serialize {type(tensor).__name__}")
    flags = FLAG_NONNEGATIVE if tensor.nonnegative else 0
    with _atomic_file(path) as fh:
        fh.write(_header_bytes(dims, flags))
        fh.write(np.ascontiguousarray(tensor.data, dtype="<f4"))


def write_rows(path: str | Path, count: int, rows) -> None:
    """Serialize ``count`` vectors of one dim, taken in order from the
    iterable ``rows``, as the (count, 1, dim) container at ``path``.

    The header is written once the first row gives the dim, then each
    row as it arrives, checked as a ``GlobalVector``, so one row is held
    at a time.  The file appears under ``path`` by one rename after the
    last row; any error leaves nothing there.
    """
    if count < 1:
        raise ParameterError("a row container needs at least one row")
    with _atomic_file(path) as fh:
        written = 0
        for row in rows:
            vec = GlobalVector(np.size(row), row)
            if not written:
                dim = vec.dim
                fh.write(_header_bytes((count, 1, dim), 0))
            elif vec.dim != dim:
                raise ShapeError(f"{path}: row {written} has dim {vec.dim}, expected {dim}")
            fh.write(np.ascontiguousarray(vec.data, dtype="<f4"))
            written += 1
        if written != count:
            raise ShapeError(f"{path}: {written} rows for a container of {count}")


@contextmanager
def open_tensor(path: str | Path):
    """Open an FVT1 file and check its header; yields the file, left at
    the payload, with the dims and flags the header declares.

    The payload size the dims imply must be the file's remaining length,
    so nothing is ever sized from a header that lies about it: a
    malformed header raises FormatError, a truncated one or a size
    mismatch CorruptionError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < 4 or head[:4] != MAGIC:
            raise FormatError(f"{path}: not an FVT1 tensor file")
        if len(head) < _HEADER.size:
            raise CorruptionError(f"{path}: truncated header")
        _, version, dtype, rank, flags = _HEADER.unpack(head)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dtype != DTYPE_FLOAT32:
            raise FormatError(f"{path}: unsupported dtype code {dtype}")
        if rank not in (1, 3):
            raise FormatError(f"{path}: unsupported rank {rank}")
        if flags & ~FLAG_NONNEGATIVE:
            raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")
        raw = fh.read(4 * rank)
        if len(raw) < 4 * rank:
            raise CorruptionError(f"{path}: truncated dimension list")
        dims = struct.unpack(f"<{rank}I", raw)
        if any(d == 0 for d in dims):
            raise FormatError(f"{path}: zero dimension in {dims}")
        nbytes = 4 * math.prod(dims)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != nbytes:
            raise CorruptionError(
                f"{path}: payload is {size} bytes, shape {dims} requires {nbytes}"
            )
        yield fh, dims, flags


@contextmanager
def _open_rows(path: str | Path, count: int | None):
    """Open a row container whose header is rank 3 at width 1 and declares
    ``count`` rows, when given; yields the row count, the dim and an
    iterator that reads each row into one reused float32 buffer and yields
    a read-only view of it, checked finite, and nonnegative when the header
    sets the flag."""
    with open_tensor(path) as (fh, dims, flags):
        if len(dims) != 3 or dims[1] != 1:
            raise ValidationError(f"{path}: {dims} is not a rows x 1 x dim container")
        if count is not None and dims[0] != count:
            raise ValidationError(f"{path}: {dims[0]} rows, expected {count}")

        def rows():
            row = np.empty(dims[2], dtype="<f4")
            for i in range(dims[0]):
                if fh.readinto(row) != row.nbytes:
                    raise CorruptionError(f"{path}: changed while it was read")
                yield _checked(
                    "<f4", (f"{path}: row {i}", row, (dims[2],)),
                    nonnegative=bool(flags & FLAG_NONNEGATIVE),
                )[0]

        yield dims[0], dims[2], rows()


def read_rows(path: str | Path, count: int):
    """The ``count`` float32 rows of the row container at ``path``, in file
    order, each yielded in one reused buffer, so one row is held at a time."""
    with _open_rows(path, count) as (_, _, rows):
        yield from rows


def read_matrix(path: str | Path, count: int | None = None) -> np.ndarray:
    """The rows of the row container at ``path`` as one float64 matrix,
    allocated from the checked header; each row is cast into it as it is
    read, so the matrix is the only copy held."""
    with _open_rows(path, count) as (height, dim, rows):
        return np.fromiter(rows, np.dtype((np.float64, (dim,))), height)


def read_dims(path: str | Path) -> tuple[int, ...]:
    """The dims an FVT1 file's header declares, (height, width, channels)
    or (dim,), read without its payload; a malformed header, or one that
    disagrees with the file's length, raises what ``read_tensor`` raises
    for it."""
    with open_tensor(path) as (_, dims, _):
        return dims


def read_tensor(path: str | Path) -> FeatureMap | GlobalVector:
    """Parse an FVT1 file into a FeatureMap (rank 3) or GlobalVector (rank 1).

    Any malformed byte stream raises a typed error: FormatError for a bad
    magic/version/dtype/rank, CorruptionError when the declared shape and
    the payload size disagree, DataError for non-finite values or a
    violated nonnegativity flag.  The payload is read straight into the
    returned array.
    """
    with open_tensor(path) as (fh, dims, flags):
        data = np.empty(math.prod(dims), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise CorruptionError(f"{path}: changed while it was read")
    nonneg = bool(flags & FLAG_NONNEGATIVE)
    try:
        if len(dims) == 1:
            return GlobalVector(dim=dims[0], data=data, nonnegative=nonneg)
        return FeatureMap(
            height=dims[0], width=dims[1], channels=dims[2],
            data=data, nonnegative=nonneg,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_as(path: str | Path, expect: type):
    """Read a tensor file that must hold an ``expect`` container."""
    tensor = read_tensor(path)
    if not isinstance(tensor, expect):
        raise ValidationError(f"{path}: expected a {expect.__name__} tensor")
    return tensor


def save_model(
    model_dir: str | Path,
    header_name: str,
    arrays: dict[str, np.ndarray],
    fields: dict[str, str] | None = None,
) -> None:
    """Write each array to ``<name>.fvt``, then a header naming them.

    1-D arrays are stored at rank 1, 2-D (rows, cols) arrays as row
    containers.  The header lists the arrays first, then ``fields``.
    """
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    header = {}
    for name, arr in arrays.items():
        path = model_dir / f"{name}.fvt"
        if arr.ndim == 1:
            write_tensor(GlobalVector(arr.size, arr), path)
        else:
            write_rows(path, len(arr), arr)
        header[name] = f"{name}.fvt"
    header.update(fields or {})
    atomic_write_text(
        model_dir / header_name, "".join(f"{k}={v}\n" for k, v in header.items())
    )


def load_model(
    model_dir: str | Path, header_name: str, ranks: dict[str, int]
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Inverse of ``save_model``: float64 arrays by name, and the header.

    ``ranks`` gives each array's dimensionality (1 or 2) in read order; a
    missing header key, a file name with a ``/`` (which could name a file
    outside the directory), a tensor of the wrong rank or a matrix stored
    at width other than 1 raises ValidationError.
    """
    model_dir = Path(model_dir)
    header = _read_header(model_dir / header_name)
    arrays = {}
    for name, rank in ranks.items():
        if name not in header:
            raise ValidationError(f"{model_dir / header_name}: missing '{name}'")
        if "/" in header[name]:
            raise ValidationError(
                f"{model_dir / header_name}: '{name}' names '{header[name]}', "
                "which contains '/'"
            )
        path = model_dir / header[name]
        if rank == 1:
            arrays[name] = read_as(path, GlobalVector).data.astype(np.float64)
        else:
            arrays[name] = read_matrix(path)
    return arrays, header


def check_class_names(names, count: int) -> None:
    """Labels index the class names, which a manifest's class line, an SVM
    header and a report row split at ``,`` and strip: there are none or
    ``count`` (else ShapeError), each non-empty and unique, with no ``,``,
    NUL, line break or surrounding whitespace."""
    if names and len(names) != count:
        raise ShapeError(f"{len(names)} class names for {count} classes")
    for i, name in enumerate(names):
        if not name:
            raise ValidationError(f"class {i} has an empty name")
        if name in names[:i]:
            raise ValidationError(f"class name '{name}' is repeated")
        if "," in name or "\x00" in name or name.strip().splitlines() != [name]:
            raise ValidationError(f"class name {name!r} holds ',', NUL, a line break or edge space")


def check_labels(labels, class_count: int, rows: int) -> np.ndarray:
    """``rows`` class indices in ``[0, class_count)`` as a 1-d int64 array;
    a wrong count is a ShapeError, and a non-numeric dtype, a value the cast
    would change (a fraction, NaN, +-inf) or one out of range a ValidationError."""
    if class_count < 1:
        raise ParameterError("class_count must be positive")
    y = np.asarray(labels).reshape(-1)
    if y.shape[0] != rows:
        raise ShapeError(f"{y.shape[0]} labels for {rows} rows")
    if y.dtype.kind not in "biuf":
        raise ValidationError(f"labels must be numbers, got dtype {y.dtype}")
    if y.dtype.kind == "f" and not (whole := np.isfinite(y) & (np.trunc(y) == y)).all():
        at = int(whole.argmin())
        raise ValidationError(f"label {float(y[at])} at index {at} is not a whole number")
    lo, hi = (int(y.min()), int(y.max())) if y.size else (0, 0)
    if lo < 0 or hi >= class_count:
        raise ValidationError(f"labels must lie in [0, {class_count}), got [{lo}, {hi}]")
    return y.astype(np.int64)


def check_image_id(image_id: str) -> None:
    """An id names a scores.csv cell and the vector file ``stack`` reads."""
    if any(c in image_id for c in '/,"\t\x00') or image_id.splitlines() != [image_id]:
        raise ValidationError(
            f"image_id {image_id!r} is empty or holds '/', ',', '\"', tab, NUL or line break"
        )


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    label: int | None
    views: tuple[tuple[str, str, str | Path], ...]  # (stream, layer, resolved path)
    role: str = "train"

    def __post_init__(self):
        check_image_id(self.image_id)
        if self.role not in ROLES:
            raise ValidationError(f"unknown role '{self.role}'")

    def paths_for(self, stream: str, layer: str) -> tuple[Path, ...]:
        """The paths of this entry's ``stream``:``layer`` views, in manifest
        order; an entry that lists none raises ValidationError."""
        paths = tuple(Path(p) for s, l, p in self.views if s == stream and l == layer)
        if not paths:
            raise ValidationError(
                f"image '{self.image_id}' lists no {stream}:{layer} view files"
            )
        return paths


class _EntryError(ValidationError):
    """A rule of ``Manifest`` that its entry at index ``at`` breaks."""

    def __init__(self, at: int, message: str):
        super().__init__(message)
        self.at = at


@dataclass(frozen=True)
class Manifest:
    """Every Manifest is one ``load_manifest`` can produce."""

    class_names: tuple[str, ...]
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        if not self.class_names:
            raise ValidationError("empty class list")
        n = len(self.class_names)
        check_class_names(self.class_names, n)
        seen: set[str] = set()
        for at, e in enumerate(self.entries):
            if e.image_id in seen:
                raise _EntryError(at, f"duplicate image_id '{e.image_id}'")
            seen.add(e.image_id)
            if e.label is not None and not (type(e.label) is int and 0 <= e.label < n):
                raise _EntryError(at, f"image '{e.image_id}': label {e.label!r} not in 0..{n - 1}")

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    def split(self, role: str) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.role == role)


def _parse_views(spec: str, base: str) -> tuple[tuple[str, str, str], ...]:
    views = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        head, sep, path = item.partition("=")
        if not sep or not path:
            raise ValidationError(f"malformed view '{item}'")
        stream, sep, layer = head.partition(":")
        if not sep or not layer:
            raise ValidationError(f"malformed view key '{head}'")
        if stream not in STREAMS:
            raise ValidationError(f"unknown stream '{stream}'")
        views.append((stream, layer, os.path.join(base, path)))
    if not views:
        raise ValidationError("entry lists no view files")
    return tuple(views)


def load_manifest(path: str | Path) -> Manifest:
    """Parse a manifest file and construct its ``Manifest``; any error
    raises ValidationError naming the file and line.  View paths stay text
    joined to the manifest's directory until ``paths_for`` asks for them;
    nothing is opened, so a dangling path surfaces at read time."""
    path = Path(path)
    base = str(path.parent)
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith("classes:"):
        raise ValidationError(f"{path}: first line must be 'classes: ...'")
    class_names = tuple(name.strip() for name in lines[0][len("classes:"):].split(","))
    entries, linenos, lineno = [], [], 1
    try:
        Manifest(class_names, ())
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ValidationError("expected 3 or 4 fields")
            try:
                label = int(fields[1])
            except ValueError:
                raise ValidationError(f"label '{fields[1]}' is not an integer") from None
            role = fields[3].strip() if len(fields) == 4 else "train"
            views = _parse_views(fields[2], base)
            entries.append(ManifestEntry(fields[0], None if label == -1 else label, views, role))
            linenos.append(lineno)
        return Manifest(class_names, tuple(entries))
    except ValidationError as exc:
        at = linenos[exc.at] if isinstance(exc, _EntryError) else lineno
        raise ValidationError(f"{path} line {at}: {exc}") from None


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    """Serialize a manifest; view paths are written relative to ``path``.

    A view that ``load_manifest`` would not read back as written, such as
    one whose stream, layer or relative path holds a ``,``, a tab, a NUL
    or a line break, raises ValidationError before anything is written.
    """
    path = Path(path)
    base = path.parent
    lines = ["classes: " + ",".join(manifest.class_names)]
    for entry in manifest.entries:
        rels = tuple((s, l, os.path.relpath(p, base)) for s, l, p in entry.views)
        views = ",".join(f"{s}:{l}={rel}" for s, l, rel in rels)
        try:
            kept = _parse_views(views, "") == rels
        except ValidationError:
            kept = False
        if not kept or views.splitlines() != [views] or any(c in views for c in "\t\x00"):
            raise ValidationError(
                f"{path}: image '{entry.image_id}' views {views!r} would not read back"
            )
        label = -1 if entry.label is None else entry.label
        lines.append(f"{entry.image_id}\t{label}\t{views}\t{entry.role}")
    atomic_write_text(path, "\n".join(lines) + "\n")
