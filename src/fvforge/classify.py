"""One-vs-rest linear max-margin classifiers trained by dual coordinate descent.

Each class gets an independent binary SVM over the shared feature matrix:

    min_w  1/2 ||w||^2 + C * sum_i max(0, 1 - y_i * w . x_i)

with the bias folded in as an extra always-1 feature coordinate.  That
coordinate is regularized along with the rest — a deliberate
simplification that keeps the dual box-constrained with no equality
constraint.

All classes are solved in lock-step by dual coordinate descent (Hsieh
et al., ICML 2008) over the Gram matrix Q = X X^T of the n augmented
training vectors; keeping the margins w_k . x_i current makes one update
O(n) instead of O(dim).

Memory: the caller's float64 feature matrix is the only copy of the
training data; no bias column is appended to it.  The norms and Q work
on ``TILE_ROWS``-row tiles, and only the tiles Q multiplies carry the
constant 1.  Q (n^2 float64) is built from its upper triangle one tile
pair at a time, each block mirrored.  The weights combine the
unaugmented rows, and each bias sums its class's signed duals in sample
order.  Beyond the matrix the stage holds Q, two tiles and a few K n for
duals and margins.

Q and the weights come from ``np.einsum``, not ``@``: BLAS products
round differently at different thread counts, and models must not.
``einsum`` reduces each entry in the same order at any tile height, so
all of this is bitwise one ``einsum`` over the augmented matrix, except
the weights at width 1, where ``einsum`` changes its loop order; that
case augments its (n, 1) matrix whole.  The tile height is a constant,
never a function of the thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError
from .tensors import _checked, check_class_names, load_model, save_model

logger = logging.getLogger(__name__)

DEFAULT_C = 1.0
DEFAULT_MAX_EPOCHS = 1000
DEFAULT_TOL = 1e-4
NORM_WARN_FRACTION = 0.1
TILE_ROWS = 16

_HEADER_NAME = "svm.model"


@dataclass(frozen=True)
class LinearModel:
    """Weight matrix + biases for a bank of one-vs-rest linear scorers."""

    class_count: int
    feature_dim: int
    weights: np.ndarray
    biases: np.ndarray
    C: float = DEFAULT_C
    class_names: tuple[str, ...] = ()
    degenerate_classes: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.class_count < 1 or self.feature_dim < 1:
            raise ParameterError("class_count and feature_dim must be positive")
        if not 0.0 < self.C < np.inf:
            raise ParameterError(f"C must be a positive real, got {self.C}")
        w, b = _checked(
            np.float64,
            ("SVM weights", self.weights, (self.class_count, self.feature_dim)),
            ("SVM biases", np.reshape(self.biases, -1), (self.class_count,)),
        )
        _check_names(self.class_names, self.class_count)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(
            self, "degenerate_classes", tuple(self.degenerate_classes)
        )


def _check_names(class_names, class_count: int) -> None:
    """A bank's class names are none, or one per class that
    ``check_class_names`` accepts."""
    if class_names and len(class_names) != class_count:
        raise ShapeError(f"{len(class_names)} class names for {class_count} classes")
    check_class_names(class_names)


def _tile(x: np.ndarray, start: int, bias: bool) -> np.ndarray:
    """Rows ``start`` to ``start + TILE_ROWS`` of ``x``, with a constant-1
    column appended when ``bias``."""
    rows = x[start:start + TILE_ROWS]
    if not bias:
        return rows
    tile = np.empty((rows.shape[0], x.shape[1] + 1))
    tile[:, :-1] = rows
    tile[:, -1] = 1.0
    return tile


def _gram(x: np.ndarray, bias: bool) -> np.ndarray:
    """Q = X X^T of the (bias-augmented) rows, from its upper triangle."""
    n = x.shape[0]
    q = np.empty((n, n))
    for i in range(0, n, TILE_ROWS):
        a = _tile(x, i, bias)
        for j in range(i, n, TILE_ROWS):
            block = np.einsum("id,jd->ij", a, a if j == i else _tile(x, j, bias))
            q[i:i + TILE_ROWS, j:j + TILE_ROWS] = block
            q[j:j + TILE_ROWS, i:i + TILE_ROWS] = block.T
    return q


def _train_dual(
    x: np.ndarray,
    y: np.ndarray,
    C: float,
    rngs,
    max_epochs: int,
    tol: float,
    bias: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step dual coordinate descent for m binary l2-reg L1-hinge SVMs.

    ``x`` is the (n, dim) feature matrix, which the problems see with a
    constant-1 bias column appended when ``bias``; ``y`` holds the (m, n)
    +-1 labels of each problem and ``rngs`` one generator per problem,
    which draws that problem's visiting order once per epoch.  A problem
    stops after the first epoch whose largest projected gradient is below
    ``tol``, or after ``max_epochs``.  Returns the (m, dim + bias) primal
    weights (with ``bias``, the last coordinate is the bias), the (m, n)
    dual variables, which stay inside [0, C] by construction, and each
    problem's last-epoch violation.
    """
    m, n = y.shape
    if bias and x.shape[1] == 1:
        # At width 1 the unaugmented weight einsum rounds differently.
        x, bias = np.hstack([x, np.ones((n, 1))]), False
    q = _gram(x, bias)
    alpha, violation = np.zeros((m, n)), np.zeros(m)
    # The problems still running, with their duals, labels and margins
    # f[k, i] = w_k . x_i, which each update keeps current through q.
    run, a_run, y_run, f_run = np.arange(m), alpha.copy(), y, np.zeros((m, n))
    for _ in range(max_epochs):
        order = np.stack([rngs[k].permutation(n) for k in run], axis=1)
        # Per step t: flat indices of the visited entries, their labels and q_ii.
        flat = order + n * np.arange(run.size)
        signs, steps = y_run.take(flat), q.diagonal()[order]
        # Each step writes its gradients and old duals into its rows of
        # these, and works in ``new`` and ``q_rows``: no step allocates.
        grads, before = np.empty(flat.shape), np.empty(flat.shape)
        new, q_rows = np.empty(run.size), np.empty((run.size, n))
        new_col = new[:, None]
        for i, at, s, step, g, a in zip(order, flat, signs, steps, grads, before):
            a_run.take(at, out=a, mode="clip")  # indices are in range; no buffer
            f_run.take(at, out=g, mode="clip")
            g *= s
            g -= 1.0
            # Applied unconditionally: it leaves alpha as it is exactly
            # when the projected gradient is zero.
            np.divide(g, step, out=new)
            np.subtract(a, new, out=new)
            np.maximum(new, 0.0, out=new)
            np.minimum(new, C, out=new)
            a_run.put(at, new)
            np.subtract(new, a, out=new)
            new *= s
            q.take(i, axis=0, out=q_rows, mode="clip")
            q_rows *= new_col
            f_run += q_rows
        # Projected gradient: zero when the constraint set blocks descent.
        pg = np.where(before <= 0.0, np.minimum(grads, 0.0), grads)
        pg = np.where(before >= C, np.maximum(grads, 0.0), pg)
        epoch_violation = np.abs(pg).max(axis=0)
        alpha[run], violation[run] = a_run, epoch_violation
        going = epoch_violation >= tol
        if not going.any():
            break
        run, a_run, y_run, f_run = run[going], a_run[going], y_run[going], f_run[going]
    signed = alpha * y
    w = np.einsum("kn,nd->kd", signed, x)
    if bias:
        w = np.hstack([w, np.cumsum(signed, axis=1)[:, -1:]])
    return w, alpha, violation


def _train_binary(
    x: np.ndarray,
    y: np.ndarray,
    C: float,
    rng: np.random.Generator,
    max_epochs: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One binary problem through ``_train_dual``: returns (w, alpha).

    ``x`` is used as given, so a bias column must already be in it; ``w``
    has one weight per column of ``x``.
    """
    w, alpha, _ = _train_dual(x, y[None, :], C, [rng], max_epochs, tol, bias=False)
    return w[0], alpha[0]


def train_ovr(
    features,
    labels,
    class_count: int,
    C: float = DEFAULT_C,
    seed: int = 7,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    tol: float = DEFAULT_TOL,
    class_names=(),
) -> LinearModel:
    """Train one binary classifier per class against all other classes.

    Every class with positive examples is solved at once by
    ``_train_dual``, class k visiting samples in the order drawn from
    ``default_rng([seed, k])``.  A class with no positive examples is
    trained as a constant always-negative scorer and reported in
    ``degenerate_classes`` rather than raised.  Classes that stop at
    ``max_epochs`` are named in one ``not-converged`` warning.
    """
    (x,) = _checked(np.float64, ("features", features, (None, None)))
    if x.shape[0] < 1:
        raise ShapeError(f"features must be a nonempty 2-d array, got {x.shape}")
    n = x.shape[0]
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise ShapeError(f"{y.shape[0]} labels for {x.shape[0]} features")
    if class_count < 1:
        raise ParameterError("class_count must be positive")
    if y.min() < 0 or y.max() >= class_count:
        raise ValidationError(
            f"labels must lie in [0, {class_count}), got "
            f"[{y.min()}, {y.max()}]"
        )
    if not 0.0 < C < np.inf:
        raise ParameterError(f"C must be a positive real, got {C}")
    if max_epochs < 1 or not tol > 0.0 or seed < 0:
        raise ParameterError("max_epochs must be >= 1, tol > 0 and seed >= 0")
    class_names = tuple(class_names)
    _check_names(class_names, class_count)

    tiles = [x[i:i + TILE_ROWS] for i in range(0, n, TILE_ROWS)]
    norms = np.concatenate([np.linalg.norm(tile, axis=1) for tile in tiles])
    off = np.abs(norms - 1.0) > NORM_WARN_FRACTION
    if np.any(off):
        logger.warning(
            "stage=train-svm event=norm-check off_unit=%d total=%d", int(off.sum()), n
        )

    present = np.bincount(y, minlength=class_count) > 0
    trained = np.flatnonzero(present)
    w_aug = np.zeros((class_count, x.shape[1] + 1))
    rngs = [np.random.default_rng([seed, k]) for k in trained]
    w_aug[trained], _, violation = _train_dual(
        x, np.where(y == trained[:, None], 1.0, -1.0), C, rngs, max_epochs, tol,
        bias=True,
    )
    late = violation >= tol
    if late.any():
        logger.warning(
            "stage=train-svm event=not-converged classes=%s max_violation=%.6g",
            ",".join(map(str, trained[late])), violation[late].max(),
        )
    degenerate = tuple(int(k) for k in np.flatnonzero(~present))
    if degenerate:
        logger.warning(
            "stage=train-svm event=degenerate classes=%s",
            ",".join(map(str, degenerate)),
        )
    return LinearModel(
        class_count=class_count,
        feature_dim=x.shape[1],
        weights=w_aug[:, :-1],
        biases=w_aug[:, -1],
        C=C,
        class_names=class_names,
        degenerate_classes=degenerate,
    )


def predict_matrix(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Score many features at once; rows of the result follow input rows.

    One BLAS product over every row: scoring in row blocks rounds
    differently whenever a block has only a few rows.
    """
    (x,) = _checked(np.float64, ("features", features, (None, model.feature_dim)))
    return x @ model.weights.T + model.biases


def save_svm(model: LinearModel, model_dir: str | Path) -> None:
    """Write weights/biases tensors plus a text header into a directory."""
    fields = {
        "class_count": str(model.class_count),
        "feature_dim": str(model.feature_dim),
        "c": repr(model.C),
    }
    if model.class_names:
        fields["class_names"] = ",".join(model.class_names)
    if model.degenerate_classes:
        fields["degenerate"] = ",".join(map(str, model.degenerate_classes))
    arrays = {"weights": model.weights, "biases": model.biases}
    save_model(model_dir, _HEADER_NAME, arrays, fields)


def load_svm(model_dir: str | Path) -> LinearModel:
    """Inverse of save_svm; ``LinearModel`` checks that ``weights.fvt``
    has the header's class_count x feature_dim shape."""
    arrays, fields = load_model(model_dir, _HEADER_NAME, {"weights": 2, "biases": 1})
    try:
        shape = (int(fields["class_count"]), int(fields["feature_dim"]))
        c_value = float(fields["c"])
        degenerate = [int(t) for t in fields.get("degenerate", "").split(",") if t]
    except KeyError as exc:
        raise ValidationError(f"model header missing key {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"bad model header value: {exc}") from exc
    names = tuple(fields["class_names"].split(",")) if "class_names" in fields else ()
    return LinearModel(
        *shape, **arrays, C=c_value, class_names=names, degenerate_classes=degenerate
    )
