"""Frozen brute-force reference implementations used to check the library.

Everything here is deliberately written in plain Python scalar loops
(no numpy vectorization, no shared helpers from the package) so each
function is an independent derivation of the same math.  Slow is fine;
these run on tiny inputs.  The last section holds small helpers that
only tests need; they build the package's containers and raise its
error types, and one keeps a composition of package stages that a
faster ``run`` path must reproduce byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from fvforge import pipeline
from fvforge.config import DEFAULT_CONFIG_TEXT
from fvforge.errors import ParameterError, ShapeError
from fvforge.normalize import DescriptorSet, variant_descriptors
from fvforge.pca import project
from fvforge.tensors import read_tensor


# ------------------------------------------------------------ geometry


def scaled_size_reference(width: int, height: int, scale: int) -> tuple[int, int]:
    """Aspect-preserving resize with the smallest side exactly ``scale``.

    The longer side is rounded half away from zero.
    """

    def round_half_away(num: int, den: int) -> int:
        # num/den >= 0 here; emulate round-half-away-from-zero exactly.
        q, r = divmod(2 * num + den, 2 * den)
        return q

    if width <= height:
        return scale, round_half_away(height * scale, width)
    return round_half_away(width * scale, height), scale


# ------------------------------------------------------- normalization


def spatial_normalize_reference(map3d, epsilon=1e-12):
    """Per-channel division by the spatial max magnitude, scalar loops."""
    h = len(map3d)
    w = len(map3d[0])
    c = len(map3d[0][0])
    out = [[[0.0] * c for _ in range(w)] for _ in range(h)]
    for ch in range(c):
        peak = 0.0
        for i in range(h):
            for j in range(w):
                peak = max(peak, abs(map3d[i][j][ch]))
        denom = max(peak, epsilon)
        for i in range(h):
            for j in range(w):
                out[i][j][ch] = map3d[i][j][ch] / denom
    return out


def channel_normalize_reference(map3d, epsilon=1e-12):
    """Per-position division by the channel max magnitude, scalar loops."""
    h = len(map3d)
    w = len(map3d[0])
    c = len(map3d[0][0])
    out = [[[0.0] * c for _ in range(w)] for _ in range(h)]
    for i in range(h):
        for j in range(w):
            peak = 0.0
            for ch in range(c):
                peak = max(peak, abs(map3d[i][j][ch]))
            denom = max(peak, epsilon)
            for ch in range(c):
                out[i][j][ch] = map3d[i][j][ch] / denom
    return out


# ---------------------------------------------------------- projection


def project_reference(mean, basis, points):
    """(x - mean) @ basis.T with explicit loops."""
    out = []
    for x in points:
        centered = [x[j] - mean[j] for j in range(len(mean))]
        row = []
        for b in basis:
            row.append(sum(b[j] * centered[j] for j in range(len(centered))))
        out.append(row)
    return out


# ------------------------------------------------------------- mixture


def gmm_responsibilities_reference(weights, means, variances, points):
    """Posterior component probabilities via direct density ratios.

    No log-space tricks: densities are computed plainly, which is exact
    enough for the small well-conditioned instances the tests build.
    """
    K = len(weights)
    d = len(means[0])
    gamma = []
    for x in points:
        dens = []
        for k in range(K):
            log_den = 0.0
            for j in range(d):
                var = variances[k][j]
                diff = x[j] - means[k][j]
                log_den += -0.5 * (math.log(2.0 * math.pi * var) + diff * diff / var)
            dens.append(weights[k] * math.exp(log_den))
        total = sum(dens)
        gamma.append([v / total for v in dens])
    return gamma


def log_likelihood(model, points):
    """Total log-likelihood of the points under the mixture, scalar loops."""
    total = 0.0
    for x in points:
        logs = []
        for w, mu, var in zip(model.weights, model.means, model.variances):
            log_den = math.log(w)
            for j in range(model.dim):
                diff = x[j] - mu[j]
                log_den -= 0.5 * math.log(2.0 * math.pi * var[j])
                log_den -= 0.5 * diff * diff / var[j]
            logs.append(log_den)
        total += logsumexp_reference(logs)
    return total


def gmm_moments_reference(gamma, points):
    """Per-component sums of gamma, gamma * x and gamma * x^2, by explicit loops."""
    K = len(gamma[0])
    d = len(points[0])
    s0 = [0.0] * K
    s1 = [[0.0] * d for _ in range(K)]
    s2 = [[0.0] * d for _ in range(K)]
    for g, x in zip(gamma, points):
        for k in range(K):
            s0[k] += g[k]
            for j in range(d):
                s1[k][j] += g[k] * x[j]
                s2[k][j] += g[k] * x[j] * x[j]
    return s0, s1, s2


def fisher_vector_reference(weights, means, variances, points):
    """Double-loop Fisher encoding, interleaved [u_1, v_1, ..., u_K, v_K]."""
    K = len(weights)
    d = len(means[0])
    n = len(points)
    gamma = gmm_responsibilities_reference(weights, means, variances, points)
    out = []
    for k in range(K):
        u = [0.0] * d
        v = [0.0] * d
        for i in range(n):
            for j in range(d):
                z = (points[i][j] - means[k][j]) / math.sqrt(variances[k][j])
                u[j] += gamma[i][k] * z
                v[j] += gamma[i][k] * (z * z - 1.0)
        for j in range(d):
            u[j] /= n * math.sqrt(weights[k])
            v[j] /= n * math.sqrt(2.0 * weights[k])
        out.extend(u)
        out.extend(v)
    return out


# ------------------------------------------------------- fisher norms


def intra_normalize_reference(fv, K, d):
    """Per-order blockwise l2 normalization with explicit slicing."""
    out = list(fv)
    for start in range(0, 2 * K * d, d):
        norm = math.sqrt(sum(v * v for v in fv[start : start + d]))
        if norm > 0.0:
            for i in range(start, start + d):
                out[i] = fv[i] / norm
    return out


def power_l2_reference(vec):
    """Signed square root then global l2, scalar loops."""
    rooted = [math.copysign(math.sqrt(abs(v)), v) if v != 0.0 else 0.0 for v in vec]
    norm = math.sqrt(sum(v * v for v in rooted))
    if norm <= 1e-12:
        return rooted
    return [v / norm for v in rooted]


# ----------------------------------------------------------- ranking


def average_precision_reference(scores, labels):
    """Stepwise integral of the full precision-recall polyline.

    Ranks sort by score descending with ties broken by input index; the
    polyline is walked rank by rank and the precision is accumulated at
    every recall step (i.e. at every positive).
    """
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    total_pos = sum(1 for flag in labels if flag)
    hits = 0
    area = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            hits += 1
            recall_step = 1.0 / total_pos
            precision = hits / rank
            area += precision * recall_step
    return area


def worst_case_ap(positives: int, total: int) -> float:
    """Step AP of the ranking that places every positive last."""
    return sum(
        i / (total - positives + i) for i in range(1, positives + 1)
    ) / positives


def evaluate_reference(matrix, labels):
    """Per-class AP + mAP + top-1 composed from the scalar oracles."""
    classes = len(matrix[0])
    per_class = {}
    for k in range(classes):
        flags = [label == k for label in labels]
        if not any(flags):
            continue
        per_class[k] = average_precision_reference(
            [row[k] for row in matrix], flags
        )
    mean_ap = sum(per_class.values()) / len(per_class)
    correct = 0
    for row, label in zip(matrix, labels):
        best = 0
        for k in range(1, classes):
            if row[k] > row[best]:
                best = k
        if best == label:
            correct += 1
    return per_class, mean_ap, correct / len(labels)


# -------------------------------------------------------------- linear


def predict_scores(model, feature):
    """scores[k] = weights[k] . feature + biases[k]; no calibration."""
    return [
        sum(w[j] * feature[j] for j in range(len(feature))) + b
        for w, b in zip(model.weights.tolist(), model.biases.tolist())
    ]


def primal_objective(model, features, labels):
    """1/2 sum_k ||w_k||^2 + C * total hinge loss across all classes."""
    total = 0.0
    for w, b in zip(model.weights.tolist(), model.biases.tolist()):
        total += 0.5 * (sum(v * v for v in w) + b * b)
    for feature, label in zip(features, labels):
        for k, score in enumerate(predict_scores(model, feature)):
            yk = 1.0 if label == k else -1.0
            total += model.C * max(0.0, 1.0 - yk * score)
    return total


def svm_dcd_reference(x, y, C, rng, max_epochs, tol):
    """Per-sample dual coordinate descent for one binary SVM (Hsieh et al.,
    ICML 2008), updating the primal vector after every step.

    Rows of ``x`` carry the constant-1 bias coordinate and ``y`` holds
    +-1 labels.  ``rng.permutation`` draws the visiting order once per
    epoch; the solver stops after the first epoch whose largest projected
    gradient is below ``tol``.  Returns (w, alpha, epochs run).
    """
    n, d = len(x), len(x[0])
    alpha = [0.0] * n
    w = [0.0] * d
    sq_norms = [sum(v * v for v in row) for row in x]
    for epoch in range(1, max_epochs + 1):
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            grad = y[i] * sum(x[i][j] * w[j] for j in range(d)) - 1.0
            # Projected gradient: zero when the constraint set blocks descent.
            if alpha[i] <= 0.0:
                pg = min(grad, 0.0)
            elif alpha[i] >= C:
                pg = max(grad, 0.0)
            else:
                pg = grad
            if pg != 0.0:
                old = alpha[i]
                alpha[i] = min(max(old - grad / sq_norms[i], 0.0), C)
                step = (alpha[i] - old) * y[i]
                for j in range(d):
                    w[j] += step * x[i][j]
            max_violation = max(max_violation, abs(pg))
        if max_violation < tol:
            break
    return w, alpha, epoch


def train_dual_full_einsum(aug, y, C, rngs, max_epochs, tol):
    """The lock-step dual solver with Q and the weights each from one
    ``np.einsum`` over the whole bias-augmented matrix ``aug``.

    ``classify._train_dual`` builds Q from row tiles and the weights from
    the unaugmented rows plus a sequential bias sum; its (w, alpha,
    violation) must match these bit for bit.
    """
    m, n = y.shape
    q = np.einsum("id,jd->ij", aug, aug)
    alpha, violation = np.zeros((m, n)), np.zeros(m)
    run, a_run, y_run, f_run = np.arange(m), alpha.copy(), y, np.zeros((m, n))
    for _ in range(max_epochs):
        order = np.stack([rngs[k].permutation(n) for k in run], axis=1)
        flat = order + n * np.arange(run.size)
        signs, steps = y_run.take(flat), q.diagonal()[order]
        grads, before = np.empty(flat.shape), np.empty(flat.shape)
        for t, i in enumerate(order):
            a = a_run.take(flat[t])
            g = signs[t] * f_run.take(flat[t]) - 1.0
            new = np.minimum(np.maximum(a - g / steps[t], 0.0), C)
            a_run.put(flat[t], new)
            f_run += ((new - a) * signs[t])[:, None] * q[i]
            grads[t], before[t] = g, a
        pg = np.where(before <= 0.0, np.minimum(grads, 0.0), grads)
        pg = np.where(before >= C, np.maximum(grads, 0.0), pg)
        epoch_violation = np.abs(pg).max(axis=0)
        alpha[run], violation[run] = a_run, epoch_violation
        going = epoch_violation >= tol
        if not going.any():
            break
        run, a_run, y_run, f_run = run[going], a_run[going], y_run[going], f_run[going]
    return np.einsum("kn,nd->kd", alpha * y, aug), alpha, violation


def svm_subgradient_reference(x, y, C, epochs=2000):
    """Full-batch subgradient descent on 1/2||w||^2 + C sum hinge.

    The bias rides along as an always-1 coordinate, regularized, exactly
    as in the library's objective.  Step size 1/t gives the usual
    O(1/t) convergence; accuracy (not weights) is what callers compare.
    """
    n = len(x)
    d = len(x[0]) + 1
    aug = [list(row) + [1.0] for row in x]
    w = [0.0] * d
    for t in range(1, epochs + 1):
        grad = list(w)
        for i in range(n):
            margin = y[i] * sum(w[j] * aug[i][j] for j in range(d))
            if margin < 1.0:
                for j in range(d):
                    grad[j] -= C * y[i] * aug[i][j]
        lr = 1.0 / t
        for j in range(d):
            w[j] -= lr * grad[j]
    return w


def svm_ovr_accuracy_reference(x_train, y_train, x_test, y_test, classes, C):
    """One-vs-rest accuracy of the subgradient trainer."""
    models = []
    for k in range(classes):
        yk = [1.0 if label == k else -1.0 for label in y_train]
        models.append(svm_subgradient_reference(x_train, yk, C))
    correct = 0
    for x, label in zip(x_test, y_test):
        aug = list(x) + [1.0]
        scores = [
            sum(w[j] * aug[j] for j in range(len(aug))) for w in models
        ]
        best = 0
        for k in range(1, classes):
            if scores[k] > scores[best]:
                best = k
        if best == label:
            correct += 1
    return correct / len(y_test)


# -------------------------------------------------------------- pooling


def sum_pool_reference(vectors):
    out = [0.0] * len(vectors[0])
    for vec in vectors:
        for j, v in enumerate(vec):
            out[j] += v
    return out


def logsumexp_reference(values):
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


# ------------------------------------------------------ test-only helpers


def map_to_descriptors(fmap):
    """The descriptors of a (count, 1, dim) map, as ``tensors.write_rows``
    wrote them; requires width == 1."""
    if fmap.width != 1:
        raise ShapeError(f"descriptor container must have width 1, got {fmap.width}")
    return DescriptorSet(dim=fmap.channels, descriptors=fmap.data[:, 0, :])


def concat_variant_fvs(channel_fv, spatial_fv):
    """Join the two fully normalized TDD-variant Fisher vector arrays of one
    region, channel first, and l2-normalize the concatenation once more.

    "Fully normalized" is checked as unit length, up to float32 rounding."""
    for fv, name in ((channel_fv, "channel"), (spatial_fv, "spatial")):
        if abs(float(np.linalg.norm(fv)) - 1.0) > 1e-6:
            raise ParameterError(f"{name} Fisher vector is not normalized")
    joined = np.concatenate([channel_fv, spatial_fv])
    return joined / max(float(np.linalg.norm(joined)), 1e-12)


def fit_local_models_by_view(entries, stream, cfg, models_dir):
    """Fit one stream's PCA and GMM per variant from one descriptor set
    per train view, joined with ``np.vstack``, and save them under
    ``models_dir`` as ``run`` names them.  ``run`` normalizes each view
    into its rows of one stack per variant and must write the same model
    bytes."""
    fmaps = [
        read_tensor(path)
        for entry in entries
        if entry.role == "train"
        for path in entry.paths_for(stream, cfg.conv_layer)
    ]

    def stacked(sets):
        return DescriptorSet(sets[0].dim, np.vstack([ds.descriptors for ds in sets]))

    for variant in cfg.tdd_variants:
        sets = [variant_descriptors(fmap, variant) for fmap in fmaps]
        pca = pipeline.fit_pca_model(
            stacked(sets),
            cfg.pca_dim,
            Path(models_dir) / f"pca_{stream}_{variant}",
        )
        pipeline.fit_gmm_model(
            stacked([project(pca, ds) for ds in sets]),
            cfg,
            Path(models_dir) / f"gmm_{stream}_{variant}",
            pipeline.derived_seed(cfg.gmm_seed, stream, variant),
        )


def log_density_expanded(x, weights, means, variances):
    """The (N, K) log(pi_k * N(x; mu_k, var_k)) as one expression with a
    fresh array per term; ``gmm._log_density`` computes it in place and
    must match it bit for bit."""
    inv_var = 1.0 / variances
    mahal = (
        (x * x) @ inv_var.T
        - 2.0 * x @ (means * inv_var).T
        + np.sum(means * means * inv_var, axis=1)
    )
    log_norm = np.log(weights) - 0.5 * (
        means.shape[1] * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1)
    )
    return log_norm - 0.5 * mahal


def posterior_expanded(x, weights, means, variances):
    """Responsibilities (N, K) and log p(x) (N,) with a fresh array for
    every step; ``gmm._posterior`` computes them in place and must match
    them bit for bit."""
    log_joint = log_density_expanded(x, weights, means, variances)
    amax = np.max(log_joint, axis=1, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    log_px = np.squeeze(
        np.log(np.sum(np.exp(log_joint - amax), axis=1, keepdims=True)) + amax, axis=1
    )
    return np.exp(log_joint - log_px[:, None]), log_px


def centred_two_pass(points, mean=None):
    """``points`` copied to float64, then centred in place on ``mean``
    (their own mean when None), and that mean; ``pca.fit_pca`` must match
    the mean and, block by block, the centred rows (see
    ``blocked_covariance``), and ``pca.project`` the centred rows, bit for
    bit."""
    x = np.asarray(points).astype(np.float64)
    if mean is None:
        mean = x.mean(axis=0)
    x -= mean
    return mean, x


def blocked_covariance(centred, block_rows):
    """The 1/N covariance of already centred rows, summed as one ``x.T @ x``
    per ``block_rows``-row block in row order; ``pca.fit_pca`` forms its
    covariance this way and must match it bit for bit."""
    blocks = (centred[a:a + block_rows] for a in range(0, centred.shape[0], block_rows))
    return sum(x.T @ x for x in blocks) / centred.shape[0]


def write_default_config(path):
    """Write the default configuration text to ``path``."""
    Path(path).write_text(DEFAULT_CONFIG_TEXT, encoding="utf-8")
