"""Run the fvforge CLI with the public functions of every module timed.

    python3 bench/tracer.py SPANS_JSON -- [fvforge arguments...]

Before calling ``fvforge.cli.main``, the tracer replaces each public
function of the package, in every fvforge module namespace that holds it
(so ``fvforge.pipeline.fit_gmm``, ``fvforge.pca.read_tensor`` and
``fvforge.gmm.responsibilities`` are all caught), with a wrapper that
records a span: name, start, end, the enclosing span on the same thread,
and the thread.  Work counts are computed from the arguments and results,
outside the timed region.  Spans and counts stay in memory and are written
to SPANS_JSON as the program exits.  Nothing inside the program changes.

The parent side, ``layer_metrics``, turns one spans file into the
per-layer metrics of the benchmark.  Importing this module imports no
part of fvforge.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time

MIB = float(1 << 20)

# Modules whose spans count as layer work; pipeline, cli and config are
# the glue that ``pipeline.self_s`` measures.
LAYER_MODULES = (
    "tensors", "normalize", "pca", "gmm", "fisher",
    "classify", "augment", "fusion", "evaluation",
)

# Busy time of a span, minus the time in traced calls it makes, goes to
# the metric of its function, else of its module, else of its caller.
# Helpers such as tensors.atomic_write_text or gmm.logsumexp therefore
# count toward whichever layer called them.
TIME_METRICS = {
    "tensors.read_tensor": "tensors.read_s",
    "tensors.write_tensor": "tensors.write_s",
    "tensors.load_manifest": "tensors.manifest_s",
    "tensors.write_manifest": "tensors.manifest_s",
    "normalize": "normalize.s",
    "pca.fit_pca": "pca.fit_s",
    "pca.project": "pca.project_s",
    "pca.save_pca": "pca.io_s",
    "pca.load_pca": "pca.io_s",
    "gmm.fit_gmm": "gmm.fit_s",
    "gmm.responsibilities": "gmm.responsibilities_s",
    "gmm.log_likelihood": "gmm.responsibilities_s",
    "gmm.save_gmm": "gmm.io_s",
    "gmm.load_gmm": "gmm.io_s",
    "fisher.encode_fv": "fisher.encode_s",
    "fisher": "fisher.postnorm_s",
    "classify.train_ovr": "classify.train_s",
    "classify.predict_matrix": "classify.predict_s",
    "classify.predict_scores": "classify.predict_s",
    "classify.save_svm": "classify.io_s",
    "classify.load_svm": "classify.io_s",
    "augment.sum_pool": "augment.sum_pool_s",
    "fusion": "fusion.s",
    "evaluation.evaluate": "evaluation.evaluate_s",
    "evaluation.average_precision": "evaluation.evaluate_s",
    "evaluation.top1_accuracy": "evaluation.evaluate_s",
    "evaluation.write_scores_csv": "evaluation.write_s",
    "evaluation.write_report_csv": "evaluation.write_s",
}

# Per-layer metrics in report order, with units; every one is reported on
# every workload, as 0 where its layer does not run.
LAYER_UNITS = {
    "tensors.read_calls": "count",
    "tensors.read_mb": "MiB",
    "tensors.read_s": "s",
    "tensors.write_calls": "count",
    "tensors.write_mb": "MiB",
    "tensors.write_s": "s",
    "tensors.manifest_s": "s",
    "normalize.maps": "count",
    "normalize.descriptors": "count",
    "normalize.s": "s",
    "pca.fit_descriptors": "count",
    "pca.fit_s": "s",
    "pca.project_calls": "count",
    "pca.project_s": "s",
    "pca.io_s": "s",
    "gmm.fit_points": "count",
    "gmm.em_iterations": "count",
    "gmm.em_work": "count",
    "gmm.fit_s": "s",
    "gmm.responsibilities_s": "s",
    "gmm.io_s": "s",
    "fisher.encode_calls": "count",
    "fisher.encode_work": "count",
    "fisher.encode_s": "s",
    "fisher.postnorm_s": "s",
    "classify.train_samples": "count",
    "classify.feature_dim": "count",
    "classify.train_s": "s",
    "classify.predict_s": "s",
    "classify.io_s": "s",
    "augment.sum_pool_s": "s",
    "fusion.s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.write_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------ work counts
# Each takes the bound arguments and the result of one call and returns
# the counts it adds, all integers so that they repeat exactly.  Counts
# are summed, except classify.feature_dim, which keeps its largest value.


def _read_tensor(a, result):
    return {"tensors.read_calls": 1, "tensors.read_bytes": os.stat(a["path"]).st_size}


def _write_tensor(a, result):
    return {"tensors.write_calls": 1, "tensors.write_bytes": os.stat(a["path"]).st_size}


def _fit_gmm(a, result):
    points = min(a["descriptors"].count, a["max_points"])
    iterations = len(result.fit_trace)  # the saved model drops the trace
    return {
        "gmm.fit_points": points,
        "gmm.em_iterations": iterations,
        "gmm.em_work": iterations * points * a["K"],
    }


COUNTERS = {
    "tensors.read_tensor": _read_tensor,
    "tensors.write_tensor": _write_tensor,
    "normalize.normalize_variant": lambda a, r: {"normalize.maps": 1},
    "normalize.extract_descriptors": lambda a, r: {"normalize.descriptors": r.count},
    "pca.fit_pca": lambda a, r: {"pca.fit_descriptors": a["descriptors"].count},
    "pca.project": lambda a, r: {"pca.project_calls": 1},
    "gmm.fit_gmm": _fit_gmm,
    "fisher.encode_fv": lambda a, r: {
        "fisher.encode_calls": 1,
        "fisher.encode_work": a["descriptors"].count * a["model"].K,
    },
    "classify.train_ovr": lambda a, r: {
        "classify.train_samples": len(a["features"]),
        "classify.feature_dim": r.feature_dim,
    },
}
_MAX_COUNTS = ("classify.feature_dim",)


# ------------------------------------------------------------ child side


class Tracer:
    """In-memory span and count recorder shared by all wrapped functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_counts(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                if key in _MAX_COUNTS:
                    self.counts[key] = max(self.counts.get(key, 0), value)
                else:
                    self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, threading.get_ident())
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add_counts(counter(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public fvforge function in every fvforge namespace."""
        import fvforge

        modules = [
            importlib.import_module(f"fvforge.{info.name}")
            for info in pkgutil.iter_modules(fvforge.__path__)
        ]
        wrappers: dict = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if not home.startswith("fvforge.") or value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    name = f"{home[len('fvforge.'):]}.{value.__name__}"
                    wrappers[value] = self.wrap(name, value)
                setattr(module, attr, wrappers[value])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- [fvforge arguments...]", file=sys.stderr)
        return 2
    spans_path, fv_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from fvforge import cli

    start = time.perf_counter()
    try:
        return cli.main(fv_args)
    finally:
        end = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"wall": [start, end], "spans": tracer.spans, "counts": tracer.counts},
                fh,
            )


# ------------------------------------------------------------ parent side


def _metric_of(name: str) -> str | None:
    return TIME_METRICS.get(name) or TIME_METRICS.get(name.split(".", 1)[0])


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer busy seconds and work counts from one spans file.

    A span's self time is its duration minus that of its direct children
    (spans nest on each thread, so children never overlap).  Times on
    different threads add up, so a layer's busy seconds can exceed the
    wall time.  ``pipeline.self_s`` is the traced wall time not covered by
    any layer span on any thread.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metric_at: list[str | None] = []
    values = dict.fromkeys(LAYER_UNITS, 0)
    for i, (name, start, end, parent, _) in enumerate(spans):
        # Parents start before their children, so they come first.
        metric = _metric_of(name) or (metric_at[parent] if parent >= 0 else None)
        metric_at.append(metric)
        if metric is not None:
            values[metric] += end - start - child_time[i]
    wall_start, wall_end = doc["wall"]
    covered = _union_length(
        (start, end)
        for name, start, end, _, _ in spans
        if name.split(".", 1)[0] in LAYER_MODULES
    )
    values["pipeline.self_s"] = wall_end - wall_start - covered
    counts = dict(doc["counts"])
    for op in ("read", "write"):
        counts[f"tensors.{op}_mb"] = counts.pop(f"tensors.{op}_bytes", 0) / MIB
    values.update(counts)
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
