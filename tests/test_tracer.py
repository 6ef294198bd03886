"""The benchmark tracer can still read the stage signatures it counts, and
a traced run makes exactly the stage calls its corpus implies."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import fvforge
from fvforge.cli import main
from fvforge.normalize import VARIANTS
from fvforge.tensors import STREAMS

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

CONFIG = (
    "[pipeline]\nscenario = local_fv\n[pca]\ndim = 4\n"
    "[gmm]\ncomponents = 2\nmax_iterations = 3\n"
)

CLASSES, PER_CLASS, MAP_SIZE = 2, 4, 3


def test_traced_local_fv_run_counts_every_stage(tmp_path):
    data = tmp_path / "data"
    assert main(
        [
            "synth", "--out", str(data), "--seed", "5",
            "--classes", str(CLASSES), "--images-per-class", str(PER_CLASS),
            "--views", "1", "--map-size", str(MAP_SIZE), "--map-channels", "6",
            "--test-fraction", "0.5",
        ]
    ) == 0
    config = tmp_path / "run.ini"
    config.write_text(CONFIG, encoding="utf-8")
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(Path(fvforge.__file__).resolve().parents[1]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [
            sys.executable, str(TRACER), str(spans), "--",
            "run", "--config", str(config),
            "--manifest", str(data / "data.manifest"), "--out", str(tmp_path / "run"),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(spans.read_text(encoding="utf-8"))["counts"]
    for key in ("gmm.em_work", "fisher.encode_work"):
        assert counts.get(key, 0) > 0, key
    # One view per image, so every image is normalized, projected and
    # encoded once per (stream, variant), and each train view's positions
    # are fit on once by PCA and once by the mixture.
    train = CLASSES * PER_CLASS // 2
    maps = CLASSES * PER_CLASS * len(STREAMS) * len(VARIANTS)
    fit_rows = train * MAP_SIZE * MAP_SIZE * len(STREAMS) * len(VARIANTS)
    expected = {
        "normalize.maps": maps,
        "normalize.descriptors": maps * MAP_SIZE * MAP_SIZE,
        "pca.fit_descriptors": fit_rows,
        "pca.project_calls": maps,
        "gmm.fit_points": fit_rows,
        "fisher.encode_calls": maps,
        "classify.train_samples": train,
    }
    assert {key: counts.get(key) for key in expected} == expected
