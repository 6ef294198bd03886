#!/usr/bin/env python3
"""fvforge benchmark: seeded synthetic corpora, ``fvforge run`` timed end to end.

Run from the repository root:

    python3 bench/run.py --workload fv_mixture --seed 1 --seconds 30 --trace 0

For one workload the harness

1. builds the workload's seeded ``synth`` corpus ``SETUP_REPS`` times,
   timing each build (``setup_s`` is their median);
2. after one untimed warm-up run, times ``python -m fvforge.cli --threads
   <nproc> run ...`` as a child process, again and again until
   ``--seconds`` have passed, and checks the outputs of every run;
3. with ``--trace 1``, alternates untraced runs with runs under
   ``bench/tracer.py``, which times each module's public functions from
   outside the program, and reports per-layer metrics instead.

Children get ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` pinned to 1 and import fvforge from ``src/`` of the
current directory; without ``src/fvforge`` the harness exits with code 2.
Wall time, user + sys time and peak RSS of a child come from its own
``os.wait4`` accounting.  A run fails its check when it exits non-zero,
when ``report.csv`` does not end in a ``mAP=... top1=...`` line, when its
``scores.csv`` or ``report.csv`` differ from the first passing run of the
same invocation, or when its mAP is below the workload's floor.  Failed
runs count in ``failed``; their times are not reported.

Standard output: one ``env`` line recording the run environment and the
fail rate, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402  (sibling module of this script)

SETUP_REPS = 5
MIN_REPS = 3
PINNED_BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".bench_work"
_SUMMARY = re.compile(r"mAP=(\S+) top1=(\S+)")


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]  # flags of `fvforge synth`, after --out/--seed
    config: str  # INI text for `fvforge run`
    map_floor: float  # a run whose mAP is lower fails its check


# Why each workload exists, and which layer metrics should move which
# end-to-end metric on it, is written down in bench/README.md.
WORKLOADS = {
    "fv_mixture": Workload(
        synth=(
            "--classes", "10", "--images-per-class", "12", "--views", "1",
            "--map-size", "8", "--map-channels", "64", "--test-fraction", "0.5",
            "--class-scale", "0.08", "--noise-scale", "1.0",
        ),
        config=(
            "[pipeline]\nscenario = local_fv\n[pca]\ndim = 32\n"
            "[gmm]\ncomponents = 16\nmax_iterations = 20\ntol = 1e-12\n"
        ),
        map_floor=0.7,
    ),
    "fv_wide": Workload(
        synth=(
            "--classes", "5", "--images-per-class", "24", "--views", "1",
            "--map-size", "14", "--map-channels", "512", "--test-fraction", "0.5",
            "--class-scale", "0.024", "--noise-scale", "1.0",
        ),
        config=(
            "[pipeline]\nscenario = local_fv\n[pca]\ndim = 64\n"
            "[gmm]\ncomponents = 4\nmax_iterations = 5\ntol = 1e-12\n"
        ),
        map_floor=0.8,
    ),
    "global_svm": Workload(
        synth=(
            "--classes", "25", "--images-per-class", "20", "--views", "2",
            "--fc-dim", "2048", "--map-size", "1", "--map-channels", "1",
            "--test-fraction", "0.5", "--class-scale", "0.1", "--noise-scale", "1.0",
        ),
        config="[pipeline]\nscenario = global_pretrained\n",
        map_floor=0.8,
    ),
    # Not a benchmark workload: the smoke test's shape.
    "tiny": Workload(
        synth=(
            "--classes", "3", "--images-per-class", "4", "--map-size", "3",
            "--map-channels", "4", "--test-fraction", "0.5",
        ),
        config="[pipeline]\nscenario = local_fv\n[pca]\ndim = 2\n[gmm]\ncomponents = 2\n",
        map_floor=0.5,
    ),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "map": "ratio",
    "top1": "ratio",
}


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def timed_child(argv: list[str], env: dict, log_path: Path) -> Child:
    """Run one child to completion; times and peak RSS from its rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        code=proc.returncode,
    )


def parse_summary(report_text: str) -> tuple[float, float] | None:
    """(mAP, top1) from the last line of a report, or None if malformed."""
    lines = report_text.strip().splitlines()
    match = _SUMMARY.fullmatch(lines[-1].strip()) if lines else None
    if match is None:
        return None
    try:
        values = (float(match.group(1)), float(match.group(2)))
    except ValueError:
        return None
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return None
    return values


def _tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


class Checker:
    """Output check of every timed run against the first passing one."""

    def __init__(self, map_floor: float):
        self.map_floor = map_floor
        self.reference: tuple[bytes, bytes] | None = None
        self.summary: tuple[float, float] | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, child: Child, run_dir: Path) -> str | None:
        """Count one run; return why it failed, or None when it passed."""
        self.attempted += 1
        reason = self._reason(child, run_dir)
        if reason is not None:
            self.failed += 1
        return reason

    def _reason(self, child: Child, run_dir: Path) -> str | None:
        if child.code != 0:
            return f"exit code {child.code}"
        try:
            outputs = (
                (run_dir / "scores.csv").read_bytes(),
                (run_dir / "report.csv").read_bytes(),
            )
        except OSError as exc:
            return f"missing output: {exc}"
        summary = parse_summary(outputs[1].decode("utf-8", errors="replace"))
        if summary is None:
            return "report.csv does not end in a 'mAP=... top1=...' line"
        if self.reference is None:
            self.reference, self.summary = outputs, summary
        elif outputs != self.reference:
            return "scores.csv or report.csv differ from the first run"
        if summary[0] < self.map_floor:
            return f"mAP {summary[0]!r} below the floor {self.map_floor}"
        return None


class Bench:
    """One invocation: a work directory, its corpora, and the runs on them.

    Every synth and every run writes into a directory of its own, and
    nothing is deleted before the invocation ends: on the ext4 disk this
    was tuned on, deleting thousands of files made file creation stall for
    seconds afterwards, which tripled some set-up times.
    """

    def __init__(self, root: Path, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.threads = len(os.sched_getaffinity(0))
        self.work = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.corpus = self.work / "corpus"
        self.config = self.work / "run.cfg"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: "1" for var in PINNED_BLAS})
        self.checker = Checker(self.workload.map_floor)

    def setup(self, reps: int) -> float:
        """Build the corpus `reps` times; median build time in seconds."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(self.workload.config, encoding="utf-8")
        times = []
        for i in range(reps):
            self.corpus = self.work / f"corpus{i}"
            log = self.work / "synth.log"
            argv = [sys.executable, "-m", "fvforge.cli", "synth", "--out", str(self.corpus),
                    "--seed", str(self.seed), *self.workload.synth]
            child = timed_child(argv, self.env, log)
            if child.code != 0 or not (self.corpus / "data.manifest").is_file():
                raise RuntimeError(
                    f"synth failed with exit code {child.code}:\n{_tail(log)}"
                )
            times.append(child.wall_s)
        return statistics.median(times)

    def timed_run(self, traced: bool) -> tuple[Child, dict | None]:
        """One checked `run`; with traced=True, also its layer metrics."""
        run_dir = self.work / f"run{self.checker.attempted}"
        spans = run_dir.with_suffix(".spans.json")
        run_args = ["--threads", str(self.threads), "run", "--config", str(self.config),
                    "--manifest", str(self.corpus / "data.manifest"), "--out", str(run_dir)]
        if traced:
            argv = [sys.executable, tracer.__file__, str(spans), "--", *run_args]
        else:
            argv = [sys.executable, "-m", "fvforge.cli", *run_args]
        log = self.work / "run.log"
        child = timed_child(argv, self.env, log)
        reason = self.checker.check(child, run_dir)
        if reason is not None:
            print(f"run failed its check: {reason}\n{_tail(log)}", file=sys.stderr)
            return child, None
        if not traced:
            return child, {}
        with open(spans, encoding="utf-8") as fh:
            return child, tracer.layer_metrics(json.load(fh))

    def repeat(self, seconds: float, step) -> None:
        """Call step() until the next call would end after `seconds`."""
        start = time.perf_counter()
        calls, last = 0, 0.0
        while calls < MIN_REPS or time.perf_counter() - start + last <= seconds:
            t = time.perf_counter()
            step()
            last = time.perf_counter() - t
            calls += 1

    def end_to_end(self, seconds: float) -> dict[str, float]:
        setup_s = self.setup(SETUP_REPS)
        self.timed_run(traced=False)  # warm-up
        runs: list[Child] = []

        def step():
            child, layers = self.timed_run(traced=False)
            if layers is not None:
                runs.append(child)

        self.repeat(seconds, step)
        if not runs:
            return {}
        return {
            "run_s": statistics.median(c.wall_s for c in runs),
            "cpu_s": statistics.median(c.cpu_s for c in runs),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
            "setup_s": setup_s,
            "map": self.checker.summary[0],
            "top1": self.checker.summary[1],
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        self.setup(1)
        self.timed_run(traced=False)  # warm-up
        plain: list[float] = []
        traced: list[tuple[float, dict]] = []

        def step():
            want_trace = len(traced) < len(plain)
            child, layers = self.timed_run(traced=want_trace)
            if layers is None:
                return
            if want_trace:
                traced.append((child.wall_s, layers))
            else:
                plain.append(child.wall_s)

        self.repeat(seconds, step)
        if not plain or not traced:
            return {}
        metrics = {
            name: statistics.median(layers[name] for _, layers in traced)
            for name in tracer.LAYER_UNITS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(wall for wall, _ in traced) - statistics.median(plain)
        )
        return metrics


def environment(root: Path, bench: Bench) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "threads": bench.threads,
        "blas_env": {var: bench.env[var] for var in PINNED_BLAS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "seed": bench.seed,
        "src_lines": src_lines,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fvforge" / "cli.py").is_file():
        print(f"error: no fvforge sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, units = bench.per_layer(args.seconds), tracer.LAYER_UNITS
        else:
            metrics, units = bench.end_to_end(args.seconds), END_TO_END_UNITS
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    checker = bench.checker
    if not metrics:
        print(f"error: all {checker.attempted} runs failed their check", file=sys.stderr)
        return 1
    env = environment(root, bench)
    print("env " + json.dumps(
        {**env, "workload": args.workload, "fail_rate": checker.failed / checker.attempted}
    ))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
