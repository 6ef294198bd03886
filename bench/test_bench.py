"""Smoke test of the benchmark harness on the tiny shape.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

It checks that every metric named in BENCHMARK.json is printed with its
unit, and that a run whose report.csv is corrupted is counted as a
failure rather than reported as a result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import run as bench_run  # noqa: E402


def _bench(capsys, trace: str) -> tuple[int, list[str]]:
    code = bench_run.main(
        ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", trace]
    )
    return code, capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, section):
    monkeypatch.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, lines = _bench(capsys, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in spec[section]}
    assert all(
        isinstance(metric["value"], (int, float)) for metric in result["metrics"].values()
    )
    env = json.loads(lines[-2].removeprefix("env "))
    assert env["seed"] == 3 and env["fail_rate"] == 0.0 and env["src_lines"] > 0


def test_a_corrupted_report_counts_as_a_failure(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    real_child = bench_run.timed_child
    runs = []

    def corrupt_second_report(argv, env, log_path):
        child = real_child(argv, env, log_path)
        if "run" in argv:
            runs.append(argv)
            if len(runs) == 2:
                report = Path(argv[argv.index("--out") + 1]) / "report.csv"
                text = report.read_text(encoding="utf-8")
                report.write_text(text[: len(text) // 2], encoding="utf-8")
        return child

    monkeypatch.setattr(bench_run, "timed_child", corrupt_second_report)
    code, lines = _bench(capsys, "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["attempted"] == len(runs) == 1 + bench_run.MIN_REPS  # warm-up too
    assert result["failed"] == 1
    assert result["correct"] is False
    assert json.loads(lines[-2].removeprefix("env "))["fail_rate"] == 1 / len(runs)
