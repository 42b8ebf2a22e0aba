"""Fast smoke test of the benchmark harness: one sample per workload, a tiny
oracle budget, and every metric that BENCHMARK.json names reported with its
unit.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUDGET = 2_000
NAMED = ("setup_s", "prove_s", "recheck_s", "validate_s", "oracle_s")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the harness in this process, one sample per workload, oracle budget ``BUDGET``."""
    monkeypatch.setattr(run, "ORACLE_BUDGET", BUDGET)

    def call(*args: str) -> tuple[int, str, dict | None]:
        code = run.main(["--seconds", "0", *args])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        return code, out, result

    return call


def assert_clean(code: int, out: str, result: dict | None) -> None:
    assert code == 0, out
    assert result is not None, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out
    assert result["attempted"] >= 1
    assert result["failed"] == 0


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]


def test_every_workload_reports_the_end_to_end_metrics(bench):
    for workload in SPEC["workloads"]:
        code, out, result = bench("--workload", workload["name"], "--seed", "3", "--trace", "0")
        assert_clean(code, out, result)
        assert_metrics(result, SPEC["end_to_end"])
        assert result["metrics"]["latency_rel"]["value"] > 0


def test_summary_names_every_workload_metric(bench):
    code, out, result = bench("--workload", "all")
    assert_clean(code, out, result)
    assert result["attempted"] == 3
    metrics = result["metrics"]
    for name in NAMED:
        assert metrics[name]["unit"] == "s" and metrics[name]["value"] > 0
    for workload in ("prove", "recheck", "oracle_n8"):
        assert metrics[f"latency_rel.{workload}"]["unit"] == "ratio"
        assert metrics[f"peak_rss_mb.{workload}"]["unit"] == "MB"
        assert metrics[f"fail_share.{workload}"] == {"value": 0.0, "unit": "ratio"}


def test_traced_run_reports_every_per_layer_metric(bench):
    code, out, result = bench("--workload", "recheck", "--trace", "1")
    assert_clean(code, out, result)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["search.combinations_checked"] == 184_756
    assert metrics["search.survivors"] == 20
    assert metrics["contradiction.direct_search_n8.nodes"] == BUDGET
    assert [metrics[f"matroid.tope_count.{k}"] for k in ("alt8", "m2_8", "alt6", "m2_6")] == [64, 8, 26, 6]
    assert metrics["certificate.bytes"] > 0


def test_refuses_to_run_without_the_program():
    bare = BENCH / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "prove", "--seconds", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
