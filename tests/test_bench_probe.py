"""The benchmark's probe runs against the library: a change to a function it
calls breaks this test, not only the benchmark."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from omcert.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_probe(*args: str) -> dict:
    """Run ``bench/probe.py`` in a fresh process and decode its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), *args],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_trace_layers_probe_runs(tmp_path, capsys):
    search_path, all_path = tmp_path / "search.json", tmp_path / "all.json"
    assert main(["lemma6", "--output", str(search_path)]) == 0
    assert main(["all", "--output", str(all_path)]) == 0
    capsys.readouterr()
    assert run_probe("trace-layers", str(search_path), str(all_path))["ok"] is True


def test_oracle_probe_runs():
    assert run_probe("oracle", "1000") == {"status": "budget-exhausted", "nodes": 1000}


def test_trace_all_probe_runs(tmp_path):
    out = tmp_path / "all.json"
    result = run_probe("trace-all", str(out))
    assert result["search.combinations_checked"] == 184756
    assert result["search.survivors"] == 20
    assert result["verdict"] == "nonfactorizable"
    assert result["certificate.bytes"] == len(out.read_bytes())
