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


def test_trace_layers_probe_runs(tmp_path, capsys):
    search_path, all_path = tmp_path / "search.json", tmp_path / "all.json"
    assert main(["lemma6", "--output", str(search_path)]) == 0
    assert main(["all", "--output", str(all_path)]) == 0
    capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), "trace-layers", str(search_path), str(all_path)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["ok"] is True
