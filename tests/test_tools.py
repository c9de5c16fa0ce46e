"""The measurement scripts under tools/ run against the in-tree package."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_solver_evals_reports_every_solve():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solver_evals.py"), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {
        "seeds", "members", "latent_only", "tables",
        "sn_evals_per_point_weighted", "sn_evals_per_point_max",
        "all_evals_per_point_weighted", "all_evals_per_point_max",
    } <= out.keys()
    stats = {
        f"{solve}_evals_{kind}" for solve in ("sn", "latent") for kind in ("per_point", "p90", "max")
    }
    for row in (*out["members"].values(), *out["latent_only"].values()):
        assert stats | {"points", "all_evals_per_point"} <= row.keys()
    assert "bn(0.5,2)" in out["latent_only"]
    for row in out["tables"].values():
        assert {"points", "evals_per_point", "evals_p90", "evals_max", "build_nodes"} <= row.keys()
