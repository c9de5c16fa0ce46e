"""The measurement scripts under tools/ run against the in-tree package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_solver_evals_reports_every_solve():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solver_evals.py"), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {
        "seeds", "members", "tables", "start_tables", "bg_tables",
        "sn_evals_per_point_weighted", "sn_evals_per_point_max",
        "all_evals_per_point_weighted", "all_evals_per_point_max",
    } <= out.keys()
    stats = {
        f"{solve}_evals_{kind}"
        for solve in ("sn", "latent", "bg")
        for kind in ("per_point", "p90", "max")
    }
    counts = {f"{table}_{kind}" for table in ("start_table", "bg_table") for kind in ("builds", "hits")}
    for row in out["members"].values():
        assert stats | counts | {"points", "all_evals_per_point"} <= row.keys()
    members = out["members"]
    assert "bn(0.5,2)" in members
    # the beta-generated solve is counted wherever the composition runs it,
    # so a moved solve cannot read as 0; each member builds one table per
    # law and side, the lower side of its own law and of its mirror
    for label in [key for key in members if key.startswith("bsn(")] + ["bn(0.5,2)"]:
        assert members[label]["bg_evals_per_point"] > 0, label
        assert members[label]["bg_table_builds"] == 2, label
    # the start tables: one per shape sign, built once and then hit
    for table in ("start_table", "bg_table"):
        totals = out[f"{table}s"]
        assert {"builds", "hits", "size", "maxsize"} <= totals.keys()
        assert sum(row[f"{table}_builds"] for row in members.values()) == totals["builds"] > 0
        assert sum(row[f"{table}_hits"] for row in members.values()) == totals["hits"]
    assert out["start_tables"]["hits"] > 0
    assert members["bn(0.5,2)"]["start_table_builds"] == 0
    for row in out["tables"].values():
        assert {"points", "evals_per_point", "evals_p90", "evals_max", "build_nodes"} <= row.keys()
        # the table solves end on about one evaluation per point, and their
        # reads, like cdf's and sf's, evaluate no kernel
        assert row["read_nodes_per_point"] == 0 and row["evals_per_point"] <= 1.02


def test_tail_routes_counts_every_point():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tail_routes.py"), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {"seeds", "members", "ops", "total"} <= out.keys()
    routes = ("owen_t_only", "owen_t_then_shape", "owen_t_then_t_space", "shape_only", "beyond_range")
    assert {"sn(3)", "sn(-0.7)", "bsn(50,0.05,2)"} <= out["members"].keys()
    for row in out["members"].values():
        assert {"pdf", "logpdf", "cdf", "sf", "quantile", "sample"} <= row.keys()
        for counts in row.values():
            assert sum(counts[k] for k in routes) == counts["points"]
    total = out["total"]
    # no lam > 0 point at or past the shape rule's cut reaches Owen's T or
    # the t-space rule, and no point Owen's T serves goes on to the shape rule
    assert total["far_to_owen_t"] == total["far_to_t_space"] == total["owen_t_then_shape"] == 0
    assert total["shape_only"] > 0 and total["owen_t_only"] > 0


def test_output_digest_prints_every_digest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.keys() == {
        "seed", "check_all_sha256", "check_all_bytes", "bulk_digest", "output_digests",
        "member_digests", "large_digests", "grid_digest", "grid_failed_rows",
    }
    assert out["seed"] == 3
    per_output, large = out["output_digests"], out["large_digests"]
    for table in (per_output, large):
        assert list(table) == ["pdf", "logpdf", "cdf", "sf", "quantile", "sample"]
    digests = [out[k] for k in ("check_all_sha256", "bulk_digest", "grid_digest")]
    for value in digests + list(per_output.values()) + list(large.values()):
        assert len(value) == 64 and int(value, 16) >= 0, value
    assert len(set(per_output.values()) | set(large.values())) == 2 * len(per_output)
    members = out["member_digests"]
    assert len(members) == 13 and all(set(res) <= set(per_output) for res in members.values())
    assert all(len(value) == 64 for res in members.values() for value in res.values())
    assert out["check_all_bytes"] > 0
    assert isinstance(out["grid_failed_rows"], int) and out["grid_failed_rows"] >= 0


def test_large_digest_calls_cross_blocks():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from output_digest import LARGE_POINTS
    finally:
        sys.path.remove(str(ROOT / "tools"))
    from betasn.core import _BLOCK

    assert LARGE_POINTS > 3 * _BLOCK


def test_check_peaks_reports_every_suite():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_peaks.py"), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seed"] == 7 and out["exit_code"] == 0
    stages = ["import", "identities", "moments", "orderstats"]
    peaks, cpu = out["peak_rss_mb"], out["cpu_s"]
    assert list(peaks) == stages and list(cpu) == stages + ["total"]
    # each peak is the child's peak so far
    assert all(0.0 < a <= b for a, b in zip(peaks.values(), list(peaks.values())[1:]))
    assert all(cpu[k] > 0.0 for k in stages)
    assert cpu["total"] == pytest.approx(sum(cpu[k] for k in stages))
