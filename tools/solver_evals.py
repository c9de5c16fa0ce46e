"""Root-solver evaluations per quantile point on the benchmark's panel.

    python3 tools/solver_evals.py [--src DIR] [--seed 7 ...]

Feeds each skew-normal and beta skew-normal member of the bulk panel in
``bench/workloads.py`` its seeded quantile inputs and counts the points
the skew-normal solver evaluates, and, where the library solves the
latent incomplete-beta inverse with the same solver, those too.  For the
table-backed members (SNB, GBSN, TBSN) it counts the table solver's
evaluations, the kernel nodes (one log phi each) and segments of one
table build, and the kernel nodes per point of the seeded cdf, sf (where
the family has one) and quantile reads of the built table.  Prints one
JSON object: per member and in total, points, evaluations per point of
each solve and of both together, the maxima over members, and the
table members under ``tables``.  ``--src`` picks the library tree to
import (default: this checkout's ``src``), so the same counts can be
taken on another commit's export.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--seed", type=int, action="append")
    args = p.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    import workloads
    from betasn import balakrishnan, skewnormal, special

    counts = {"sn": 0, "latent": 0, "table": 0, "nodes": 0}

    def counting(key, solver):
        def solve(fun, *rest):
            def fun_counted(x, idx):
                counts[key] += x.size
                return fun(x, idx)

            return solver(fun_counted, *rest)

        return solve

    # the skew-normal module holds its own reference to the solver; the
    # incomplete-beta inverse looks it up in special
    skewnormal._bracketed_newton = counting("sn", skewnormal._bracketed_newton)
    special._bracketed_newton = counting("latent", special._bracketed_newton)
    balakrishnan._bracketed_newton = counting("table", balakrishnan._bracketed_newton)
    # the table kernel takes one log phi per node
    log_phi = balakrishnan.norm_logpdf

    def log_phi_counted(z):
        counts["nodes"] += z.size
        return log_phi(z)

    balakrishnan.norm_logpdf = log_phi_counted

    members, tables = {}, {}
    for seed in args.seed or [7]:
        for item in workloads.bulk_inputs(seed):
            if item.label.startswith(("snb(", "gbsn(", "tbsn(")):
                row = tables.setdefault(
                    item.label, {"points": 0, "evals": 0, "read_points": 0, "read_nodes": 0}
                )
                table_counts(balakrishnan, item, counts, row)
                continue
            if not item.label.startswith(("sn(", "bsn(")):
                continue
            counts.update(sn=0, latent=0)
            item.dist.quantile(item.q)
            row = members.setdefault(item.label, {"points": 0, "sn": 0, "latent": 0})
            row["points"] += item.q.size
            row["sn"] += counts["sn"]
            row["latent"] += counts["latent"]
    table = {
        label: {
            "points": row["points"],
            "sn_evals_per_point": row["sn"] / row["points"],
            "latent_evals_per_point": row["latent"] / row["points"],
            "all_evals_per_point": (row["sn"] + row["latent"]) / row["points"],
        }
        for label, row in members.items()
    }
    points = sum(row["points"] for row in members.values())
    print(json.dumps({
        "seeds": args.seed or [7],
        "members": table,
        "sn_evals_per_point_weighted": sum(row["sn"] for row in members.values()) / points,
        "sn_evals_per_point_max": max(row["sn_evals_per_point"] for row in table.values()),
        "all_evals_per_point_weighted": sum(
            row["sn"] + row["latent"] for row in members.values()
        ) / points,
        "all_evals_per_point_max": max(row["all_evals_per_point"] for row in table.values()),
        "tables": {
            label: {
                "points": row["points"],
                "evals_per_point": row["evals"] / row["points"],
                "build_nodes": row["build_nodes"],
                "segments": row["segments"],
                "read_nodes_per_point": row["read_nodes"] / row["read_points"],
            }
            for label, row in tables.items()
        },
    }, indent=2))
    return 0


def table_counts(balakrishnan, item, counts, row):
    """Add one table member's build and read counts to row."""
    dist = item.dist
    balakrishnan._kernel_table.cache_clear()
    counts["nodes"] = 0
    built = balakrishnan._kernel_table(*dist._key)
    row["build_nodes"], row["segments"] = counts["nodes"], len(built.seg)
    counts.update(nodes=0, table=0)
    dist.cdf(item.x_cdf)
    reads = item.x_cdf.size
    if hasattr(dist, "sf"):
        dist.sf(item.x_cdf)
        reads += item.x_cdf.size
    dist.quantile(item.q)
    row["points"] += item.q.size
    row["evals"] += counts["table"]
    row["read_points"] += reads + item.q.size
    row["read_nodes"] += counts["nodes"]


if __name__ == "__main__":
    sys.exit(main())
