"""Root-solver evaluations per quantile point on the benchmark's panel.

    python3 tools/solver_evals.py [--src DIR] [--seed 7 ...]

Feeds each skew-normal and beta skew-normal member of the bulk panel in
``bench/workloads.py`` its seeded quantile inputs and counts the points
the skew-normal solver evaluates, and, where the library solves the
latent incomplete-beta inverse with the same solver, those too.  Prints
one JSON object: per member and in total, points, evaluations per point
of each solve and of both together, and the maxima over members.  ``--src`` picks the
library tree to import (default: this checkout's ``src``), so the same
counts can be taken on another commit's export.
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
    from betasn import skewnormal, special

    counts = {"sn": 0, "latent": 0}

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

    members = {}
    for seed in args.seed or [7]:
        for item in workloads.bulk_inputs(seed):
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
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
