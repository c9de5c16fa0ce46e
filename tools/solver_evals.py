"""Root-solver evaluations per quantile point on the benchmark's panel.

    python3 tools/solver_evals.py [--src DIR] [--seed 7 ...]

Feeds each skew-normal, beta skew-normal and beta normal member of the
bulk panel in ``bench/workloads.py`` its seeded quantile inputs and
counts the points each root solve evaluates, by solve: the skew-normal
one (``sn``), the latent incomplete-beta inverse (``latent``) and the
beta-generated one (``bg``), which solves log I_F(z)(a, b) in z.  For
the table-backed members (SNB, GBSN, TBSN) it counts the table solver's
evaluations, the kernel nodes (one log phi each) and segments of one
table build, and the kernel nodes per point of the seeded cdf, sf and
quantile reads of the built table.  The skew-normal and the
beta-generated quantiles take their starts from cached tables, per shape
and per law and side; each member reports the tables its quantile call
built and the cache hits it had, read from each cache's ``cache_info()``
with the caches kept warm across members and seeds, as in one process,
and ``start_tables`` and ``bg_tables`` give the totals and each cache's
final size.  A table built inside a member's call counts its own solves
(the beta-generated ones run the latent and skew-normal solves) among
that member's.  Prints one JSON object: per member and in total, points,
evaluations per point of each solve and of all together, the 90th
percentile and the maximum of each solve's evaluations over its points
(so a tail of slow points shows, not only the mean), the maxima over
members, and the table members under ``tables``.  ``--src`` picks the
library tree to import (default: this checkout's ``src``), so the same
counts can be taken on another commit's export.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--seed", type=int, action="append")
    args = p.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    import workloads
    from betasn import balakrishnan, betafamily, skewnormal, special

    # per solve, one array of evaluations per point for every solver call
    calls = {"sn": [], "latent": [], "bg": [], "table": []}
    counts = {"nodes": 0}

    def counting(key, solver):
        def solve(fun, x, *rest):
            evals = np.zeros(np.size(x), dtype=int)
            calls[key].append(evals)

            def fun_counted(x, idx):
                evals[idx] += 1
                return fun(x, idx)

            return solver(fun_counted, x, *rest)

        return solve

    # the skew-normal and beta-generated modules hold their own references
    # to the solver; the incomplete-beta inverse looks it up in special
    skewnormal._bracketed_newton = counting("sn", skewnormal._bracketed_newton)
    special._bracketed_newton = counting("latent", special._bracketed_newton)
    betafamily._bracketed_newton = counting("bg", betafamily._bracketed_newton)
    balakrishnan._bracketed_newton = counting("table", balakrishnan._bracketed_newton)
    # the table kernel takes one log phi per node
    log_phi = balakrishnan.norm_logpdf

    def log_phi_counted(z):
        counts["nodes"] += z.size
        return log_phi(z)

    balakrishnan.norm_logpdf = log_phi_counted

    def evals_during(action):
        """Evaluations per point of each solve while action runs, one array per solve."""
        for arrays in calls.values():
            arrays.clear()
        action()
        return {key: np.concatenate(arrays or [[]]) for key, arrays in calls.items()}

    def add(row, key, evals):
        row[key] = np.concatenate([row.get(key, []), evals])

    caches = {"start_table": (skewnormal, "_start_table"), "bg_table": (betafamily, "_solve_table")}
    members, tables = {}, {}
    for seed in args.seed or [7]:
        for item in workloads.bulk_inputs(seed):
            if item.label.startswith(("snb(", "gbsn(", "tbsn(")):
                row = tables.setdefault(item.label, {"points": 0, "read_points": 0, "read_nodes": 0})
                table_counts(balakrishnan, item, counts, row)
                evals = evals_during(lambda: item.dist.quantile(item.q))
                row["points"] += item.q.size
                row["read_points"] += item.q.size
                row["read_nodes"] += counts["nodes"]
                add(row, "evals", evals["table"])
                continue
            if not item.label.startswith(("sn(", "bsn(", "bn(")):
                continue
            row = members.setdefault(item.label, {"points": 0})
            before = {name: cache_counts(*where) for name, where in caches.items()}
            evals = evals_during(lambda: item.dist.quantile(item.q))
            for name, where in caches.items():
                after = cache_counts(*where)
                for key in ("builds", "hits"):
                    count = after[key] - before[name][key]
                    row[f"{name}_{key}"] = row.get(f"{name}_{key}", 0) + count
            row["points"] += item.q.size
            for solve in SOLVES:
                add(row, solve, evals[solve])

    def solve_stats(prefix, evals, points):
        """Mean per quantile point, and p90 and max over the solve's own points."""
        return {
            f"{prefix}evals_per_point": evals.sum() / points,
            f"{prefix}evals_p90": float(np.percentile(evals, 90)) if evals.size else 0.0,
            f"{prefix}evals_max": int(evals.max(initial=0)),
        }

    def member_stats(row):
        stats = {"points": row["points"]}
        for solve in SOLVES:
            stats.update(solve_stats(f"{solve}_", row[solve], row["points"]))
        stats["all_evals_per_point"] = sum(row[solve].sum() for solve in SOLVES) / row["points"]
        for name in caches:
            for key in ("builds", "hits"):
                stats[f"{name}_{key}"] = row[f"{name}_{key}"]
        return stats

    table = {label: member_stats(row) for label, row in members.items()}
    points = sum(row["points"] for row in members.values())
    print(json.dumps({
        "seeds": args.seed or [7],
        "members": table,
        "sn_evals_per_point_weighted": sum(row["sn"].sum() for row in members.values()) / points,
        "sn_evals_per_point_max": max(row["sn_evals_per_point"] for row in table.values()),
        "all_evals_per_point_weighted": sum(
            row[solve].sum() for row in members.values() for solve in SOLVES
        ) / points,
        "all_evals_per_point_max": max(row["all_evals_per_point"] for row in table.values()),
        "start_tables": cache_counts(*caches["start_table"]),
        "bg_tables": cache_counts(*caches["bg_table"]),
        "tables": {
            label: {
                "points": row["points"],
                **solve_stats("", row["evals"], row["points"]),
                "build_nodes": row["build_nodes"],
                "segments": row["segments"],
                "read_nodes_per_point": row["read_nodes"] / row["read_points"],
            }
            for label, row in tables.items()
        },
    }, indent=2))
    return 0


# the solves counted for the skew-normal, beta skew-normal and beta normal members
SOLVES = ("sn", "latent", "bg")


def cache_counts(module, name):
    """Builds, hits and size of module's lru-cached table function name."""
    info = getattr(module, name).cache_info()
    return {"builds": info.misses, "hits": info.hits, "size": info.currsize, "maxsize": info.maxsize}


def table_counts(balakrishnan, item, counts, row):
    """Add one table member's build counts to row, and run its cdf and sf reads.

    Leaves counts["nodes"] at the kernel nodes those reads evaluated.
    """
    dist = item.dist
    balakrishnan._kernel_table.cache_clear()
    counts["nodes"] = 0
    built = balakrishnan._kernel_table(*dist._key)
    row["build_nodes"], row["segments"] = counts["nodes"], len(built.seg)
    counts["nodes"] = 0
    dist.cdf(item.x_cdf)
    dist.sf(item.x_cdf)
    row["read_points"] += 2 * item.x_cdf.size


if __name__ == "__main__":
    sys.exit(main())
