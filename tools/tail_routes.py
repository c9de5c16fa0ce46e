"""Which route served each skew-normal tail point on the benchmark's panel.

    python3 tools/tail_routes.py [--src DIR] [--seed 7 ...]

Runs every op of each skew-normal and beta skew-normal member of the
bulk panel in ``bench/workloads.py`` on its seeded inputs (pdf and
logpdf on the density points, cdf and sf on the cdf points, quantile on
the quantile points, and a seeded sample) and counts the left-tail
points (``skewnormal._left``, one per point and solver step) by the
route that served them:

``owen_t_only``          Phi(z) - 2 T(z, lam), kept as it stands;
``owen_t_then_shape``    Owen's T, then repaired by the shape-space rule;
``owen_t_then_t_space``  Owen's T, then repaired by the t-space rule;
``shape_only``           the shape-space rule alone (lam > 0, lam |z| at or
                         past the library's cut ``_SHAPE_CUT``);
``beyond_range``         |z| past the square root of the largest float, F = 0.

``far_to_owen_t`` and ``far_to_t_space`` count the points with lam > 0
and lam |z| past that cut that reached Owen's T or the t-space rule; the
routing keeps both at 0, and with one cut ``owen_t_then_shape`` too.
The t-space points are the points ``skewnormal._log_tail`` receives.
Prints one JSON object with the counts per member and op, per op over
all members, and in total.  ``--src`` picks the library tree to import
(default: this checkout's ``src``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUTES = (
    "owen_t_only", "owen_t_then_shape", "owen_t_then_t_space", "shape_only",
    "beyond_range", "far_to_owen_t", "far_to_t_space",
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--seed", type=int, action="append")
    args = p.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    import workloads
    from betasn import skewnormal

    # beyond this |z|, z^2 overflows and _left returns F = 0, and from
    # lam |z| = shape_only on the shape rule alone serves a point; both read
    # from the library under test, so the counts follow its routing
    z_square_max = skewnormal._Z_SQUARE_MAX
    shape_only = skewnormal._SHAPE_CUT
    raw = dict.fromkeys(
        ("left", "owen_t", "repaired", "gone", "shape", "shape_far", "far_owen", "far_repaired"), 0
    )

    def far(z, lam):
        # the points beyond range are not counted as far
        if lam <= 0.0:
            return 0
        return int(np.count_nonzero((lam * np.abs(z) >= shape_only) & (z >= -z_square_max)))

    def wrap(name, key, far_key=None):
        inner = getattr(skewnormal, name)

        def counted(z, lam, *rest):
            z = np.asarray(z)
            raw[key] += z.size
            if far_key:
                raw[far_key] += far(z, float(lam))
            if key == "left":
                raw["gone"] += int(np.count_nonzero(z < -z_square_max))
            return inner(z, lam, *rest)

        setattr(skewnormal, name, counted)

    wrap("_left", "left")
    wrap("owen_t", "owen_t", "far_owen")
    wrap("_log_tail", "repaired", "far_repaired")
    wrap("_shape_logcdf", "shape", "shape_far")

    def routes_during(action):
        for key in raw:
            raw[key] = 0
        action()
        # every point is beyond range or goes to the shape rule, Owen's T
        # alone or Owen's T then the t-space rule; only the shape rule
        # takes points with lam |z| >= shape_only
        return {
            "points": raw["left"],
            "owen_t_only": raw["left"] - raw["repaired"] - raw["shape"] - raw["gone"],
            "owen_t_then_shape": raw["shape"] - raw["shape_far"],
            "owen_t_then_t_space": raw["repaired"],
            "shape_only": raw["shape_far"],
            "beyond_range": raw["gone"],
            "far_to_owen_t": raw["far_owen"],
            "far_to_t_space": raw["far_repaired"],
        }

    members = {}
    for seed in args.seed or [7]:
        for item in workloads.bulk_inputs(seed):
            if not item.label.startswith(("sn(", "bsn(")):
                continue
            d = item.dist
            ops = {
                "pdf": lambda: d.pdf(item.x_density),
                "logpdf": lambda: d.logpdf(item.x_density),
                "cdf": lambda: d.cdf(item.x_cdf),
                "sf": lambda: d.sf(item.x_cdf),
                "quantile": lambda: d.quantile(item.q),
                "sample": lambda: d.sample(item.q.size, item.sample_seed),
            }
            row = members.setdefault(item.label, {})
            for op, action in ops.items():
                counts = routes_during(action)
                acc = row.setdefault(op, dict.fromkeys(counts, 0))
                for key, value in counts.items():
                    acc[key] += value

    per_op = {}
    for row in members.values():
        for op, counts in row.items():
            acc = per_op.setdefault(op, dict.fromkeys(counts, 0))
            for key, value in counts.items():
                acc[key] += value
    total = {key: sum(counts[key] for counts in per_op.values()) for key in ("points", *ROUTES)}
    print(json.dumps({
        "seeds": args.seed or [7],
        "members": members,
        "ops": per_op,
        "total": total,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
