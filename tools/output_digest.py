"""Digests of the library's deterministic outputs, to show a change left them alone.

    python3 tools/output_digest.py [--src DIR] [--seed 3]

Prints one JSON object:

``check_all_sha256``   sha256 of the stdout of
                       ``python -m betasn.cli check all --seed S``,
                       with its length in ``check_all_bytes``;
``bulk_digest``        ``bench/workloads.py``'s digest of every bulk-panel
                       output (pdf, logpdf, cdf, sf, quantile, sample)
                       over ``bulk_inputs(S)``, after ``bulk_setup``;
``output_digests``     the same digest per output, keyed pdf, logpdf, cdf,
                       sf, quantile and sample, each over every panel
                       member that has it, so a change to one output
                       (a sampler, say) shows every other array unchanged;
``member_digests``     the same digest per panel member and output
                       (label -> output -> sha256), so the arrays that
                       moved can be listed one by one;
``large_digests``      the same per-output digests over calls of
                       ``LARGE_POINTS`` points per member (seeded inputs
                       drawn as the bulk pass draws its own), which the
                       library evaluates in several blocks
                       (``betasn.core._BLOCK``), so they match another
                       tree's only if splitting a call left every value
                       alone;
``grid_digest``        sha256 of the 50 x 4 computed moments of
                       ``compare_grid()`` (mean, sd, skewness, kurtosis
                       per row, as float64 bytes), which moves where the
                       ``check all`` report, printing each row's largest
                       deviation only, may not;
``grid_failed_rows``   how many rows of ``compare_grid()`` fail.

Two trees print the same object only if these outputs match bit for
bit.  ``--src`` picks the library tree (default: this checkout's
``src``), so the digests of another commit's export can be taken the
same way; ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# three slices of core._BLOCK (8192) and then some: a large call is cut
# into four near-equal slices; the bulk pass's calls are one slice
LARGE_POINTS = 3 * 8192 + 17


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args(argv)
    src = str(Path(args.src).resolve())
    sys.path[:0] = [src, str(ROOT / "bench")]
    import betasn
    import workloads

    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    report = subprocess.run(
        workloads.check_argv(args.seed), env=env, capture_output=True, check=True
    ).stdout
    inputs = workloads.bulk_inputs(args.seed)
    workloads.bulk_setup(inputs)
    outputs = [workloads.bulk_unit(item)[0] for item in inputs]
    large = large_outputs(workloads, args.seed)
    rows = betasn.compare_grid()
    moments = [[getattr(row.computed, f) for f in betasn.reference.FIELDS] for row in rows]
    print(json.dumps({
        "seed": args.seed,
        "check_all_sha256": hashlib.sha256(report).hexdigest(),
        "check_all_bytes": len(report),
        "bulk_digest": workloads.bulk_digest(outputs),
        "output_digests": per_output(workloads, outputs),
        "member_digests": {
            item.label: {key: workloads.digest(value) for key, value in res.items()}
            for item, res in zip(inputs, outputs)
        },
        "large_digests": per_output(workloads, large),
        "grid_digest": hashlib.sha256(np.array(moments, dtype=float).tobytes()).hexdigest(),
        "grid_failed_rows": sum(not row.passed for row in rows),
    }, indent=2))
    return 0


def per_output(workloads, outputs):
    """One digest per output key, over every panel member that has it."""
    keys = dict.fromkeys(key for res in outputs for key in res)
    return {key: workloads.digest(*(res[key] for res in outputs if key in res)) for key in keys}


def large_outputs(workloads, seed):
    """Each panel member's outputs, as the bulk pass forms them, on LARGE_POINTS seeded points."""
    rng = np.random.default_rng([seed, 2])
    outputs = []
    for _, dist in workloads.panel():
        x = workloads._x_points(rng, dist, LARGE_POINTS)
        q, _ = workloads._q_points(rng, LARGE_POINTS)
        res = {"pdf": dist.pdf(x), "logpdf": dist.logpdf(x), "cdf": dist.cdf(x)}
        if hasattr(dist, "sf"):
            res["sf"] = dist.sf(x)
        res["quantile"] = dist.quantile(q)
        res["sample"] = dist.sample(LARGE_POINTS, int(rng.integers(2**31)))
        outputs.append(res)
    return outputs


if __name__ == "__main__":
    sys.exit(main())
