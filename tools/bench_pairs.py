"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --pr N [--pairs 10] [--workload NAME ...]
        [--seed-base 100] [--attach KEY=FILE.json ...]

For each workload it runs ``bench/run.py`` once from an export of the
parent commit, HEAD, and once from the working tree, for ``--pairs``
pairs, each run as long as BENCHMARK.json's ``run_seconds``.  The two
runs of a pair share one seed, and the side that runs first alternates
from pair to pair, so a drift in machine speed falls on both sides
alike.  The parent is exported with ``git archive`` into a temporary
directory, so the repository gains no worktree or branch.

The output file, BENCH_N.json at the repository root, holds, per
workload and end-to-end metric, both sides' runs, medians and
quartiles, the change/parent ratio of the medians, and the number of
pairs the change won (ties win for neither side), plus the seeds, the
commits and the failed-operation counts of every run.  ``--attach`` adds the JSON of FILE under KEY, for counts taken
outside the benchmark.  Runs go one at a time; the benchmark's own
metrics are CPU times scaled by its reference kernel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export(rev, dest):
    """Write the files of commit rev into the directory dest."""
    with tarfile.open(fileobj=BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree, workload, seed, seconds):
    """The result line of one untraced benchmark run from tree."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(tree) / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench run from {tree} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(runs, better):
    """Per-metric sides, spread and wins of one workload's pairs."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        unit = runs[0]["parent"]["metrics"][name]["unit"]
        sides = {
            side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("parent", "change")
        }
        sign = 1.0 if better[name] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"]))
        parent_q, change_q = quartiles(sides["parent"]), quartiles(sides["change"])
        out[name] = {
            "unit": unit,
            "better": better[name],
            "parent": {**parent_q, "runs": sides["parent"]},
            "change": {**change_q, "runs": sides["change"]},
            "change_over_parent": change_q["median"] / parent_q["median"],
            "change_wins": wins,
            "pairs": len(runs),
            "parent_iqr": parent_q["q3"] - parent_q["q1"],
        }
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", required=True, type=int)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed-base", type=int, default=100)
    p.add_argument("--attach", action="append", default=[], metavar="KEY=FILE")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent_rev = git("rev-parse", "HEAD").decode().strip()
    result = {
        "pr": args.pr,
        "parent": parent_rev,
        "change": "working tree on " + parent_rev,
        "protocol": (
            f"{args.pairs} pairs per workload, {seconds:g} s per run, one seed per pair, "
            "the first side alternating; medians and inclusive quartiles of the runs; "
            "a pair is a win when the change is strictly better"
        ),
        "seeds": [args.seed_base + i for i in range(args.pairs)],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        export(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": str(ROOT)}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(result["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side} done", file=sys.stderr)
                runs.append(pair)
            result["workloads"][workload] = {
                "metrics": summarize(runs, better),
                "failed_operations": {
                    side: [[r[side]["failed"], r[side]["attempted"]] for r in runs]
                    for side in ("parent", "change")
                },
                "correct": {side: [r[side]["correct"] for r in runs] for side in ("parent", "change")},
            }
    for item in args.attach:
        key, _, path = item.partition("=")
        result[key] = json.loads(Path(path).read_text())
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
