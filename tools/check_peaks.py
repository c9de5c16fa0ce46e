"""Peak memory and CPU of ``betasn check all``, suite by suite.

    python3 tools/check_peaks.py [--seed 3]

Runs ``check all --seed S`` in a fresh Python child, against this
checkout's ``src``, and prints one JSON object:

``peak_rss_mb``   the child's ``ru_maxrss`` (MB) after the import of
                  the package and after each suite (identities,
                  moments, orderstats), so each value is the peak so
                  far: a suite that raises it holds more than all
                  before it;
``cpu_s``         the child's user plus system CPU of the import and
                  of each suite, and their ``total``;
``exit_code``     what ``check all`` returned (0 when every check
                  passed).

The suites run as ``check all`` runs them, with the report written to
nowhere, so the peaks are those of the command itself.  The child is
started from this small process because a child's ``ru_maxrss`` starts
at its parent's high-water mark, which a large parent would put above
the command's own peak.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = r"""
import json, os, resource, sys

def mark():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

start = mark()
from betasn import checks, cli
marks = {"import": mark()}

def timed(name, run):
    def wrapper(**kw):
        out = run(**kw)
        marks[name] = mark()
        return out
    return wrapper

for name in ("identities", "moments", "orderstats"):
    setattr(checks, "run_" + name, timed(name, getattr(checks, "run_" + name)))
report, sys.stdout = sys.stdout, open(os.devnull, "w")
code = cli.main(["check", "all", "--seed", sys.argv[1]])
sys.stdout = report
last = start[1]
cpu = {}
for name, (_, at) in marks.items():
    cpu[name], last = at - last, at
print(json.dumps({
    "peak_rss_mb": {name: rss for name, (rss, _) in marks.items()},
    "cpu_s": {**cpu, "total": last - start[1]},
    "exit_code": code,
}))
"""


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args(argv)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    print(json.dumps({"seed": args.seed, **json.loads(proc.stdout)}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
