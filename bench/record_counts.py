"""Record, for each seed, the failures by defect class of one pass of each kind.

    python3 bench/record_counts.py FIRST LAST

Prints the ``counts_at_seed`` entries of known_defects.json for the seeds
FIRST to LAST, one seed a line.  A run at a recorded seed is incorrect when
a class fails more often than recorded, so re-record them whenever the
workloads' inputs or checks change.  Exits 1 when a pass fails outside
every known class.
"""

from __future__ import annotations

import json
import sys

from checkout import pin_blas_threads, use_checkout


def main(argv):
    first, last = (int(a) for a in argv)
    pin_blas_threads()
    use_checkout()
    import run
    import workloads as W

    lines = []
    for seed in range(first, last + 1):
        runner = run.Runner(W, seed)
        runner.setup()
        for passes in runner.passes.values():
            passes.run_pass()
        if runner.tally.unexpected:
            print(f"seed {seed}: unexpected failures {runner.tally.unexpected}", file=sys.stderr)
            return 1
        counts = {kind: {"attempted": t.attempted, **t.by_class} for kind, t in runner.first_tallies.items()}
        lines.append(f'"{seed}": {json.dumps(counts)}')
        print(lines[-1], file=sys.stderr, flush=True)
    print(",\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
