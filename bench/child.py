"""Child processes of the benchmark.

``python3 bench/child.py setup WORKLOAD``
    Import the library and do the workload's first-call set-up, then exit;
    the parent takes the child's CPU time from start to exit.  Prints the imported package
    file so the parent can check it is this checkout's.

``python3 bench/child.py cli ARG...``
    Run ``betasn.cli.main(ARG...)`` under the tracer.  stdout is the
    command's own output, byte for byte; the tracer's raw totals go to
    stderr as one line starting with TRACE_PREFIX.
"""

from __future__ import annotations

import json
import sys

from checkout import pin_blas_threads, use_checkout

TRACE_PREFIX = "bench-trace "


def setup(workload):
    betasn = use_checkout()
    if workload == "cli-check":
        import betasn.cli  # noqa: F401
    else:
        import workloads

        workloads.bulk_setup(workloads.bulk_inputs(seed=0))
        workloads.moment_setup()
    print(json.dumps({"betasn": betasn.__file__}))
    return 0


def traced_cli(argv):
    use_checkout()
    import betasn.cli

    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = betasn.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.restore()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.totals()) + "\n")
    return code


def main(argv):
    pin_blas_threads()
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if argv[:1] == ["cli"]:
        return traced_cli(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
