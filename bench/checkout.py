"""The checkout under test: where its sources are, and how to run them.

The benchmark measures the ``src`` tree next to this directory, never an
installed copy.  Both this process and every child it starts put that
``src`` first on the module path, and ``use_checkout`` refuses to go on
when ``betasn`` resolves anywhere else.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PACKAGE = SRC / "betasn"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0


class CheckoutError(RuntimeError):
    """The sources under test are missing or are not the ones imported."""


def pin_blas_threads():
    """One BLAS thread unless the caller chose otherwise; call before numpy loads."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")


def child_env():
    """Environment for child interpreters: this checkout's src first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def check_package_file(path):
    """Raise unless path is this checkout's betasn/__init__.py."""
    if Path(path).resolve() != (PACKAGE / "__init__.py").resolve():
        raise CheckoutError(f"betasn resolves to {path}, not to {PACKAGE}")


def use_checkout():
    """Import betasn from this checkout's src and return the package."""
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(f"no betasn sources at {PACKAGE}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import betasn

    check_package_file(betasn.__file__)
    return betasn


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    """What the numbers depend on besides the code: versions and threads."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": usable,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


@dataclass(frozen=True)
class ChildResult:
    """Exit code, output, wall and CPU time and peak RSS of one finished child."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float  # user + system time of the child
    peak_rss_mb: float


def run_child(argv):
    """Run one child interpreter to completion, from spawn to exit.

    Output is read on threads so neither pipe can fill up; the child is
    reaped with wait4 so its own peak RSS is known.  A child still running
    after CHILD_TIMEOUT_S is killed and reaped before this raises.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=str(ROOT),
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks = {"out": b"", "err": b""}

    def drain(key, pipe):
        chunks[key] = pipe.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for r in readers:
        r.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, lambda: os.kill(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode == -signal.SIGKILL and wall >= CHILD_TIMEOUT_S:
        raise TimeoutError(f"child {argv[1:]} ran past {CHILD_TIMEOUT_S:.0f} s")
    cpu = usage.ru_utime + usage.ru_stime
    return ChildResult(proc.returncode, chunks["out"], chunks["err"], wall, cpu, usage.ru_maxrss / 1024.0)


def own_peak_rss_mb():
    """Peak resident set of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
