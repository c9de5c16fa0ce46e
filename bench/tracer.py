"""Outside-in tracer for the betasn layers.

The library has no instrumentation of its own, so the tracer wraps it from
outside: every public module-level function of a layer module is replaced
by a timing wrapper at each module binding that refers to it (modules
import by name, ``from .special import owen_t``, so one binding is not
enough), and every public method of a public class is wrapped on the class.
Integrands handed to ``integrate_line``/``integrate_unit`` are wrapped too,
which counts quadrature batches and nodes.  The Balakrishnan table and
constant caches are only read, through ``cache_info()``.

Each call records one span (name, start, end, parent) in flat arrays kept
until the end of the run; ``self_times`` turns them into self time, a
span's duration minus the time its child spans cover.  ``Tracer.totals``
returns raw sums, which a traced child process can hand to its parent as
JSON; ``finish`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "special",
    "skewnormal",
    "bsn",
    "balakrishnan",
    "betafamily",
    "quadrature",
    "core",
    "reference",
    "orderstats",
    "checks",
    "cli",
)

# every per-layer metric: (unit, which direction is better)
PER_LAYER = {
    "special.self_s": ("s", "lower"),
    "special.owen_t.points": ("count", "lower"),
    "special.norm_logcdf.points": ("count", "lower"),
    "special.inc_beta.points": ("count", "lower"),
    "skewnormal.self_s": ("s", "lower"),
    "skewnormal.quantile.owen_t_per_pt": ("count/pt", "lower"),
    "skewnormal.cdf.logcdf_per_pt": ("count/pt", "lower"),
    "bsn.self_s": ("s", "lower"),
    "bsn.quantile.self_s": ("s", "lower"),
    "balakrishnan.self_s": ("s", "lower"),
    "balakrishnan.table_builds": ("count", "lower"),
    "balakrishnan.table_hits": ("count", "higher"),
    "balakrishnan.constant_builds": ("count", "lower"),
    "betafamily.self_s": ("s", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.batches": ("count", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "quadrature.nodes_per_batch": ("count/batch", "higher"),
    "quadrature.integrand_s": ("s", "lower"),
    "core.self_s": ("s", "lower"),
    "core.moment_calls": ("count", "lower"),
    "reference.self_s": ("s", "lower"),
    "reference.grid.batches": ("count", "lower"),
    "reference.grid.nodes": ("count", "lower"),
    "reference.grid.flagged_rows": ("count", "lower"),
    "orderstats.self_s": ("s", "lower"),
    "checks.self_s": ("s", "lower"),
    "checks.identities_s": ("s", "lower"),
    "checks.moments_s": ("s", "lower"),
    "checks.orderstats_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

_SN_QUANTILE = "skewnormal.SkewNormal.quantile"
_SN_CDF = tuple(f"skewnormal.SkewNormal.{m}" for m in ("cdf", "sf", "logcdf", "logsf"))
_QUADRATURE_ENTRIES = ("integrate_line", "integrate_unit")
# span name -> raw counter of its inclusive time
_INCLUSIVE = {
    "checks.run_identities": "checks.identities_s",
    "checks.run_moments": "checks.moments_s",
    "checks.run_orderstats": "checks.orderstats_s",
}


def _counter(name, raw, depth):
    """What a returned call of span `name` adds to raw: count(args, result), or None.

    When it runs, the call's own span is closed, so ``depth`` counts only
    the spans that enclose the call.
    """
    if name == "special.owen_t":

        def count(args, result):
            n = _points(args)
            raw["special.owen_t.points"] += n
            if depth[_SN_QUANTILE]:
                raw["skewnormal.quantile.owen_t_points"] += n

    elif name == "special.norm_logcdf":

        def count(args, result):
            n = _points(args)
            raw["special.norm_logcdf.points"] += n
            if any(depth[s] for s in _SN_CDF):
                raw["skewnormal.cdf.logcdf_points"] += n

    elif name in ("special.reg_inc_beta", "special.inv_reg_inc_beta"):

        def count(args, result):
            raw["special.inc_beta.points"] += _points(args)

    elif name == _SN_QUANTILE:

        def count(args, result):
            if not depth[_SN_QUANTILE]:
                raw["skewnormal.quantile.points"] += _points(args)

    elif name in _SN_CDF:

        def count(args, result):
            if not any(depth[s] for s in _SN_CDF):
                raw["skewnormal.cdf.points"] += _points(args)

    elif name in ("quadrature.integrate_line", "quadrature.integrate_unit"):

        def count(args, result):
            raw["quadrature.calls"] += 1

    elif name in ("core.moment_summary", "core.normalization_error"):

        def count(args, result):
            raw["core.moment_calls"] += 1

    elif name == "reference.compare_grid":

        def count(args, result):
            raw["reference.grid.calls"] += 1
            raw["reference.grid.flagged_rows"] += sum(not r.passed for r in result)

    else:
        return None
    return count


def self_times(parent, start, end):
    """Self time of each span: its duration minus the union of its children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children are clipped to their parent's interval, and overlapping
    children are covered once.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(parent))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(kids, key=start.__getitem__):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def _points(args):
    """Largest element count among the numeric arguments (at least 1)."""
    n = 1
    for a in args:
        if isinstance(a, (np.ndarray, list, tuple)):
            n = max(n, int(np.size(a)))
    return n


def _layer_of(module_name):
    parts = (module_name or "").split(".")
    if len(parts) == 2 and parts[0] == "betasn" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install`` patches the imported betasn modules; ``restore`` puts every
    original back.  Use it as a context manager to do both.
    """

    def __init__(self):
        self._names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._depth = defaultdict(int)
        self.raw = defaultdict(float)
        self._patches = []
        self._caches_before = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _spanner(self, name):
        """A function that calls fn(*args, **kwargs) inside a span called name."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def run(fn, args, kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            depth[name] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[name] -= 1
                stack.pop()

        return run

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, skip_self):
        run = self._spanner(name)
        count = _counter(name, self.raw, self._depth)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = run(fn, args, kwargs)
            if count is not None:
                count(args[1:] if skip_self else args, result)
            return result

        return traced

    def _wrap_quadrature(self, name, fn):
        inner = self._wrap(name, fn, skip_self=False)
        integrand = self._integrand

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            return inner(integrand(f), *args, **kwargs)

        return traced

    def _integrand(self, f):
        layer = _layer_of(getattr(f, "__module__", None)) or "quadrature"
        run = self._spanner(f"{layer}.integrand")
        raw, depth = self.raw, self._depth
        clock = time.perf_counter

        def counted(x):
            nodes = int(np.size(x))
            raw["quadrature.batches"] += 1
            raw["quadrature.nodes"] += nodes
            if depth["reference.compare_grid"]:
                raw["reference.grid.batches"] += 1
                raw["reference.grid.nodes"] += nodes
            t0 = clock()
            try:
                return run(f, (x,), {})
            finally:
                raw["quadrature.integrand_s"] += clock() - t0

        return counted

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions and methods."""
        import betasn

        modules = {layer: importlib.import_module(f"betasn.{layer}") for layer in LAYERS}
        holders = [betasn, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if layer == "quadrature" and attr in _QUADRATURE_ENTRIES:
                        wrapper = self._wrap_quadrature(name, obj)
                    else:
                        wrapper = self._wrap(name, obj, skip_self=False)
                    for holder in holders:
                        for bound, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, bound, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(f"{layer}.{attr}.{meth}", fn, skip_self=True)
                            self._patch(obj, meth, wrapper)
        self._caches_before = _cache_counts()
        return self

    def restore(self):
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reporting ---------------------------------------------------------

    def totals(self):
        """Raw sums of this process's spans and counters (they add across runs)."""
        names = [self._names[i] for i in self.span_name]
        n = len(names)
        own = self_times(self.span_parent, self.span_start, self.span_end)
        out = defaultdict(float, self.raw)
        for layer in LAYERS:
            out[f"{layer}.self_s"] += 0.0
        for i in range(n):
            name = names[i]
            out[f"{name.split('.', 1)[0]}.self_s"] += own[i]
            if name == "bsn.BetaSkewNormal.quantile":
                out["bsn.quantile.self_s"] += own[i]
            counter = _INCLUSIVE.get(name)
            if counter is not None:
                out[counter] += self.span_end[i] - self.span_start[i]
        for key, count in _cache_counts().items():
            out[key] += count - self._caches_before.get(key, 0)
        out["trace.spans"] += n
        return dict(out)


def _cache_counts():
    """Builds and hits of the Balakrishnan lru caches, read via cache_info()."""
    mod = importlib.import_module("betasn.balakrishnan")
    out = {"balakrishnan.table_builds": 0, "balakrishnan.table_hits": 0, "balakrishnan.constant_builds": 0}
    for attr, obj in vars(mod).items():
        info = getattr(obj, "cache_info", None)
        if info is None:
            continue
        info = info()
        if "table" in attr:
            out["balakrishnan.table_builds"] += info.misses
            out["balakrishnan.table_hits"] += info.hits
        else:
            out["balakrishnan.constant_builds"] += info.misses
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def finish(raw):
    """Per-layer metrics (all but the tracing overhead) from raw totals."""
    get = lambda key: raw.get(key, 0.0)  # noqa: E731
    ratios = {
        "skewnormal.quantile.owen_t_per_pt": ("skewnormal.quantile.owen_t_points", "skewnormal.quantile.points"),
        "skewnormal.cdf.logcdf_per_pt": ("skewnormal.cdf.logcdf_points", "skewnormal.cdf.points"),
        "quadrature.nodes_per_batch": ("quadrature.nodes", "quadrature.batches"),
        "reference.grid.batches": ("reference.grid.batches", "reference.grid.calls"),
        "reference.grid.nodes": ("reference.grid.nodes", "reference.grid.calls"),
        "reference.grid.flagged_rows": ("reference.grid.flagged_rows", "reference.grid.calls"),
    }
    out = {}
    for name in PER_LAYER:
        if name in ratios:
            num, den = ratios[name]
            out[name] = _ratio(get(num), get(den))
        elif name != "trace.overhead_frac":
            out[name] = get(name)
    return out
