"""Seeded inputs, timed passes and output checks of the three workloads.

A *pass* is one round of work on inputs made from the seed, made of
small *units* that the runner can spread over a run:

* the bulk pass evaluates a fixed family panel at seeded points
  (pdf/logpdf, cdf/sf, quantile/sample), one family per unit;
* the moment pass recomputes the reference moment grid, runs seeded
  quadrature tasks (``moments``, ``mgf``, ``normalization_error``), one
  per unit, and recomputes the grid again;
* the check pass is one ``python -m betasn.cli check all --seed S`` child.

Every operation of a pass is checked, and each failure is sorted into a
known defect class (see ``known_defects.json``) or marked unexpected.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import betaln, ndtr

import betasn

# points of every bulk call (pdf, logpdf, cdf, sf, quantile, sample):
# ROADMAP's per-call baseline uses 1e5 points; a twentieth of that keeps
# a bulk pass over the panel near 7 s, so several passes fit in one run
POINTS_PER_CALL = 5_000
# lowest tail probability the quantile inputs reach
Q_FLOOR = 1e-12
# cdf(quantile(q)) must return q to this relative error
ROUNDTRIP_RTOL = 1e-10
# draws per task group and pass in the moment sweep
DRAWS_PER_GROUP = 4
MGF_T = np.array([-1.0, -0.5, 0.5, 1.0])
# closed-form raw moments must match to this relative error, the density
# must integrate to 1 within the library's own normalization budget, and
# closed-form mgf values must match to the library's mgf check tolerance
MOMENT_RTOL = 1e-9
NORMALIZATION_TOL = 5e-9
MGF_RTOL = 1e-8
CHECK_COUNT = 169
# Work is timed in CPU time (user + system) of the process doing it.  A
# shared 2-core x86_64 VM lost 5-25% of its time to the hypervisor (steal
# time) in spells of minutes; wall time counts the stolen time, CPU time
# does not.
CLOCK = time.process_time

KNOWN = json.loads((Path(__file__).resolve().parent / "known_defects.json").read_text())
TABLE_FAMILIES = ("SNB", "GBSN", "TBSN")
UNIT_FAMILIES = ("Beta", "Kumaraswamy", "GB1")


# ---------------------------------------------------------------------------
# failure bookkeeping


@dataclass
class Tally:
    """Attempted and failed operations, failures sorted by defect class."""

    attempted: int = 0
    failed: int = 0
    by_class: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)

    def add(self, attempted, failures):
        """failures: iterable of (defect class or None, description)."""
        self.attempted += int(attempted)
        for cls, what in failures:
            self.failed += 1
            key = cls or "unexpected"
            self.by_class[key] = self.by_class.get(key, 0) + 1
            if cls is None and len(self.unexpected) < 20:
                self.unexpected.append(what)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        for key, n in other.by_class.items():
            self.by_class[key] = self.by_class.get(key, 0) + n
        self.unexpected.extend(other.unexpected[: max(0, 20 - len(self.unexpected))])


def digest(*arrays):
    """Hash of output arrays, to show that a repeated pass gave the same results."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _stratified(rng, n):
    """n uniforms on (0, 1), one in each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(rng, n, lo, hi):
    return np.exp(np.log(lo) + _stratified(rng, n) * (np.log(hi) - np.log(lo)))


# ---------------------------------------------------------------------------
# bulk evaluation


def panel():
    """The fixed family panel of the bulk pass, as (label, distribution)."""
    return (
        ("sn(3)", betasn.SkewNormal(0.0, 1.0, 3.0)),
        ("sn(-0.7)", betasn.SkewNormal(0.0, 1.0, -0.7)),
        ("sn(50)", betasn.SkewNormal(0.0, 1.0, 50.0)),
        ("bsn(1,2,3)", betasn.BetaSkewNormal(1.0, 2.0, 3.0)),
        ("bsn(50,0.05,2)", betasn.BetaSkewNormal(50.0, 0.05, 2.0)),
        ("bsn(-50,3,0.05)", betasn.BetaSkewNormal(-50.0, 3.0, 0.05)),
        ("bsn(-10,0.3,0.7)", betasn.BetaSkewNormal(-10.0, 0.3, 0.7)),
        ("bsn(5,0.05,0.05)", betasn.BetaSkewNormal(5.0, 0.05, 0.05)),
        ("snb(1,3)", betasn.SNB(1.0, 3)),
        ("gbsn(2,4,1)", betasn.GBSN(2.0, 4, 1)),
        ("tbsn(5,-0.5,3,2)", betasn.TBSN(5.0, -0.5, 3, 2)),
        ("bn(0.5,2)", betasn.BetaNormal(0.5, 2.0)),
        ("kumaraswamy(0.5,2)", betasn.Kumaraswamy(0.5, 2.0)),
    )


@dataclass
class BulkInput:
    label: str
    dist: object
    x_density: np.ndarray
    x_cdf: np.ndarray
    q: np.ndarray
    upper: np.ndarray  # True where q was made as 1 - t for a tail probability t
    sample_seed: int


def _x_points(rng, dist, n):
    lo, hi = dist.support
    if not np.isfinite(lo):
        lo = dist.location - 8.0 * dist.scale
    if not np.isfinite(hi):
        hi = dist.location + 8.0 * dist.scale
    return np.sort(lo + (hi - lo) * _stratified(rng, n))


def _q_points(rng, n):
    """Tail probabilities t log-uniform on [Q_FLOOR, 0.5]; half become q = 1 - t.

    Returns q and the mask of the mirrored points.
    """
    t = _log_uniform(rng, n, Q_FLOOR, 0.5)
    upper = rng.permutation(n) < n // 2
    return np.where(upper, 1.0 - t, t), upper


def bulk_inputs(seed):
    """Seeded points for every panel member."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for label, dist in panel():
        x_density = _x_points(rng, dist, POINTS_PER_CALL)
        x_cdf = _x_points(rng, dist, POINTS_PER_CALL)
        q, upper = _q_points(rng, POINTS_PER_CALL)
        out.append(BulkInput(label, dist, x_density, x_cdf, q, upper, int(rng.integers(2**31))))
    return out


def bulk_setup(inputs):
    """First calls on every member: builds tables and normalizing constants."""
    for item in inputs:
        d = item.dist
        x, q = item.x_cdf[:4], item.q[:4]
        d.pdf(x), d.logpdf(x), d.cdf(x), d.quantile(q), d.sample(2, 0)
        if hasattr(d, "sf"):
            d.sf(x)


def bulk_unit(item):
    """Evaluate one panel member: its outputs and (points, seconds) per category."""
    d = item.dist
    clock = CLOCK
    res = {}
    t0 = clock()
    res["pdf"] = np.asarray(d.pdf(item.x_density))
    res["logpdf"] = np.asarray(d.logpdf(item.x_density))
    t1 = clock()
    res["cdf"] = np.asarray(d.cdf(item.x_cdf))
    if hasattr(d, "sf"):
        res["sf"] = np.asarray(d.sf(item.x_cdf))
    t2 = clock()
    res["quantile"] = np.asarray(d.quantile(item.q))
    res["sample"] = np.asarray(d.sample(POINTS_PER_CALL, item.sample_seed))
    t3 = clock()
    spent = {
        "density": (2 * item.x_density.size, t1 - t0),
        "cdf": (item.x_cdf.size * (2 if "sf" in res else 1), t2 - t1),
        "quantile": (item.q.size + res["sample"].size, t3 - t2),
    }
    return res, spent


def roundtrip(dist, q, upper, x):
    """Relative round-trip error of quantile outputs x, NaN where x is not finite.

    A lower-tail q is compared with cdf(x).  A mirrored q is compared, as
    its tail probability 1 - q (exact for q >= 0.5), with sf(x) where the
    family has an sf; without one, with cdf(x) relative to q.  Also returns
    the absolute miss, in the same terms.
    """
    finite = np.isfinite(x)
    tail = hasattr(dist, "sf") & upper
    want = np.where(tail, 1.0 - q, q)
    got = np.full_like(q, np.nan)
    lower = finite & ~tail
    got[lower] = dist.cdf(x[lower])
    if np.any(finite & tail):
        got[finite & tail] = dist.sf(x[finite & tail])
    miss = np.abs(got - want)
    return miss / want, miss


def _quantile_class(dist, q, x, miss):
    """Known defect class of a failed quantile point, or None when it is unexpected."""
    if not np.isfinite(x):
        return None
    lo, hi = dist.support
    family = type(dist).__name__
    if family in TABLE_FAMILIES and lo < x < hi:
        if min(q, 1.0 - q) < KNOWN["table_tail"]["q_below"]:
            return "table_tail"
    known = KNOWN["sn_upper_tail"]
    if family == "SkewNormal" and q > 0.5 and 1.0 - q < known["t_below"] and miss <= known["abs_miss_at_most"]:
        return "sn_upper_tail"
    return None


def check_bulk(inputs, outputs):
    """Check every point of one bulk pass; return a Tally."""
    tally = Tally()
    for item, res in zip(inputs, outputs):
        d, label = item.dist, item.label
        lo, hi = d.support
        fails = []

        def bad_points(op, mask, classify=lambda i: None):
            for i in np.flatnonzero(mask):
                fails.append((classify(i), f"{label} {op}[{i}]"))

        x = item.x_density
        pdf, logpdf = res["pdf"], res["logpdf"]
        inside = (x > lo) & (x < hi)
        bad_points("pdf", ~np.isfinite(pdf) | (pdf < 0.0))
        bad_points("logpdf", np.isnan(logpdf) | (logpdf == np.inf) | (inside & ~np.isfinite(logpdf)))
        tally.attempted += 2 * x.size

        for op, sign in (("cdf", 1.0), ("sf", -1.0)):
            if op not in res:
                continue
            v = res[op]
            out_of_range = ~np.isfinite(v) | (v < 0.0) | (v > 1.0)
            wrong_way = np.concatenate([[False], sign * np.diff(v) < 0.0])
            bad_points(op, out_of_range | wrong_way)
            tally.attempted += v.size

        q, xq = item.q, res["quantile"]
        rel, miss = roundtrip(d, q, item.upper, xq)
        bad_points(
            "quantile",
            ~(rel <= ROUNDTRIP_RTOL),
            lambda i: _quantile_class(d, float(q[i]), float(xq[i]), float(miss[i])),
        )
        tally.attempted += q.size

        s = res["sample"]
        bad_points("sample", ~np.isfinite(s) | (s < lo) | (s > hi))
        tally.attempted += s.size
        tally.add(0, fails)
    return tally


def bulk_digest(outputs):
    return digest(*(v for res in outputs for v in res.values()))


# ---------------------------------------------------------------------------
# moment sweep


@dataclass
class Task:
    label: str
    group: str
    kind: str  # moments | mgf | normalization
    dist: object
    expect: object = None  # closed-form raw moments or mgf values, if known


def _sn_raw_moments(lam):
    delta = lam / math.sqrt(1.0 + lam * lam)
    c = math.sqrt(2.0 / math.pi)
    return np.array([c * delta, 1.0, c * delta * (3.0 - delta * delta), 3.0])


def _beta_raw_moments(a, b):
    return np.array([math.exp(betaln(a + k, b) - betaln(a, b)) for k in range(1, 5)])


def _kumaraswamy_raw_moments(p, b):
    return np.array([b * math.exp(betaln(1.0 + k / p, b)) for k in range(1, 5)])


def _gb1_raw_moments(a, b, p, q):
    return np.array([q**k * math.exp(betaln(a + k / p, b) - betaln(a, b)) for k in range(1, 5)])


def moment_tasks(seed):
    """Seeded quadrature tasks over the parameter box.

    Each parameter range is cut into DRAWS_PER_GROUP equal strata (log-scale for
    shapes and |lam|).  Which strata of different parameters go together
    is fixed, so every seed covers the box the same way; the seed places
    each draw inside its stratum.  That keeps the cost of a pass, and so
    the task rate, from swinging with the seed.
    """
    draws = DRAWS_PER_GROUP
    rng = np.random.default_rng([seed, 2])
    pairing = np.random.default_rng(20110421)

    def strata(lo, hi):
        u = (pairing.permutation(draws) + rng.random(draws)) / draws
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))

    def shapes():
        return strata(0.05, 10.0)

    def lams():
        return strata(0.05, 50.0) * np.where(pairing.permutation(draws) % 2, 1.0, -1.0)

    def orders():
        return pairing.permutation(draws) % 5

    tasks = []
    for lam, a, b in zip(lams(), shapes(), shapes()):
        d = betasn.BetaSkewNormal(float(lam), float(a), float(b))
        label = f"bsn({lam:.4g},{a:.4g},{b:.4g})"
        tasks += [
            Task(label, "bsn", "moments", d),
            Task(label, "bsn", "mgf", d),
            Task(label, "bsn", "normalization", d),
        ]
    for lam in lams():
        d = betasn.BetaSkewNormal(float(lam), 1.0, 1.0)
        delta = lam / math.sqrt(1.0 + lam * lam)
        label = f"bsn({lam:.4g},1,1)"
        mgf = 2.0 * np.exp(0.5 * MGF_T**2) * ndtr(delta * MGF_T)
        tasks += [
            Task(label, "sn", "moments", d, _sn_raw_moments(float(lam))),
            Task(label, "sn", "mgf", d, mgf),
            Task(label, "sn", "normalization", d),
        ]
    for lam, n in zip(lams(), orders()):
        d = betasn.SNB(float(lam), int(n))
        label = f"snb({lam:.4g},{n})"
        tasks += [Task(label, "snb", "moments", d), Task(label, "snb", "normalization", d)]
    for lam1, lam2, n, m in zip(lams(), lams(), orders(), orders()):
        d = betasn.TBSN(float(lam1), float(lam2), int(n), int(m))
        label = f"tbsn({lam1:.4g},{lam2:.4g},{n},{m})"
        tasks += [Task(label, "tbsn", "moments", d), Task(label, "tbsn", "normalization", d)]
    for a, b in zip(shapes(), shapes()):
        d = betasn.Beta(float(a), float(b))
        label = f"beta({a:.4g},{b:.4g})"
        tasks += [
            Task(label, "Beta", "moments", d, _beta_raw_moments(a, b)),
            Task(label, "Beta", "normalization", d),
        ]
    for p, b in zip(shapes(), shapes()):
        d = betasn.Kumaraswamy(float(p), float(b))
        label = f"kumaraswamy({p:.4g},{b:.4g})"
        tasks += [
            Task(label, "Kumaraswamy", "moments", d, _kumaraswamy_raw_moments(p, b)),
            Task(label, "Kumaraswamy", "normalization", d),
        ]
    for a, b, p, q in zip(shapes(), shapes(), shapes(), strata(0.5, 2.0)):
        d = betasn.GB1(float(a), float(b), float(p), float(q))
        label = f"gb1({a:.4g},{b:.4g},{p:.4g},{q:.4g})"
        tasks += [
            Task(label, "GB1", "moments", d, _gb1_raw_moments(a, b, p, q)),
            Task(label, "GB1", "normalization", d),
        ]
    for a, b in zip(shapes(), shapes()):
        d = betasn.BetaHalfNormal(float(a), float(b))
        label = f"bhn({a:.4g},{b:.4g})"
        tasks += [Task(label, "bhn", "moments", d), Task(label, "bhn", "normalization", d)]
    return tasks


def moment_setup():
    """First calls of the moment engine on a line family and a unit family."""
    betasn.excluded_cells()
    betasn.BetaSkewNormal(1.0, 2.0, 3.0).moments()
    betasn.Beta(2.0, 3.0).moments()


def _raw_from_summary(s):
    m1 = s.mean
    m2 = s.sd**2 + m1 * m1
    m3 = s.skewness * s.sd**3 + 3.0 * m1 * m2 - 2.0 * m1**3
    m4 = s.kurtosis * s.sd**4 + 4.0 * m1 * m3 - 6.0 * m1 * m1 * m2 + 3.0 * m1**4
    return np.array([m1, m2, m3, m4])


def run_task(task):
    """Run one task: (numbers, failure description or None, size of the miss).

    The miss is a normalization error or the relative closed-form miss of a
    failed task; it is None when the task raised or gave a non-finite value.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if task.kind == "moments":
                value = _raw_from_summary(task.dist.moments())
            elif task.kind == "mgf":
                value = np.asarray(task.dist.mgf(MGF_T), dtype=float)
            else:
                value = np.array([betasn.normalization_error(task.dist)])
    except Exception as exc:  # every raised error is a failed task
        return np.array([np.nan]), f"raised {type(exc).__name__}", None
    if not np.all(np.isfinite(value)):
        return value, "non-finite result", None
    if task.kind == "normalization" and value[0] > NORMALIZATION_TOL:
        return value, f"normalization error {value[0]:.3g}", float(value[0])
    if task.expect is not None:
        tol = MOMENT_RTOL if task.kind == "moments" else MGF_RTOL
        err = float(np.max(np.abs(value - task.expect) / np.abs(task.expect)))
        if not err <= tol:
            return value, f"closed form missed by {err:.3g} relative", err
    return value, None, None


_LEFT_SHAPE = {"Beta": lambda d: d.a, "Kumaraswamy": lambda d: d.p, "GB1": lambda d: d.a * d.p}


def _at_unit_endpoint(task):
    """True for a unit-interval family whose density blows up as the defect needs.

    The density behaves like z^(shape - 1) at the left endpoint and like
    (1 - z)^(b - 1) at the right one.
    """
    if task.group not in UNIT_FAMILIES:
        return False
    left = _LEFT_SHAPE[task.group](task.dist) - 1.0
    return task.dist.b < 1.0 or left <= KNOWN["unit_endpoint"]["left_exponent_at_most"]


def task_class(task, problem, miss):
    """Known defect class of a failed task, or None when it is unexpected."""
    if miss is None:
        if problem == "raised IntegrationError" and _at_unit_endpoint(task):
            return "unit_endpoint"
        return None
    if _at_unit_endpoint(task) and miss < KNOWN["unit_endpoint"]["miss_below"]:
        return "unit_endpoint"
    heavy = KNOWN["heavy_tail_truncation"]
    if (
        task.group in ("bsn", "bhn")
        and task.kind == "normalization"
        and min(task.dist.a, task.dist.b) < heavy["shape_below"]
        and miss < heavy["miss_below"]
    ):
        return "heavy_tail_truncation"
    sn = KNOWN["quadrature_accuracy"]
    if (
        task.group == "sn"
        and task.kind == "moments"
        and sn["abs_lam_from"] <= abs(task.dist.lam) <= sn["abs_lam_to"]
        and miss < sn["miss_below"]
    ):
        return "quadrature_accuracy"
    return None


def grid_failures(rows):
    known = {tuple(r) for r in KNOWN["grid_rows"]["rows"]}
    out = []
    for cmp in rows:
        if not cmp.passed:
            key = (cmp.row.a, cmp.row.b, cmp.row.lam)
            out.append(("grid_rows" if key in known else None, f"grid row {key}"))
    return out


def timed_grid():
    """compare_grid once: the rows, their computed moments, and the CPU time."""
    t0 = CLOCK()
    rows = betasn.compare_grid()
    seconds = CLOCK() - t0
    values = [[c.computed.mean, c.computed.sd, c.computed.skewness, c.computed.kurtosis] for c in rows]
    return rows, values, seconds


def timed_task(task):
    """run_task plus its CPU time."""
    t0 = CLOCK()
    value, problem, miss = run_task(task)
    return value, problem, miss, CLOCK() - t0


def check_moments(rows, tasks, task_records):
    """Tally one moment pass: the grid rows and every task."""
    tally = Tally()
    tally.add(len(rows), grid_failures(rows))
    tally.add(
        len(tasks),
        [
            (task_class(task, problem, miss), f"{task.label} {task.kind}: {problem}")
            for task, (_, problem, miss, _) in zip(tasks, task_records)
            if problem is not None
        ],
    )
    return tally


# ---------------------------------------------------------------------------
# check all


def check_argv(seed):
    return [sys.executable, "-m", "betasn.cli", "check", "all", "--seed", str(seed)]


def check_report(child):
    """Tally one ``check all`` child; raise ValueError when the run itself is broken."""
    if child.code not in (0, 1):
        raise ValueError(f"check all exited {child.code}: {child.stderr.decode(errors='replace')[-500:]}")
    report = json.loads(child.stdout)
    if report["n_checks"] != CHECK_COUNT:
        raise ValueError(f"check all ran {report['n_checks']} checks, not {CHECK_COUNT}")
    known = set(KNOWN["grid_rows"]["check_names"])
    chance_rule = KNOWN["chance_level"]
    failed = [c for c in report["checks"] if not c["pass"]]
    # a statistical check failed by chance: its statistic is only a little
    # above its threshold
    chance = [
        c["name"]
        for c in failed
        if (c["name"].startswith("ks ") or c["name"].endswith((" ks", " z-score")))
        and c["value"] <= chance_rule["value_at_most"] * c["threshold"]
    ]
    fails = []
    for name in (c["name"] for c in failed):
        if name in known:
            fails.append(("grid_rows", name))
        elif name in chance and len(chance) <= chance_rule["per_report_at_most"]:
            fails.append(("chance_level", name))
        else:
            fails.append((None, name))
    tally = Tally()
    tally.add(len(report["checks"]), fails)
    return tally


def above_record(seed, first_tallies):
    """Known defect classes that failed more often than recorded at this seed.

    first_tallies maps a pass kind (bulk, moment, check) to the Tally of its
    first pass.  Seeds without a record in known_defects.json give none.
    """
    record = KNOWN["counts_at_seed"].get(str(seed))
    if record is None:
        return []
    out = []
    for kind, tally in first_tallies.items():
        for cls, n in tally.by_class.items():
            allowed = record[kind].get(cls, 0)
            if cls != "unexpected" and n > allowed:
                out.append(f"{kind} pass at seed {seed}: {n} {cls} failures, {allowed} recorded")
    return out
