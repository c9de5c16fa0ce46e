"""Command line interface to the distribution library.

Subcommands: ``eval`` (pdf/cdf/quantile at a point), ``grid`` (tabulate
pdf and cdf on an even grid), ``sample`` (reproducible draws),
``moments`` (summary moments as JSON), ``moment-grid`` (recompute the
reference moment grid and report deviations), ``check`` (run a named
verification suite).

Each family is declared once, as a name mapped to its class: the
class's dataclass fields are the family's parameter flags (a field
without a default is required, ``spec`` comes from ``--config``), and
the help epilog is generated from the same map.

Exit codes are fixed: 0 success, 1 check failure, 2 usage or parameter
error, 3 numerical failure.  Data goes to stdout, diagnostics to
stderr.  CSV output uses a header row, comma separators, 12 significant
digits, and LF line endings; JSON output is one object per record with
a stable key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields

import numpy as np

from .balakrishnan import GBSN, SNB, TBSN
from .betafamily import GB1, Beta, BetaHalfNormal, BetaNormal, Kumaraswamy
from .bsn import BetaSkewNormal, sample_rejection
from .checks import SUITES, report_json, run_suite
from .quadrature import IntegrationError, QuadratureSpec
from .reference import FIELDS, compare_grid
from .skewnormal import Normal, SkewNormal

# family name -> class; its dataclass fields are its parameter flags: a
# field without a default is a required flag, and `spec` is the --config
# quadrature spec, not a flag
_FAMILIES = {
    "normal": Normal,
    "sn": SkewNormal,
    "snb": SNB,
    "gbsn": GBSN,
    "tbsn": TBSN,
    "beta": Beta,
    "gb1": GB1,
    "kumaraswamy": Kumaraswamy,
    "bn": BetaNormal,
    "bhn": BetaHalfNormal,
    "bsn": BetaSkewNormal,
}
# the flags spelled other than "--" + field name; sn's location xi and
# scale psi take the --mu and --sigma of the other families
_RENAMED = {"lam": "--lambda", "lam1": "--lambda1", "lam2": "--lambda2", "xi": "--mu", "psi": "--sigma"}


def _params(cls):
    """(field name, flag, value parser, required) of each parameter of a family."""
    return [
        (f.name, _RENAMED.get(f.name, "--" + f.name), int if f.type == "int" else float, f.default is MISSING)
        for f in fields(cls)
        if f.name != "spec"
    ]


# every parameter flag, in order of first use, with its value parser
_FLAGS = {flag: kind for cls in _FAMILIES.values() for _, flag, kind, _ in _params(cls)}


def _family_help():
    lines = ["families and their parameter flags (brackets mark optional flags):"]
    for family, cls in _FAMILIES.items():
        params = _params(cls)
        required = [flag for _, flag, _, req in params if req]
        optional = [flag for _, flag, _, req in params if not req]
        if optional:
            required.append("[" + " ".join(optional) + "]")
        lines.append(f"  {family:<12} {' '.join(required)}".rstrip())
    lines.append("sn's --mu and --sigma set its location xi and scale psi.")
    return "\n".join(lines) + "\n"


def _fmt(value):
    """Format one number with 12 significant digits."""
    return f"{float(value):.12g}"


def _floats(record):
    return {k: float(v) for k, v in record.items()}


def _load_spec(path):
    """Parse a key=value config file into a QuadratureSpec, or None."""
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return QuadratureSpec.from_mapping(mapping)


def _make_dist(args, spec):
    """Validate the parameter flags for the chosen family and build it."""
    cls = _FAMILIES[args.family]
    params = _params(cls)
    kwargs = {}
    for name, flag, _, required in params:
        value = getattr(args, flag[2:])
        if value is not None:
            kwargs[name] = value
        elif required:
            raise ValueError(f"family {args.family} requires {flag}")
    taken = {flag for _, flag, _, _ in params}
    for flag in _FLAGS:
        if flag not in taken and getattr(args, flag[2:]) is not None:
            raise ValueError(f"family {args.family} does not take {flag}")
    if any(f.name == "spec" for f in fields(cls)):
        kwargs["spec"] = spec
    return cls(**kwargs)


def _cmd_eval(args):
    spec = _load_spec(args.config)
    dist = _make_dist(args, spec)
    if args.what == "pdf":
        value = dist.pdf(args.at)
    elif args.what == "cdf":
        value = dist.cdf(args.at)
    else:
        value = dist.quantile(args.at)
    print(_fmt(value))
    return 0


def _cmd_grid(args):
    spec = _load_spec(args.config)
    dist = _make_dist(args, spec)
    if not args.x_from < args.x_to:
        raise ValueError("--from must be strictly less than --to")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    xs = np.linspace(args.x_from, args.x_to, args.points)
    pdf = np.atleast_1d(dist.pdf(xs))
    cdf = np.atleast_1d(dist.cdf(xs))
    if args.format == "csv":
        print("x,pdf,cdf")
        for x, d, c in zip(xs, pdf, cdf):
            print(f"{_fmt(x)},{_fmt(d)},{_fmt(c)}")
    else:
        for x, d, c in zip(xs, pdf, cdf):
            print(json.dumps({"x": float(x), "pdf": float(d), "cdf": float(c)}))
    return 0


def _cmd_sample(args):
    spec = _load_spec(args.config)
    dist = _make_dist(args, spec)
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.method == "rejection":
        if args.family != "bsn":
            raise ValueError("rejection sampling is only available for family bsn")
        if dist.b != 1.0 or dist.a < 1.0 or not float(dist.a).is_integer():
            raise ValueError(
                "rejection sampling requires integer --a >= 1 and --b equal to 1"
            )
        batch = sample_rejection(dist.lam, int(dist.a), args.count, args.seed)
        values = dist.mu + dist.sigma * batch.values
    else:
        values = dist.sample(args.count, args.seed)
    if args.format == "csv":
        print("value")
        for v in values:
            print(_fmt(v))
    else:
        for v in values:
            print(json.dumps({"value": float(v)}))
    return 0


def _cmd_moments(args):
    spec = _load_spec(args.config)
    dist = _make_dist(args, spec)
    summary = dist.moments(spec)
    print(json.dumps(_floats(asdict(summary)), indent=2))
    return 0


def _cmd_moment_grid(args):
    spec = _load_spec(args.config)
    rows = compare_grid(spec)
    failed = 0
    for cmp in rows:
        if not cmp.passed:
            failed += 1
        record = {
            "a": cmp.row.a,
            "b": cmp.row.b,
            "lam": cmp.row.lam,
            "computed": _floats(asdict(cmp.computed)),
            "reference": {f: getattr(cmp.row, f) for f in FIELDS},
            "deviations": _floats(cmp.deviations),
            "asserted": cmp.asserted,
            "asserted_deviations": _floats(cmp.asserted_deviations),
            "tolerance": cmp.tolerance,
            "excluded": list(cmp.excluded),
            "pass": cmp.passed,
        }
        print(json.dumps(record))
    print(json.dumps({"rows": len(rows), "failed": failed, "pass": failed == 0}))
    return 0 if failed == 0 else 1


def _cmd_check(args):
    spec = _load_spec(args.config)
    report = run_suite(args.suite, seed=args.seed, spec=spec)
    sys.stdout.write(report_json(report))
    return 0 if report["passed"] else 1


def _add_config_flag(sub):
    sub.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="key=value file overriding quadrature defaults "
        "(abs_tol, rel_tol, truncation, max_subdivisions)",
    )


def _add_family_command(subs, name, help, func):
    """A subcommand that builds one family from --family and its parameter flags."""
    p = subs.add_parser(
        name,
        help=help,
        epilog=_family_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES), help="distribution family")
    for flag, kind in _FLAGS.items():
        p.add_argument(flag, type=kind, default=None, metavar="X")
    _add_config_flag(p)
    p.set_defaults(func=func)
    return p


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="betasn",
        description="Evaluate, tabulate, sample, and verify the beta "
        "skew-normal family of distributions.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_family_command(subs, "eval", "evaluate pdf, cdf, or quantile at a point", _cmd_eval)
    p.add_argument("--what", required=True, choices=("pdf", "cdf", "quantile"))
    p.add_argument("--at", required=True, type=float, metavar="X")

    p = _add_family_command(subs, "grid", "tabulate pdf and cdf on an even grid", _cmd_grid)
    p.add_argument("--from", dest="x_from", required=True, type=float, metavar="X")
    p.add_argument("--to", dest="x_to", required=True, type=float, metavar="X")
    p.add_argument("--points", required=True, type=int, metavar="K")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = _add_family_command(subs, "sample", "draw reproducible samples", _cmd_sample)
    p.add_argument("--count", required=True, type=int, metavar="K", help="number of draws")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument(
        "--method",
        choices=("inverse", "rejection"),
        default="inverse",
        help=(
            "inverse is the quantile transform, or for bsn, bn, bhn, beta, gb1"
            " and kumaraswamy the base quantile of a Beta(a, b) latent;"
            " rejection needs family bsn with integer --a >= 1 and --b 1"
        ),
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    _add_family_command(subs, "moments", "mean, sd, skewness, kurtosis as JSON", _cmd_moments)

    p = subs.add_parser(
        "moment-grid",
        help="recompute the reference moment grid and report deviations",
        allow_abbrev=False,
    )
    _add_config_flag(p)
    p.set_defaults(func=_cmd_moment_grid)

    p = subs.add_parser(
        "check",
        help="run a named verification suite and print its JSON report",
        allow_abbrev=False,
    )
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--seed", type=int, default=0, metavar="S")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
