"""Command-line front end.

Subcommands: curve-info, scheme, count, bound, experiment.  Every
subcommand is a thin adapter over the library; stdout and output files
carry data, stderr carries diagnostics.

Exit codes: 0 success; 2 bad input: any ``ValueError`` (every agss error
reporting a bad argument or configuration is one), an unusable file or a
malformed INI file; 3 singular or malformed curve; 4 reconstruction from an
unqualified subset; 5 oracle disagreement (internal bug signal); 6 declared
DP (work or table size) or enumeration budget exceeded.  Commands raise;
``main`` assigns every code from one table, one row per failure family,
prints one ``error:`` line and lets any other exception propagate with its
traceback, such as the ``ArithmeticError`` bug signals ``CodeBasisError``
and ``ClosedFormError``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

from .curves import (
    AffinePoint,
    BadDegreeError,
    SingularCurveError,
    affine_points,
    format_curve_spec,
    group_structure,
    parse_curve_spec,
    point_count,
)
from .experiments import (
    CSV_HEADER,
    MODES,
    PRNG_NAME,
    ExperimentConfig,
    _round_half_down,
    bound_theorem3,
    bound_theorem4,
    hasse_checks,
    sweep_csv,
    sweep_rows,
    without_digit_limit,
)
from .groups import (
    BudgetExceededError,
    check_dp_budget,
    li_wan_bound_check,
    parse_group_spec,
)
from .scheme import (
    ORACLE_NAMES,
    NotQualifiedError,
    OracleDisagreementError,
    ShareVector,
    is_qualified_clx,
    is_qualified_dual,
    is_qualified_kernel,
    reconstruct,
    scheme_build,
    share,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CURVE = 3
EXIT_NOT_QUALIFIED = 4
EXIT_DISAGREEMENT = 5
EXIT_BUDGET = 6

# exit code per failure family: main looks up the most specific listed class
# of what a command raises; anything unlisted is a bug and keeps its traceback
_EXIT_CODES = {
    SingularCurveError: EXIT_CURVE,
    BadDegreeError: EXIT_CURVE,
    NotQualifiedError: EXIT_NOT_QUALIFIED,
    OracleDisagreementError: EXIT_DISAGREEMENT,
    BudgetExceededError: EXIT_BUDGET,
    ValueError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    configparser.Error: EXIT_PARSE,
}


def _split_ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _split_specs(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(";") if s.strip())


# (INI key, overriding flag, ExperimentConfig field, converter), one row per key
_CONFIG = (
    ("q", None, "q_values", _split_ints),
    ("curves", "curve", "curves", _split_specs),
    ("genus", None, "genus", int),
    ("delta", "delta", "delta", float),
    ("offsets", "t_offset", "offsets", _split_ints),
    ("mode", "mode", "mode", str),
    ("oracle", "oracle", "oracle", str),
    ("samples", "samples", "samples", int),
    ("seed", "seed", "seed", int),
    ("workers", "workers", "workers", int),
)


def _parse_subset(text: str, n: int) -> list[int]:
    """Comma-separated 1-based player indices -> 0-based list."""
    idx = [int(v) for v in text.split(",")] if text.strip() else []
    if any(not 1 <= i <= n for i in idx):
        raise ValueError(f"player indices must lie in 1..{n}")
    return [i - 1 for i in idx]


def _build_scheme_from_args(args) -> "tuple":
    curve = parse_curve_spec(args.curve)
    pts = affine_points(curve)
    if args.p0 is not None:
        x, y = (int(v) for v in args.p0.split(","))
        p = curve.field.p
        p0 = AffinePoint(x % p, y % p)
        players = tuple(pt for pt in pts if pt != p0)
        if len(players) == len(pts):
            raise ValueError(f"--p0 {args.p0} is not an affine point of the curve")
    else:
        p0, players = pts[0], pts[1:]
    if args.m is not None:
        m = args.m
    else:
        delta = args.delta if args.delta is not None else 0.5
        m = _round_half_down(delta * len(players))
    return scheme_build(curve, p0, players, m), curve


def cmd_curve_info(args) -> int:
    curve = parse_curve_spec(args.curve)
    report = hasse_checks(curve)
    print(f"curve={format_curve_spec(curve)}")
    print(f"p={curve.field.p}")
    print(f"genus={curve.genus}")
    print(f"points={point_count(curve)}")
    print(f"hasse_ok={str(report.ok).lower()}")
    if curve.genus == 1:
        factors = group_structure(curve).group.factors
        print("invariant_factors=" + ",".join(map(str, factors)))
        print("group=" + " x ".join(f"Z_{d}" for d in factors if d > 1))
    return EXIT_OK


def cmd_scheme(args) -> int:
    scheme, curve = _build_scheme_from_args(args)

    if args.action == "share":
        if args.secret is None or args.seed is None:
            raise ValueError("share requires --secret and --seed")
        print(share(scheme, args.secret, args.seed).to_csv_line())
        return EXIT_OK

    if args.action == "reconstruct":
        if args.subset is None or args.shares is None:
            raise ValueError("reconstruct requires --subset and --shares")
        subset = _parse_subset(args.subset, scheme.n)
        vec = ShareVector.from_csv_line(curve.field, args.shares)
        if len(vec.shares) != scheme.n:
            raise ValueError(f"share line has {len(vec.shares)} shares, scheme has {scheme.n} players")
        print(reconstruct(scheme, subset, [vec.shares[i] for i in subset]).value)
        return EXIT_OK

    if args.subset is None:
        raise ValueError("qualify requires --subset")
    subset = _parse_subset(args.subset, scheme.n)
    kernel = is_qualified_kernel(scheme, subset).qualified
    # a qualified kernel verdict comes with the dual system's solution as its
    # witness (OracleDisagreementError if there is none), so only an
    # unqualified one leaves the dual system to solve
    verdicts = {"kernel": kernel, "dual": kernel or is_qualified_dual(scheme, subset).qualified}
    if curve.genus == 1:
        verdicts["clx"] = is_qualified_clx(scheme, subset).qualified
    for name, q in verdicts.items():
        print(f"{name}={'Qualified' if q else 'Unqualified'}")
    if len(set(verdicts.values())) > 1:
        raise OracleDisagreementError("oracle disagreement: this is a bug in the library")
    return EXIT_OK


def _parse_point_set(group, text: str, t: int):
    """'full', 'full-minus:<el>;<el>', or explicit '<el>;<el>;...' where each
    element is a comma-separated residue tuple.  The size-t count's budget
    (``check_dp_budget``) is checked on the set's size before G is listed."""
    text = text.strip()
    if text == "full" or text.startswith("full-minus:"):
        removed = {_parse_element(group, e) for e in text[len("full-minus:"):].split(";") if e.strip()}
        check_dp_budget(group.order - len(removed), t, group.order)
        return [a for a in group.elements() if a not in removed]
    points = [_parse_element(group, e) for e in text.split(";") if e.strip()]
    check_dp_budget(len(points), t, group.order)
    return points


def _parse_element(group, text: str):
    vals = tuple(int(v) for v in text.split(","))
    return group.check(vals)


def cmd_count(args) -> int:
    group = parse_group_spec(args.group)
    points = _parse_point_set(group, args.pointset, args.t)
    target = _parse_element(group, args.b)
    report = li_wan_bound_check(group, points, args.t, target)
    print(f"count={report.count}")
    print(f"main_term={report.main_term!r}")
    print(f"deviation={report.deviation!r}")
    print(f"bound={report.bound!r}")
    print(f"holds={str(report.holds).lower()}")
    return EXIT_OK


def cmd_bound(args) -> int:
    needed = ("group_order", "phi") if args.theorem == "3" else ("q", "genus", "m", "c")
    missing = [f"--{name.replace('_', '-')}" for name in needed if getattr(args, name) is None]
    if missing:
        raise ValueError(f"theorem {args.theorem} requires {', '.join(missing)}")
    if args.theorem == "3":
        rep = bound_theorem3(args.n, args.t, args.group_order, args.phi)
    else:
        rep = bound_theorem4(args.q, args.genus, args.n, args.t, args.m, args.c)
    print(f"phi={rep.phi!r}")
    print(f"M={rep.m_value!r}")
    print(f"main_term={rep.main_term!r}")
    print(f"error_term={rep.error_term!r}")
    print(f"total={rep.total!r}")
    return EXIT_OK


def _load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    if "experiment" not in parser:
        raise ValueError("config file needs an [experiment] section")
    section = parser["experiment"]
    unknown = set(section) - {key for key, *_ in _CONFIG}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return dict(section)


def _experiment_config(args) -> ExperimentConfig:
    raw = _load_config(args.config) if args.config else {}
    for key, flag, _, _ in _CONFIG:
        if flag is not None and getattr(args, flag) is not None:
            raw[key] = getattr(args, flag)
    if raw.get("seed") in (None, ""):
        raise ValueError("experiment mode requires --seed (or seed= in the config)")
    return ExperimentConfig(**{field: convert(raw[key]) for key, _, field, convert in _CONFIG if key in raw})


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    if args.out is None:
        raise ValueError("experiment mode requires --out")
    if args.format == "json":
        rows = sweep_rows(config)
        payload = {
            "seed": config.seed,
            "prng": PRNG_NAME,
            "rows": [{k: row[k] for k in CSV_HEADER} for row in rows],
        }
        text = without_digit_limit(lambda: json.dumps(payload, indent=2)) + "\n"
    else:
        text = sweep_csv(config)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve-info", help="inspect a curve: points, bounds, group")
    p.add_argument("--curve", required=True, help="ec:p=..,a=..,b=.. or hyp:p=..,f=c0,c1,...")
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("scheme", help="share, reconstruct, or qualify on a scheme")
    p.add_argument("--curve", required=True)
    p.add_argument("--m", type=int, help="degree bound (default: round(delta * n))")
    p.add_argument("--delta", type=float, help="degree fraction when --m is absent")
    p.add_argument("--p0", help="override the secret position, as 'x,y'")
    p.add_argument("--action", required=True, choices=["share", "reconstruct", "qualify"])
    p.add_argument("--secret", type=int, help="secret value (share)")
    p.add_argument("--seed", type=int, help="PRNG seed (share)")
    p.add_argument("--subset", help="comma-separated 1-based player indices")
    p.add_argument("--shares", help="share line 'secret,s1,...,sn' (reconstruct)")
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("count", help="subset-sum count with its deviation bound")
    p.add_argument("--group", required=True, help="ab:d1,d2,...")
    p.add_argument("--pointset", default="full", help="'full', 'full-minus:<el>;..', or '<el>;<el>;..'")
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--b", required=True, help="target element, comma-separated residues")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bound", help="evaluate a theoretical proportion bound")
    p.add_argument("--theorem", required=True, choices=["3", "4"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--group-order", dest="group_order", type=int, help="point-group order (theorem 3)")
    p.add_argument("--phi", type=float, help="amplitude (theorem 3)")
    p.add_argument("--q", type=int, help="field size (theorem 4)")
    p.add_argument("--genus", type=int, help="curve genus (theorem 4)")
    p.add_argument("--m", type=int, help="degree bound (theorem 4)")
    p.add_argument("--c", type=int, help="rational points left out of the player set (theorem 4)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="run a sweep from a config file")
    p.add_argument("--config", help="INI file with an [experiment] section")
    p.add_argument("--curve", help="semicolon-separated explicit curve specs (overrides q list)")
    p.add_argument("--delta", type=float)
    p.add_argument("--t-offset", dest="t_offset", help="comma-separated m - t offsets")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--oracle", choices=ORACLE_NAMES)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
