"""Command-line front end.

Subcommands: curve-info, scheme, count, bound, experiment.  Every
subcommand is a thin adapter over the library; stdout and output files
carry data, stderr carries diagnostics.

Exit codes: 0 success, 2 parse/config error, 3 singular or malformed
curve, 4 reconstruction from an unqualified subset, 5 oracle disagreement
(internal bug signal), 6 declared DP/sample budget exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

from .curves import (
    AffinePoint,
    BadDegreeError,
    EllipticCurve,
    SingularCurveError,
    affine_points,
    enumerate_points,
    format_curve_spec,
    group_structure,
    parse_curve_spec,
)
from .experiments import (
    CSV_HEADER,
    MODES,
    PRNG_NAME,
    ExperimentConfig,
    RegimeMismatchError,
    UnsupportedOffsetError,
    _round_half_down,
    bound_theorem3,
    bound_theorem4,
    hasse_checks,
    sweep_csv,
    sweep_rows,
)
from .groups import (
    BudgetExceededError,
    InstanceTooLargeError,
    li_wan_bound_check,
    parse_group_spec,
)
from .scheme import (
    ORACLE_NAMES,
    DegreeOutOfRangeError,
    DuplicatePointError,
    NotQualifiedError,
    WrongGenusError,
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

_CONFIG_KEYS = {
    "q", "curves", "genus", "delta", "offsets", "mode", "oracle",
    "samples", "seed", "workers",
}


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _parse_subset(text: str) -> list[int]:
    """Comma-separated 1-based player indices -> 0-based list."""
    if not text.strip():
        return []
    idx = [int(v) for v in text.split(",")]
    if any(i < 1 for i in idx):
        raise ValueError("player indices are 1-based")
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
        m = int(args.m)
    else:
        delta = args.delta if args.delta is not None else 0.5
        m = _round_half_down(delta * len(players))
    return scheme_build(curve, p0, players, m), curve


def cmd_curve_info(args) -> int:
    try:
        curve = parse_curve_spec(args.curve)
    except (SingularCurveError, BadDegreeError) as exc:
        _err(str(exc))
        return EXIT_CURVE
    except ValueError as exc:
        _err(str(exc))
        return EXIT_PARSE
    pts = enumerate_points(curve)
    report = hasse_checks(curve)
    print(f"curve={format_curve_spec(curve)}")
    print(f"p={curve.field.p}")
    print(f"genus={curve.genus}")
    print(f"points={len(pts)}")
    print(f"hasse_ok={str(report.ok).lower()}")
    if isinstance(curve, EllipticCurve):
        factors = group_structure(curve).group.factors
        print("invariant_factors=" + ",".join(map(str, factors)))
        print("group=" + " x ".join(f"Z_{d}" for d in factors if d > 1))
    return EXIT_OK


def cmd_scheme(args) -> int:
    try:
        scheme, curve = _build_scheme_from_args(args)
    except (SingularCurveError, BadDegreeError) as exc:
        _err(str(exc))
        return EXIT_CURVE
    except (ValueError, DegreeOutOfRangeError, DuplicatePointError) as exc:
        _err(str(exc))
        return EXIT_PARSE

    if args.action == "share":
        if args.secret is None or args.seed is None:
            _err("share requires --secret and --seed")
            return EXIT_PARSE
        vec = share(scheme, int(args.secret), int(args.seed))
        print(vec.to_csv_line())
        return EXIT_OK

    if args.action == "reconstruct":
        if args.subset is None or args.shares is None:
            _err("reconstruct requires --subset and --shares")
            return EXIT_PARSE
        try:
            subset = _parse_subset(args.subset)
        except ValueError as exc:
            _err(str(exc))
            return EXIT_PARSE
        try:
            vec = ShareVector.from_csv_line(curve.field, args.shares)
        except ValueError as exc:
            _err(f"bad share line: {exc}")
            return EXIT_PARSE
        if len(vec.shares) != scheme.n:
            _err(f"share line has {len(vec.shares)} shares, scheme has {scheme.n} players")
            return EXIT_PARSE
        try:
            secret = reconstruct(scheme, subset, [vec.shares[i] for i in subset])
        except NotQualifiedError as exc:
            _err(str(exc))
            return EXIT_NOT_QUALIFIED
        except (ValueError, IndexError) as exc:
            _err(str(exc))
            return EXIT_PARSE
        print(secret.value)
        return EXIT_OK

    if args.action == "qualify":
        if args.subset is None:
            _err("qualify requires --subset")
            return EXIT_PARSE
        try:
            subset = _parse_subset(args.subset)
        except ValueError as exc:
            _err(str(exc))
            return EXIT_PARSE
        try:
            verdicts = {
                "kernel": is_qualified_kernel(scheme, subset).qualified,
                "dual": is_qualified_dual(scheme, subset).qualified,
            }
            if isinstance(curve, EllipticCurve):
                verdicts["clx"] = is_qualified_clx(scheme, subset).qualified
        except ValueError as exc:
            _err(str(exc))
            return EXIT_PARSE
        for name, q in verdicts.items():
            print(f"{name}={'Qualified' if q else 'Unqualified'}")
        if len(set(verdicts.values())) > 1:
            _err("oracle disagreement: this is a bug in the library")
            return EXIT_DISAGREEMENT
        return EXIT_OK

    _err(f"unknown action {args.action!r}")
    return EXIT_PARSE


def _parse_point_set(group, text: str):
    """'full', 'full-minus:<el>;<el>', or explicit '<el>;<el>;...' where each
    element is a comma-separated residue tuple."""
    text = text.strip()
    if text == "full":
        return list(group.elements())
    if text.startswith("full-minus:"):
        removed = {_parse_element(group, e) for e in text[len("full-minus:"):].split(";") if e.strip()}
        return [a for a in group.elements() if a not in removed]
    return [_parse_element(group, e) for e in text.split(";") if e.strip()]


def _parse_element(group, text: str):
    vals = tuple(int(v) for v in text.split(","))
    return group.check(vals)


def cmd_count(args) -> int:
    try:
        group = parse_group_spec(args.group)
        points = _parse_point_set(group, args.pointset)
        target = _parse_element(group, args.b)
        t = int(args.t)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_PARSE
    try:
        report = li_wan_bound_check(group, points, t, target)
    except BudgetExceededError as exc:
        _err(str(exc))
        return EXIT_BUDGET
    print(f"count={report.count}")
    print(f"main_term={report.main_term!r}")
    print(f"deviation={report.deviation!r}")
    print(f"bound={report.bound!r}")
    print(f"holds={str(report.holds).lower()}")
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        if args.theorem == "3":
            rep = bound_theorem3(int(args.n), int(args.t), int(args.group_order), float(args.phi))
        else:
            rep = bound_theorem4(
                int(args.q), int(args.genus), int(args.n), int(args.t), int(args.m), int(args.c)
            )
    except (TypeError, ValueError) as exc:
        _err(str(exc))
        return EXIT_PARSE
    except RegimeMismatchError as exc:
        _err(str(exc))
        return EXIT_PARSE
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
    unknown = set(section) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return dict(section)


def _experiment_config(args) -> ExperimentConfig:
    raw = _load_config(args.config) if args.config else {}

    def override(key, flag):
        if flag is not None:
            raw[key] = flag

    override("curves", args.curve)
    override("delta", args.delta)
    override("offsets", args.t_offset)
    override("mode", args.mode)
    override("oracle", args.oracle)
    override("samples", args.samples)
    override("seed", args.seed)
    override("workers", args.workers)

    if "seed" not in raw or raw["seed"] in (None, ""):
        raise ValueError("experiment mode requires --seed (or seed= in the config)")

    def split_ints(text):
        return tuple(int(v) for v in str(text).split(",") if str(v).strip())

    kwargs = {"seed": int(raw["seed"])}
    if "q" in raw:
        kwargs["q_values"] = split_ints(raw["q"])
    if "curves" in raw and raw["curves"]:
        kwargs["curves"] = tuple(s.strip() for s in str(raw["curves"]).split(";") if s.strip())
    if "genus" in raw:
        kwargs["genus"] = int(raw["genus"])
    if "delta" in raw:
        kwargs["delta"] = float(raw["delta"])
    if "offsets" in raw:
        kwargs["offsets"] = split_ints(raw["offsets"])
    if "mode" in raw:
        kwargs["mode"] = str(raw["mode"])
    if "oracle" in raw:
        kwargs["oracle"] = str(raw["oracle"])
    if "samples" in raw:
        kwargs["samples"] = int(raw["samples"])
    if "workers" in raw:
        kwargs["workers"] = int(raw["workers"])
    return ExperimentConfig(**kwargs)


def cmd_experiment(args) -> int:
    try:
        config = _experiment_config(args)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_PARSE
    if args.out is None:
        _err("experiment mode requires --out")
        return EXIT_PARSE
    try:
        if args.format == "json":
            rows = sweep_rows(config)
            payload = {
                "seed": config.seed,
                "prng": PRNG_NAME,
                "rows": [{k: row[k] for k in CSV_HEADER} for row in rows],
            }
            text = json.dumps(payload, indent=2) + "\n"
        else:
            text = sweep_csv(config)
    except (BudgetExceededError, InstanceTooLargeError) as exc:
        _err(str(exc))
        return EXIT_BUDGET
    except (SingularCurveError, BadDegreeError) as exc:
        _err(str(exc))
        return EXIT_CURVE
    except (ValueError, DegreeOutOfRangeError, WrongGenusError, UnsupportedOffsetError) as exc:
        _err(str(exc))
        return EXIT_PARSE
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
