"""Gray-zone experiments: qualified-subset proportions and theoretical bounds.

For elliptic schemes the proportion of qualified size-t complements is
computed *exactly* from subset-sum counts over the point group G (t = m
maps to counting complements summing to the identity, t = m - 1 to the
complement of those summing to the inverse of P0).  The players are G minus
the identity and P0, so the counts come from the closed form for the whole
group corrected for those two points (``groups.cofinite_subset_sum_counts``),
not from a dynamic program over the players; a scheme with fewer players
raises ``UnsupportedExclusionError``.  The counts and the amplitude need only
the point group, P0 and n, never the players' group elements; an exact sweep
takes n from the point count and P0 from the first affine point
(``standard_layout``), so it lists no points and builds no code matrices.
For higher genus there is no group table, so proportions are estimated by
seeded Monte Carlo against a selectable qualification oracle, with Wilson
95% intervals.

Bound evaluation mirrors the two asymptotic statements: the genus-1 bound
1/N + C(M, t)/C(n, t), and the genus >= 2 expression combining the Weil
window for the Jacobian order, the effective-divisor-class cardinality
bound, and the falling-factorial ratio, all evaluated in log space.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .curves import (
    Curve,
    Point,
    SingularCurveError,
    affine_points,
    enumerate_points,  # unused here, but bench/probes.py wraps agss.experiments.enumerate_points
    format_curve_spec,
    group_structure,
    hyperelliptic_curve,
    iter_points,
    parse_curve_spec,
    point_count,
)
from .groups import (
    AbelianGroup,
    Character,
    GroupElement,
    TrivialCharacterError,
    UnsupportedExclusionError,
    amplitude,  # unused here, but bench/probes.py wraps agss.experiments.amplitude
    char_sum,
    cofinite_amplitude,
    cofinite_subset_sum_counts,
    li_wan_m,
    subset_sum_table,  # unused here, but bench/probes.py wraps agss.experiments.subset_sum_table
)
from .scheme import (
    DECIDE_BYTES,
    ORACLE_NAMES,
    SchemeInstance,
    _decide,
    check_degree,
    enumerate_access,
    group_law_rule,
    scheme_build,
)

PRNG_NAME = "pcg64"
MC_CHUNK = 1024
WILSON_Z = 1.96

CSV_HEADER = [
    "q", "curve", "g", "n", "m", "t", "offset", "mode", "oracle",
    "samples", "qualified", "p_hat", "ci_lo", "ci_hi", "bound",
]

MODES = ("exact", "exhaustive", "montecarlo")


class UnsupportedOffsetError(ValueError):
    """Exact elliptic proportions exist only for t in {m-1, m}."""


class RegimeMismatchError(ValueError):
    """The genus-g bound applies only inside the gray zone 0 <= m - t < 2g."""


@dataclass(frozen=True)
class ProportionEstimate:
    """Exact or sampled proportion of qualified size-t complements."""

    qualified: int
    denominator: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    exact: bool

    @classmethod
    def from_count(cls, qualified: int, total: int) -> "ProportionEstimate":
        """The exact proportion qualified / total, its interval that one point."""
        p_hat = float(Fraction(qualified, total))
        return cls(qualified, total, p_hat, p_hat, p_hat, True)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated theoretical bound: main_term + error_term = total."""

    phi: float
    m_value: float
    main_term: float
    error_term: float
    total: float


@dataclass(frozen=True)
class HasseReport:
    point_count: int
    genus: int
    field_size: int
    count_ok: bool
    jacobian_ok: Optional[bool]

    @property
    def ok(self) -> bool:
        return self.count_ok and self.jacobian_ok is not False


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval; stays valid at proportions near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # clamp so rounding never pushes the interval off [0, 1] or past p-hat
    lo = min(max(0.0, center - half), phat)
    hi = max(min(1.0, center + half), phat)
    return (lo, hi)


# --- exact proportions (genus 1) -------------------------------------------

def _exact_estimates(group: AbelianGroup, p0: GroupElement, n: int, m: int, ts: Sequence[int]) -> dict:
    """Exact proportions from the point group, P0's element and n alone: the
    players are the n points of E(F_q) other than O and P0, so no player's
    group element and no code matrix is read.  ``scheme.group_law_rule``
    leaves a count to make only at t in {m - 1, m}."""
    ts = sorted(set(ts))
    rules = [group_law_rule(group, p0, m, t) for t in ts]
    for t, rule in zip(ts, rules):
        if isinstance(rule, bool):
            raise UnsupportedOffsetError(f"exact proportion defined for t in {{m-1, m}}, got t={t}, m={m}")
    # the players are distinct affine points other than P0, so n = #E - 2 means all of them
    if n != group.order - 2:
        raise UnsupportedExclusionError(
            f"the players must be every point but O and P0: n = {n}, #E - 2 = {group.order - 2}"
        )
    cells = [(t, target) for t, (target, _) in zip(ts, rules)]
    counts = cofinite_subset_sum_counts(group, [group.identity, p0], cells)
    out = {}
    for t, (_, hit), count in zip(ts, rules, counts):
        total = math.comb(n, t)
        out[t] = ProportionEstimate.from_count(count if hit else total - count, total)
    return out


def exact_proportion_elliptic(scheme: SchemeInstance, t: int) -> ProportionEstimate:
    """Exact qualified proportion at t in {m-1, m} via the subset-sum count.

    The players must be every point of E(F_q) but O and P0, as in
    ``standard_scheme``; any other player set raises
    ``groups.UnsupportedExclusionError``.
    """
    table = group_structure(scheme.curve)
    return _exact_estimates(table.group, table.log(scheme.p0), scheme.n, scheme.m, [t])[t]


# --- Monte Carlo -------------------------------------------------------------

def _draw_complements(rng: np.random.Generator, n: int, t: int, count: int) -> np.ndarray:
    """``count`` uniform size-t subsets of range(n) as a count x t int64
    array, each the head of a partial Fisher-Yates shuffle.

    The shuffles run on all samples of a piece at once: t vectorised swap
    steps on a piece x n array.  A piece is as many samples as
    ``DECIDE_BYTES`` of int64 swap targets hold, and one ``integers`` call
    draws its targets in the order that one call per sample would, so the
    stream does not depend on the piece size.
    """
    block = np.empty((count, t), dtype=np.int64)
    if not t:
        return block
    lows = np.arange(t, dtype=np.int64)
    piece = max(DECIDE_BYTES // (8 * t), 1)
    for start in range(0, count, piece):
        size = min(piece, count - start)
        js = rng.integers(np.broadcast_to(lows, (size, t)), n)
        arr = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (size, 1))
        at = np.arange(size)
        for i in range(t):
            j = js[:, i]
            head = arr[:, i].copy()
            arr[:, i] = arr[at, j]
            arr[at, j] = head
        block[start:start + size] = arr[:, :t]
    return block


def _mc_chunk(scheme: SchemeInstance, t: int, seed_seq: tuple[int, ...], count: int, oracle: str) -> int:
    """Qualified samples among ``count`` uniform size-t complements of the
    players, all drawn first (``_draw_complements``) and then decided by one
    ``_decide`` call, which splits them into stacks of at most
    ``DECIDE_BYTES``."""
    block = _draw_complements(np.random.default_rng(seed_seq), scheme.n, t, count)
    return int(_decide(scheme, block, oracle).sum())


def mc_proportion(
    scheme: SchemeInstance,
    t: int,
    samples: int,
    seed,
    oracle: str = "kernel",
    workers: int = 1,
) -> ProportionEstimate:
    """Sampled qualified proportion over uniform size-t complements.

    The sample budget is split into fixed-size chunks seeded by
    (seed, chunk index), so results do not depend on the worker count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= t <= scheme.n:
        raise ValueError(f"t={t} out of range 0..{scheme.n}")
    base = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    sizes = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        sizes.append(samples % MC_CHUNK)
    tasks = [(scheme, t, base + (ci,), sz, oracle) for ci, sz in enumerate(sizes)]
    if workers > 1 and len(tasks) > 1:
        # imported here: the pool pulls in multiprocessing, socket and
        # subprocess, which a serial sweep should not pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(_mc_chunk, *zip(*tasks)))
    else:
        hits = sum(_mc_chunk(*task) for task in tasks)
    lo, hi = wilson_interval(hits, samples)
    return ProportionEstimate(hits, samples, hits / samples, lo, hi, False)


# --- theoretical bounds -------------------------------------------------------

def _li_wan_ratio(n: int, t: int, phi: float) -> tuple[float, float]:
    """(M, C(M, t)/C(n, t)) for amplitude ``phi``: the ratio is the product
    of (M - i)/(n - i) over i < t, summed in log space, and 0 once a factor
    M - i vanishes; t = 0 gives (0, 1)."""
    if not t:
        return 0.0, 1.0
    m_value = li_wan_m(n, t, phi)
    log_ratio = 0.0
    for i in range(t):
        num = m_value - i
        if num <= 0:
            return m_value, 0.0
        log_ratio += math.log(num) - math.log(n - i)
    return m_value, math.exp(log_ratio)


def bound_theorem3(n: int, t: int, group_order: int, phi: float) -> BoundReport:
    """1/N + C(M, t)/C(n, t), the genus-1 bound on the t = m proportion."""
    if not 0 <= t <= n:
        raise ValueError(f"subset size t={t} out of range 0..{n}")
    if not 0 <= phi <= n:
        raise ValueError(f"amplitude {phi} outside [0, {n}]")
    if group_order < 1:
        raise ValueError(f"group order must be >= 1, got {group_order}")
    main = 1.0 / group_order
    m_value, err = _li_wan_ratio(n, t, phi)
    return BoundReport(phi, m_value, main, err, main + err)


def bound_theorem4(q: int, genus: int, n: int, t: int, m: int, c: int) -> BoundReport:
    """The genus-g bound across the gray zone 0 <= d = m - t < 2g.

    Below g it bounds the qualified proportion and is evaluated at degree d;
    from g on it bounds the *unqualified* proportion and is evaluated at the
    residual degree 2g - 1 - d.  The amplitude is estimated by the Weil value
    (2g - 2) sqrt(q) + c, where c is the number of rational points left out
    of the player set.
    """
    d = m - t
    if not 0 <= d < 2 * genus:
        raise RegimeMismatchError(f"need 0 <= m - t < 2g, got m-t={d}, g={genus}")
    if d >= genus:
        d = 2 * genus - 1 - d
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if not 0 <= t <= n:
        raise ValueError(f"subset size t={t} out of range 0..{n}")
    sq = math.sqrt(q)
    phi = (2 * genus - 2) * sq + c
    factor = 2 * genus * sq / (sq - 1) - q / (q - 1)
    scale = q ** (-(genus - d))
    lead = scale * factor
    m_value, ratio = _li_wan_ratio(n, t, min(phi, float(n)))
    tail = (sq + 1) ** (2 * genus) * scale * factor * ratio
    return BoundReport(phi, m_value, lead, tail, lead + tail)


# --- geometric sanity checks ---------------------------------------------------

def hasse_checks(curve: Curve) -> HasseReport:
    """Verify the rational-point window, plus the genus-1 Jacobian window."""
    q = curve.field.p
    g = curve.genus
    count = point_count(curve)
    # |count - (q + 1)| <= 2 g sqrt(q), checked exactly on integers
    diff = count - (q + 1)
    count_ok = diff * diff <= 4 * g * g * q
    # Jac(E) = E(F_q), so the Jacobian window (sqrt(q) -+ 1)^2 is the Hasse window
    jacobian_ok = count_ok if g == 1 else None
    return HasseReport(count, g, q, count_ok, jacobian_ok)


def curve_char_sum(table, chi: Character, points) -> complex:
    """Character sum over curve points through their group coordinates."""
    if chi.is_trivial:
        raise TrivialCharacterError("the trivial character is excluded")
    return char_sum(table.group, chi, table.logs(points))


# --- deterministic experiment setup ---------------------------------------------

def find_hyperelliptic_curve(q: int, genus: int = 2) -> Curve:
    """First a >= 1 making y^2 = x^(2g+1) + x + a squarefree over F_q."""
    deg = 2 * genus + 1
    # an invalid q still gets one candidate, so hyperelliptic_curve rejects it loudly
    for a in range(1, max(q, 2)):
        coeffs = [a, 1] + [0] * (deg - 2) + [1]
        try:
            return hyperelliptic_curve(q, coeffs)
        except SingularCurveError:
            continue
    raise SingularCurveError(f"no x^{deg} + x + a is squarefree over F_{q}")


def find_elliptic_curve(q: int) -> Curve:
    """``find_hyperelliptic_curve(q, 1)``: the first a >= 1 with
    4 + 27a^2 != 0 mod q gives the curve y^2 = x^3 + x + a."""
    return find_hyperelliptic_curve(q, 1)


def _round_half_down(x: float) -> int:
    return math.ceil(x - 0.5)


def standard_layout(curve: Curve, delta: float) -> tuple[Point, int, int]:
    """(P0, n, m) of the standard layout: P0 = lexicographically smallest
    affine point, the n players = the rest, m = round(delta * n) with ties
    rounded down.  Read off ``point_count`` and the first affine point of
    ``iter_points``, so no point list is built; ``m`` passes
    ``scheme_build``'s degree check (``check_degree``)."""
    count = point_count(curve)
    if count - 1 < 4:
        raise ValueError("curve has too few affine points for a scheme")
    p0 = next(islice(iter_points(curve), 1, None))
    n = count - 2
    m = _round_half_down(delta * n)
    check_degree(curve, n, m)
    return p0, n, m


def standard_points(curve: Curve, delta: float) -> tuple[Point, tuple[Point, ...], int]:
    """``standard_layout`` with the players listed; the layout passes
    ``scheme_build``'s checks, and no code matrix is built."""
    p0, _, m = standard_layout(curve, delta)
    return p0, affine_points(curve)[1:], m


def standard_scheme(curve: Curve, delta: float) -> SchemeInstance:
    """The scheme on ``standard_points(curve, delta)``."""
    return scheme_build(curve, *standard_points(curve, delta))


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible sweep description; all randomness flows from ``seed``."""

    seed: int
    q_values: tuple[int, ...] = ()
    curves: tuple[str, ...] = ()
    genus: int = 1
    delta: float = 0.5
    offsets: tuple[int, ...] = (0, 1)
    mode: str = "exact"
    oracle: str = "kernel"
    samples: int = 20000
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "q_values", tuple(int(q) for q in self.q_values))
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "offsets", tuple(int(o) for o in self.offsets))
        if not 0 < self.delta < 2 / 3:
            raise ValueError(f"delta must lie strictly in (0, 2/3), got {self.delta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.oracle not in ORACLE_NAMES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        # genus only picks the searched curves; sweep_rows checks an explicit
        # curve's offsets against that curve's own genus
        top = 2 * self.genus if not self.curves else math.inf
        for off in self.offsets:
            if not 0 <= off < top:
                raise ValueError(f"offset {off} outside the gray zone [0, {top})")


def _config_curves(config: ExperimentConfig) -> list[Curve]:
    if config.curves:
        return [parse_curve_spec(s) for s in config.curves]
    return [find_hyperelliptic_curve(q, config.genus) for q in config.q_values]


def sweep_rows(config: ExperimentConfig) -> list[dict]:
    """One output row per (curve, offset); deterministic for a fixed config."""
    rows = []
    for curve in _config_curves(config):
        q = curve.field.p
        g = curve.genus
        for off in config.offsets:
            if off >= 2 * g:
                raise ValueError(f"offset {off} outside the gray zone for genus {g}")
        # exact mode reads only the point count and the point group, so it
        # lists no points and builds no code matrices
        if config.mode == "exact":
            p0, n, m = standard_layout(curve, config.delta)
        else:
            scheme = standard_scheme(curve, config.delta)
            p0, n, m = scheme.p0, scheme.n, scheme.m
        c = point_count(curve) - n

        if g == 1 or config.mode == "exact":
            # the players are the group minus O and P0 (standard_layout); a
            # curve of genus >= 2 has no point group (WrongGenusError)
            table = group_structure(curve)
            group, p0_element = table.group, table.log(p0)
            phi = cofinite_amplitude(group, [group.identity, p0_element])

        estimates: dict[int, ProportionEstimate] = {}
        ts = [m - off for off in config.offsets]
        if config.mode == "exact":
            estimates = _exact_estimates(group, p0_element, n, m, ts)
        else:
            for t in ts:
                if config.mode == "exhaustive":
                    ac = enumerate_access(scheme, t, config.oracle)
                    estimates[t] = ProportionEstimate.from_count(ac.qualified, ac.total)
                else:
                    estimates[t] = mc_proportion(
                        scheme, t, config.samples, (config.seed, q, t),
                        config.oracle, config.workers,
                    )

        for off in config.offsets:
            t = m - off
            est = estimates[t]
            if g == 1:
                bound = bound_theorem3(n, t, group.order, phi).total
            else:
                bound = bound_theorem4(q, g, n, t, m, c).total
            rows.append({
                "q": q,
                "curve": format_curve_spec(curve),
                "g": g,
                "n": n,
                "m": m,
                "t": t,
                "offset": off,
                "mode": config.mode,
                "oracle": config.oracle,
                "samples": est.denominator,
                "qualified": est.qualified,
                "p_hat": est.p_hat,
                "ci_lo": est.ci_lo,
                "ci_hi": est.ci_hi,
                "bound": bound,
            })
    return rows


def sweep_csv(config: ExperimentConfig) -> str:
    """Render sweep rows as CSV text; byte-identical for identical configs."""
    rows = sweep_rows(config)
    buf = io.StringIO()
    buf.write(f"# seed={config.seed} prng={PRNG_NAME} version={__version__}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(without_digit_limit(lambda: [[_format_cell(row[k]) for k in CSV_HEADER] for row in rows]))
    return buf.getvalue()


def without_digit_limit(render: Callable):
    """``render()`` with Python's int-to-str digit limit lifted, and restored
    after, also on error: exact counts pass its 4300 digits near q = 14 300."""
    import sys

    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before Python 3.10.7
        return render()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render()
    finally:
        sys.set_int_max_str_digits(limit)


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)
