"""Plane curve models over prime fields with one smooth point at infinity.

Two families:

* short Weierstrass elliptic curves ``y^2 = x^3 + a x + b`` (genus 1), which
  additionally carry the chord-tangent group law; ``group_structure``
  presents their point group as an ``AbelianGroup`` with a full
  discrete-log table;
* odd-degree hyperelliptic curves ``y^2 = f(x)`` with ``deg f = 2g + 1``
  (genus g >= 2), used purely through linear algebra downstream.

Fixing the distinguished pole point at infinity makes the space of functions
with pole order at most m a clean span of monomials x^i y^j (j in {0, 1}),
which is what the code constructions downstream consume.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Union

from .field import PrimeField
from .groups import AbelianGroup


class SingularCurveError(Exception):
    """The supplied coefficients describe a singular curve."""


class BadDegreeError(Exception):
    """Hyperelliptic input of even or too-small degree."""


class PointNotOnCurveError(Exception):
    """A point fails the curve equation."""


class EvalAtInfinityError(Exception):
    """Function evaluation requested at the point at infinity."""


class PointAtInfinity:
    """The unique point at infinity; compares equal to any other instance."""

    __slots__ = ()

    def __repr__(self):
        return "Infinity"

    def __eq__(self, other):
        return isinstance(other, PointAtInfinity)

    def __hash__(self):
        return hash("agss.curves.PointAtInfinity")


INFINITY = PointAtInfinity()


@dataclass(frozen=True)
class AffinePoint:
    """An affine point; coordinates are canonical residues in [0, p)."""

    x: int
    y: int

    def __repr__(self):
        return f"({self.x}, {self.y})"


Point = Union[AffinePoint, PointAtInfinity]


def is_infinity(pt: Point) -> bool:
    return isinstance(pt, PointAtInfinity)


# --- modular square roots ---------------------------------------------------

def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion: 1 for nonzero squares, -1 for non-squares, 0 for 0."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int):
    """Tonelli-Shanks square root mod an odd prime; canonical (smaller) root.

    Returns None when a is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


# --- polynomial helpers (coefficient lists, low degree first) ----------------

def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_deriv(f, p):
    return _poly_trim([i * f[i] % p for i in range(1, len(f))])


def _poly_mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    while len(f) - 1 >= dg and _poly_trim(f):
        d = len(f) - 1
        coef = f[-1] * inv % p
        for i in range(dg + 1):
            f[d - dg + i] = (f[d - dg + i] - coef * g[i]) % p
        f = _poly_trim(f)
    return f


def _poly_gcd(f, g, p):
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        f, g = g, _poly_mod(f, g, p)
    return f


# --- curve models ------------------------------------------------------------
#
# Coefficients and coordinates are plain ints reduced into [0, p); the curve's
# ``field`` only names p.

class _PlaneModel:
    """Point test shared by the models y^2 = rhs(x)."""

    def contains(self, pt: Point) -> bool:
        if is_infinity(pt):
            return True
        p = self.field.p
        return 0 <= pt.x < p and 0 <= pt.y < p and pt.y * pt.y % p == self.rhs(pt.x)


@dataclass(frozen=True)
class EllipticCurve(_PlaneModel):
    """y^2 = x^3 + a x + b over F_p, nonsingular (4a^3 + 27b^2 != 0)."""

    field: PrimeField
    a: int
    b: int

    def __post_init__(self):
        p = self.field.p
        a, b = operator.index(self.a) % p, operator.index(self.b) % p
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if (4 * pow(a, 3, p) + 27 * b * b) % p == 0:
            raise SingularCurveError(f"4a^3 + 27b^2 = 0 mod {p}")

    @property
    def genus(self) -> int:
        return 1

    def rhs(self, x: int) -> int:
        p = self.field.p
        return (pow(x, 3, p) + self.a * x + self.b) % p

    # group law -------------------------------------------------------------

    def neg(self, pt: Point) -> Point:
        self._require(pt)
        if is_infinity(pt):
            return INFINITY
        return AffinePoint(pt.x, -pt.y % self.field.p)

    def add(self, p1: Point, p2: Point) -> Point:
        self._require(p1)
        self._require(p2)
        return self._add_raw(p1, p2)

    def scalar_mul(self, k: int, pt: Point) -> Point:
        self._require(pt)
        if k < 0:
            k, pt = -k, self.neg(pt)
        acc: Point = INFINITY
        while k:
            if k & 1:
                acc = self._add_raw(acc, pt)
            pt = self._add_raw(pt, pt)
            k >>= 1
        return acc

    def _require(self, pt: Point):
        if not self.contains(pt):
            raise PointNotOnCurveError(f"{pt!r} is not on {format_curve_spec(self)}")

    def _add_raw(self, p1: Point, p2: Point) -> Point:
        if is_infinity(p1):
            return p2
        if is_infinity(p2):
            return p1
        p = self.field.p
        x1, y1 = p1.x, p1.y
        x2, y2 = p2.x, p2.y
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return INFINITY
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return AffinePoint(x3, y3)


@dataclass(frozen=True)
class HyperellipticCurve(_PlaneModel):
    """y^2 = f(x) with f squarefree of odd degree 2g + 1 >= 5; f low degree first."""

    field: PrimeField
    f: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        coeffs = tuple(operator.index(c) % p for c in self.f)
        object.__setattr__(self, "f", coeffs)
        deg = len(coeffs) - 1
        if deg < 3 or deg % 2 == 0:
            raise BadDegreeError(f"f must have odd degree >= 3, got degree {deg}")
        if coeffs[-1] == 0:
            raise BadDegreeError("leading coefficient of f is zero")
        if len(_poly_gcd(coeffs, _poly_deriv(coeffs, p), p)) != 1:
            raise SingularCurveError("f is not squarefree")

    @property
    def genus(self) -> int:
        return (len(self.f) - 2) // 2

    def rhs(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.f):
            acc = (acc * x + c) % p
        return acc


Curve = Union[EllipticCurve, HyperellipticCurve]


def elliptic_curve(p: int, a: int, b: int) -> EllipticCurve:
    return EllipticCurve(PrimeField(p), a, b)


def hyperelliptic_curve(p: int, coeffs: Iterable[int]) -> HyperellipticCurve:
    return HyperellipticCurve(PrimeField(p), tuple(coeffs))


@functools.lru_cache(maxsize=None)
def enumerate_points(curve: Curve) -> tuple[Point, ...]:
    """All rational points: infinity first, then affine points in (x, y) order.

    ``sqrt_mod`` returns the smaller root, so ascending x already gives that order.
    """
    p = curve.field.p
    pts: list[Point] = [INFINITY]
    for x in range(p):
        root = sqrt_mod(curve.rhs(x), p)
        if root is None:
            continue
        pts.append(AffinePoint(x, root))
        if root:
            pts.append(AffinePoint(x, p - root))
    return tuple(pts)


def affine_points(curve: Curve) -> tuple[AffinePoint, ...]:
    return tuple(pt for pt in enumerate_points(curve) if not is_infinity(pt))


# --- elliptic group structure ------------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _point_order(curve: EllipticCurve, pt: Point, group_order: int, primes) -> int:
    order = group_order
    for q in primes:
        while order % q == 0 and is_infinity(curve.scalar_mul(order // q, pt)):
            order //= q
    return order


@dataclass(eq=False)
class GroupTable:
    """An elliptic point group as ``group`` = Z_d1 x Z_d2 (d1 | d2, both
    factors kept even when d1 = 1) plus the discrete log of every point.

    ``dlog`` maps every rational point to its element of ``group``, so group
    sums of points reduce to componentwise modular addition.
    """

    curve: EllipticCurve
    group: AbelianGroup
    dlog: dict[Point, tuple[int, int]]

    def __post_init__(self):
        if (self.curve.field.p - 1) % self.group.factors[0] != 0:
            raise ValueError("d1 must divide p - 1")
        if len(self.dlog) != self.group.order:
            raise ValueError("dlog table is not a bijection")

    def log(self, pt: Point) -> tuple[int, int]:
        return self.dlog[pt]


@functools.lru_cache(maxsize=None)
def group_structure(curve: EllipticCurve) -> GroupTable:
    """Compute Z_d1 x Z_d2 with d1 | d2 and a complete discrete-log table.

    Exhaustive order computation plus a two-generator product table; intended
    for desk-scale groups, no point-counting shortcuts.  A cyclic group takes
    the identity as its first generator.
    """
    pts = enumerate_points(curve)
    n = len(pts)
    primes = sorted(_factorize(n))
    orders = {pt: _point_order(curve, pt, n, primes) for pt in pts}
    exponent = 1
    for o in orders.values():
        exponent = exponent * o // math.gcd(exponent, o)
    d2 = exponent
    d1 = n // d2

    g2 = next(pt for pt in pts if orders[pt] == d2)
    multiples = []
    q: Point = INFINITY
    for _ in range(d2):
        multiples.append(q)
        q = curve._add_raw(q, g2)
    for cand in pts:
        if orders[cand] != d1:
            continue
        dlog: dict[Point, tuple[int, int]] = {}
        base: Point = INFINITY
        ok = True
        for u in range(d1):
            for v, mv in enumerate(multiples):
                pt2 = curve._add_raw(base, mv)
                if pt2 in dlog:
                    ok = False
                    break
                dlog[pt2] = (u, v)
            if not ok:
                break
            base = curve._add_raw(base, cand)
        if ok and len(dlog) == n:
            return GroupTable(curve, AbelianGroup((d1, d2)), dlog)
    raise RuntimeError("no generator pair found; group structure computation failed")


# --- function space bases ----------------------------------------------------

@dataclass(frozen=True)
class MonomialBasis:
    """Monomials x^i y^j spanning the functions with pole order <= m at infinity.

    The pole order of x^i y^j is 2i + (2g+1)j; restricting j to {0, 1} and
    bounding the pole order yields a basis with pairwise distinct pole orders.
    """

    genus: int
    bound: int
    exponents: tuple[tuple[int, int], ...]

    def __len__(self):
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def pole_order(self, i: int, j: int) -> int:
        return 2 * i + (2 * self.genus + 1) * j

    @property
    def pole_orders(self) -> tuple[int, ...]:
        return tuple(self.pole_order(i, j) for i, j in self.exponents)


def rr_basis(curve: Curve, m: int) -> MonomialBasis:
    """Monomial basis of the degree-m pole space at infinity.

    For m >= 2g - 1 the basis has exactly m - g + 1 elements.
    """
    if m < 0:
        raise ValueError(f"pole bound must be nonnegative, got {m}")
    g = curve.genus
    w = 2 * g + 1
    pairs = [(i, 0) for i in range(m // 2 + 1)]
    pairs += [(i, 1) for i in range((m - w) // 2 + 1)] if m >= w else []
    pairs.sort(key=lambda ij: 2 * ij[0] + w * ij[1])
    return MonomialBasis(g, m, tuple(pairs))


def eval_basis(curve: Curve, basis: MonomialBasis, pt: Point) -> tuple[int, ...]:
    """Evaluate every basis monomial at an affine point; values reduced mod p."""
    if is_infinity(pt):
        raise EvalAtInfinityError("evaluation points must be affine")
    if not curve.contains(pt):
        raise PointNotOnCurveError(f"{pt!r} is not on the curve")
    p = curve.field.p
    x, y = pt.x, pt.y
    max_i = max((i for i, _ in basis.exponents), default=0)
    xp = [1] * (max_i + 1)
    for i in range(1, max_i + 1):
        xp[i] = xp[i - 1] * x % p
    return tuple(xp[i] * y % p if j else xp[i] for i, j in basis.exponents)


# --- specification strings ---------------------------------------------------

def parse_curve_spec(spec: str) -> Curve:
    """Parse ``ec:p=<p>,a=<a>,b=<b>`` or ``hyp:p=<p>,f=<c0>,<c1>,...``."""
    spec = spec.strip()
    if spec.startswith("ec:"):
        fields = {}
        for part in spec[3:].split(","):
            if "=" not in part:
                raise ValueError(f"malformed curve spec item {part!r}")
            k, v = part.split("=", 1)
            fields[k.strip()] = v.strip()
        if set(fields) != {"p", "a", "b"}:
            raise ValueError(f"elliptic spec needs p, a, b; got {sorted(fields)}")
        try:
            return elliptic_curve(int(fields["p"]), int(fields["a"]), int(fields["b"]))
        except ValueError as exc:
            raise ValueError(f"bad curve spec {spec!r}: {exc}") from exc
    if spec.startswith("hyp:"):
        body = spec[4:]
        if not body.startswith("p="):
            raise ValueError(f"hyperelliptic spec must start with p=, got {spec!r}")
        parts = body.split(",")
        head = parts[0]
        if len(parts) < 2 or not parts[1].startswith("f="):
            raise ValueError(f"hyperelliptic spec needs f=..., got {spec!r}")
        coeff_strs = [parts[1][2:]] + parts[2:]
        try:
            p = int(head[2:])
            coeffs = [int(c) for c in coeff_strs]
        except ValueError as exc:
            raise ValueError(f"bad curve spec {spec!r}: {exc}") from exc
        return hyperelliptic_curve(p, coeffs)
    raise ValueError(f"curve spec must start with 'ec:' or 'hyp:', got {spec!r}")


def format_curve_spec(curve: Curve) -> str:
    if isinstance(curve, EllipticCurve):
        return f"ec:p={curve.field.p},a={curve.a},b={curve.b}"
    coeffs = ",".join(map(str, curve.f))
    return f"hyp:p={curve.field.p},f={coeffs}"
