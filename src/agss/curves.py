"""One curve model over prime fields with one smooth point at infinity.

``Curve`` is y^2 = f(x) with f squarefree of odd degree 2g + 1.  A cubic must
be x^3 + a x + b, so ``ec:p,a,b`` and ``hyp:p,f=b,a,0,1`` build the same
curve.  Only genus 1 carries the chord-tangent group law; ``group_structure``
presents its point group as an ``AbelianGroup`` on two generators read off
the first points in enumeration order (``groups.two_generator_table``), and
finds points' elements by one baby-step giant-step sized to the number asked
(``GroupTable.logs``).  At genus g >= 2 the group operations raise
``WrongGenusError``; such curves are used purely through linear algebra.

``point_count`` counts the rational points with Euler's criterion in numpy,
without listing them; ``iter_points`` streams them in (x, y) order and
``enumerate_points`` is that stream as a cached tuple.

Fixing the distinguished pole point at infinity makes the space of functions
with pole order at most m a clean span of monomials x^i y^j (j in {0, 1});
``rr_basis`` lists their exponent pairs (i, j), which is what the code
constructions downstream consume.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .field import PrimeField
from .groups import AbelianGroup, ShanksLog, _multiple, two_generator_table


# the next two are not ValueErrors: they exit 3, and parse_curve_spec rewraps ValueErrors
class SingularCurveError(Exception):
    """The supplied coefficients describe a singular curve."""


class BadDegreeError(Exception):
    """f of even or too-small degree, or a cubic other than x^3 + a x + b."""


class PointNotOnCurveError(ValueError):
    """A point fails the curve equation."""


class EvalAtInfinityError(ValueError):
    """Function evaluation requested at the point at infinity."""


class WrongGenusError(ValueError):
    """A genus-1-only operation was called on another curve."""


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


# --- the curve model ---------------------------------------------------------
#
# Coefficients and coordinates are plain ints reduced into [0, p); the curve's
# ``field`` only names p.

@dataclass(frozen=True)
class Curve:
    """y^2 = f(x) over F_p with f squarefree of odd degree 2g + 1, low degree
    first.  A cubic must be x^3 + a x + b, so every genus-1 curve is a short
    Weierstrass curve, and only genus 1 carries the chord-tangent law."""

    field: PrimeField
    f: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        f = tuple(operator.index(c) % p for c in self.f)
        object.__setattr__(self, "f", f)
        deg = len(f) - 1
        if deg < 3 or deg % 2 == 0:
            raise BadDegreeError(f"f must have odd degree >= 3, got degree {deg}")
        if f[-1] == 0:
            raise BadDegreeError("leading coefficient of f is zero")
        if deg == 3 and f[2:] != (0, 1):
            raise BadDegreeError(f"a cubic f must be x^3 + a x + b, got coefficients {list(f)}")
        # for p >= 5 a cubic x^3 + a x + b is squarefree iff 4a^3 + 27b^2 != 0
        if len(_poly_gcd(f, _poly_deriv(f, p), p)) != 1:
            raise SingularCurveError(f"4a^3 + 27b^2 = 0 mod {p}" if deg == 3 else "f is not squarefree")

    @property
    def genus(self) -> int:
        return (len(self.f) - 2) // 2

    def pole_order(self, i: int, j: int) -> int:
        """The pole order 2i + (2g + 1)j of x^i y^j at infinity."""
        return 2 * i + (2 * self.genus + 1) * j

    # a and b of x^3 + a x + b at genus 1
    @property
    def a(self) -> int:
        return self.f[1]

    @property
    def b(self) -> int:
        return self.f[0]

    def rhs(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.f):
            acc = (acc * x + c) % p
        return acc

    def contains(self, pt: Point) -> bool:
        if is_infinity(pt):
            return True
        p = self.field.p
        return 0 <= pt.x < p and 0 <= pt.y < p and pt.y * pt.y % p == self.rhs(pt.x)

    def _require(self, pt: Point):
        if not self.contains(pt):
            raise PointNotOnCurveError(f"{pt!r} is not on {format_curve_spec(self)}")

    # group law (genus 1) ---------------------------------------------------

    def _require_group(self, *pts: Point):
        """``WrongGenusError`` unless the genus is 1, then ``_require`` on each point."""
        if self.genus != 1:
            raise WrongGenusError(f"the point group exists only at genus 1, not on {format_curve_spec(self)}")
        for pt in pts:
            self._require(pt)

    def neg(self, pt: Point) -> Point:
        self._require_group(pt)
        if is_infinity(pt):
            return INFINITY
        return AffinePoint(pt.x, -pt.y % self.field.p)

    def add(self, p1: Point, p2: Point) -> Point:
        self._require_group(p1, p2)
        return self._add_raw(p1, p2)

    def scalar_mul(self, k: int, pt: Point) -> Point:
        self._require_group(pt)
        if k < 0:
            k, pt = -k, self.neg(pt)
        return _multiple(self._add_raw, INFINITY, k, pt)

    def _add_raw(self, p1: Point, p2: Point) -> Point:
        """The chord-tangent sum of two points of a genus-1 curve, unchecked."""
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


def elliptic_curve(p: int, a: int, b: int) -> Curve:
    return Curve(PrimeField(p), (b, a, 0, 1))


def hyperelliptic_curve(p: int, coeffs: Iterable[int]) -> Curve:
    """y^2 = f(x) over F_p, f's coefficients low degree first."""
    return Curve(PrimeField(p), tuple(coeffs))


# x values per block of ``point_count``: a few int64 arrays of this length
_COUNT_BLOCK = 1 << 16


@functools.lru_cache(maxsize=None)
def point_count(curve: Curve) -> int:
    """Number of rational points, infinity included: p + 1 + sum_x chi(f(x)).

    chi is the quadratic character, computed by Euler's criterion
    f(x)^((p-1)/2) mod p (``groups._multiple``) on int64 blocks of
    ``_COUNT_BLOCK`` values of x, so memory stays bounded for every p below
    2^31 (a product of two residues stays below 2^62).  No point is listed.
    """
    p = curve.field.p
    count = p + 1
    for start in range(0, p, _COUNT_BLOCK):
        x = np.arange(start, min(start + _COUNT_BLOCK, p), dtype=np.int64)
        f = np.zeros_like(x)
        for c in reversed(curve.f):
            f = (f * x + c) % p
        chi = _multiple(lambda a, b: a * b % p, np.ones_like(x), (p - 1) // 2, f)
        count += np.count_nonzero(chi == 1) - np.count_nonzero(chi == p - 1)
    return int(count)


def iter_points(curve: Curve) -> Iterator[Point]:
    """All rational points, lazily: infinity first, then affine points in
    (x, y) order.

    ``sqrt_mod`` returns the smaller root, so ascending x already gives that order.
    """
    p = curve.field.p
    yield INFINITY
    for x in range(p):
        root = sqrt_mod(curve.rhs(x), p)
        if root is None:
            continue
        yield AffinePoint(x, root)
        if root:
            yield AffinePoint(x, p - root)


@functools.lru_cache(maxsize=None)
def enumerate_points(curve: Curve) -> tuple[Point, ...]:
    """``iter_points`` as a tuple, cached per curve."""
    return tuple(iter_points(curve))


def affine_points(curve: Curve) -> tuple[AffinePoint, ...]:
    return tuple(pt for pt in enumerate_points(curve) if not is_infinity(pt))


# --- elliptic group structure ------------------------------------------------

@dataclass(eq=False)
class GroupTable:
    """An elliptic point group as ``group`` = Z_d1 x Z_d2 (d1 | d2, both
    factors kept even when d1 = 1), generated by g1 of order d1 and g2 of
    order d2: the point u g1 + v g2 is the element (u, v).

    ``logs`` finds points' elements by one baby-step giant-step, so group
    sums of points reduce to componentwise modular addition without a table
    of all points.
    """

    curve: Curve
    group: AbelianGroup
    g1: Point
    g2: Point

    def __post_init__(self):
        d1, d2 = self.group.factors
        if (self.curve.field.p - 1) % d1 != 0:
            raise ValueError("d1 must divide p - 1")
        if d1 * d2 != point_count(self.curve):
            raise ValueError("d1 d2 must be the number of points")

    def logs(self, points: Sequence[Point]) -> np.ndarray:
        """Row i is point i's element (u, v), as a len(points) x 2 int64
        array, from one ``groups.ShanksLog`` sized to the k points: about
        2 sqrt(k N) group operations, one walk over the group for k near N.
        An off-curve point raises ``PointNotOnCurveError``."""
        for pt in points:
            self.curve._require(pt)
        d1, d2 = self.group.factors
        shanks = ShanksLog(self.curve._add_raw, INFINITY, self.g1, d1, self.g2, d2, max(len(points), 1))
        return np.array([shanks(pt) for pt in points], dtype=np.int64).reshape(-1, 2)

    def log(self, pt: Point) -> tuple[int, int]:
        return tuple(self.logs([pt])[0].tolist())


@functools.lru_cache(maxsize=None)
def group_structure(curve: Curve) -> GroupTable:
    """The point group as Z_d1 x Z_d2 (d1 | d2) on two generators.

    ``groups.two_generator_table`` on the stream ``iter_points`` with the
    chord-tangent law and ``point_count`` as the order: g2 is the first
    point of maximal order, g1 the first point of order d1 whose multiples
    miss <g2>, so only the first points are listed and ordered.  A cyclic
    group takes the identity as g1.  A curve of genus >= 2 raises
    ``WrongGenusError``: its points form no group.
    """
    curve._require_group()
    group, g1, g2 = two_generator_table(point_count(curve), iter_points(curve), curve._add_raw, INFINITY)
    return GroupTable(curve, group, g1, g2)


# --- function space bases ----------------------------------------------------

def rr_basis(curve: Curve, m: int) -> tuple[tuple[int, int], ...]:
    """Monomial basis of the degree-m pole space at infinity, as exponent
    pairs (i, j): the monomials x^i y^j with j in {0, 1} and pole order
    ``curve.pole_order(i, j)`` <= m, sorted by their pole orders, which are
    pairwise distinct.

    For m >= 2g - 1 the basis has exactly m - g + 1 elements.
    """
    if m < 0:
        raise ValueError(f"pole bound must be nonnegative, got {m}")
    w = curve.pole_order(0, 1)
    pairs = [(i, 0) for i in range(m // 2 + 1)]
    pairs += [(i, 1) for i in range((m - w) // 2 + 1)] if m >= w else []
    return tuple(sorted(pairs, key=lambda ij: curve.pole_order(*ij)))


def basis_values(curve: Curve, basis: Sequence[tuple[int, int]], points: Sequence[Point]) -> np.ndarray:
    """Every monomial x^i y^j of ``basis``, given by its exponents (i, j), at
    every affine point: a len(basis) x len(points) int64 array whose column
    k holds point k's values, reduced mod p.

    Each point is checked on the curve first (``PointNotOnCurveError``; the
    point at infinity raises ``EvalAtInfinityError``), then one table of
    x-powers mod p serves every monomial x^i y^j: a product of two residues
    stays below 2^62.
    """
    for pt in points:
        if is_infinity(pt):
            raise EvalAtInfinityError("evaluation points must be affine")
        curve._require(pt)
    p = curve.field.p
    xs = np.array([pt.x for pt in points], dtype=np.int64)
    ys = np.array([pt.y for pt in points], dtype=np.int64)
    exponents = np.array(basis, dtype=np.int64).reshape(-1, 2)
    powers = np.ones((exponents[:, 0].max(initial=0) + 1, len(xs)), dtype=np.int64)
    for i in range(1, len(powers)):
        powers[i] = powers[i - 1] * xs % p
    values = powers[exponents[:, 0]]
    with_y = exponents[:, 1] == 1
    values[with_y] = values[with_y] * ys % p
    return values


def eval_basis(curve: Curve, basis: Sequence[tuple[int, int]], pt: Point) -> tuple[int, ...]:
    """Evaluate every basis monomial at an affine point: ``basis_values`` at
    the one point, as a tuple of ints."""
    return tuple(basis_values(curve, basis, [pt])[:, 0].tolist())


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
    """``ec:`` at genus 1, else ``hyp:``; ``parse_curve_spec`` reads either back."""
    if curve.genus == 1:
        return f"ec:p={curve.field.p},a={curve.a},b={curve.b}"
    coeffs = ",".join(map(str, curve.f))
    return f"hyp:p={curve.field.p},f={coeffs}"
