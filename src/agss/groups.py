"""Finite abelian groups in invariant-factor form and subset-sum counting.

Covers the combinatorial core of the project: additive characters and their
partial sums over a point set, the amplitude (the largest nontrivial
character-sum modulus), exact counts N(t, B, P) of the t-subsets of P
summing to B, permutation cycle-type generating functions, and the
resulting deviation bound

    |N(t, B, P) - C(n, t) / N|  <=  C(M, t)

with M = max{Phi + t - 1, (n + Phi)/2, (n - Phi)/3 + Phi + t - 1}, where
Phi is the amplitude of P.

Two exact counters.  ``subset_sum_table`` takes any point set: a dynamic
program in numpy on uint64 residues modulo 2^64 and a few primes just below
2^62, enough that their product exceeds C(n, t), with a row of Python ints
rebuilt by the Chinese remainder theorem only when it is read; memory is
one (t+1) x N word table per modulus.  ``cofinite_subset_sum_counts`` takes
the whole group minus the identity and one more point, the shape of an
elliptic scheme's players: the whole-group count has a closed form in
binomials and character sums per divisibility class, and the two excluded
points enter through (1 + z)^(-1) and (1 + pz)^(-1), in one pass over the
subset size in exact Python ints with no table over G or over the sizes.
Only character sums live in floating point.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .field import is_prime, matvec_array

# the dynamic program's limits: n*t*N steps, and (t+1)*N cells of one uint64
# table per modulus, so a table takes at most 64 MiB; the largest planned
# table, genus 2 at q = 211 (98 x 44 694, about 4.4e6 cells), fits
DP_BUDGET = 2**31
DP_CELLS = 2**23
SIEVE_MAX_T = 10
SIEVE_MAX_N = 14


class TrivialGroupError(ValueError):
    """Amplitude is undefined on the one-element group."""


class InvalidCycleTypeError(ValueError):
    """Cycle counts do not add up to a permutation of the stated size."""


class BudgetExceededError(Exception):
    """A declared budget would be exceeded: the dynamic program's limits
    (``check_dp_budget``), or an enumeration limit (``InstanceTooLargeError``)."""


class InstanceTooLargeError(BudgetExceededError):
    """Exhaustive enumeration was requested beyond the declared size limits."""


class UnsupportedExclusionError(ValueError):
    """A whole-group count was asked for G minus more than one non-identity element."""


class ClosedFormError(ArithmeticError):
    """The whole-group closed form left a remainder on division by |G|.

    The division is exact by theorem, so this signals an implementation bug.
    """


GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    """Product of cyclic groups Z_d1 x ... x Z_dk with d1 | d2 | ... | dk."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        if not self.factors:
            raise ValueError("at least one invariant factor is required")
        if any(d < 1 for d in self.factors):
            raise ValueError(f"invariant factors must be >= 1, got {self.factors}")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain, got {self.factors}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self.factors)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        # mixed-radix strides, last coordinate fastest
        strides = [1] * len(self.factors)
        for i in range(len(self.factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.factors[i + 1]
        return tuple(strides)

    def contains(self, a: GroupElement) -> bool:
        return len(a) == len(self.factors) and all(
            isinstance(v, (int, np.integer)) and 0 <= v < d for v, d in zip(a, self.factors)
        )

    def check(self, a: GroupElement) -> GroupElement:
        """The element as a tuple of Python ints; a numpy integer row is accepted."""
        if not self.contains(tuple(a)):
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return tuple(int(v) for v in a)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple(map(operator.mod, map(operator.add, a, b), self.factors))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple(-x % d for x, d in zip(a, self.factors))

    def index(self, a: GroupElement) -> int:
        return sum(v * s for v, s in zip(a, self._strides))

    def element_at(self, idx: int) -> GroupElement:
        return tuple((idx // s) % d for s, d in zip(self._strides, self.factors))

    def elements(self) -> Iterator[GroupElement]:
        return itertools.product(*(range(d) for d in self.factors))

    def character(self, exponents: Sequence[int]) -> "Character":
        return Character(self, tuple(exponents))

    def characters(self) -> Iterator["Character"]:
        for exps in itertools.product(*(range(d) for d in self.factors)):
            yield Character(self, exps)

    def __repr__(self):
        return "Z_" + " x Z_".join(str(d) for d in self.factors)


@dataclass(frozen=True)
class Character:
    """Additive character a -> exp(2 pi i sum_j v_j a_j / d_j)."""

    group: AbelianGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.group.factors):
            raise ValueError("exponent tuple length mismatch")
        if any(not (0 <= v < d) for v, d in zip(self.exponents, self.group.factors)):
            raise ValueError(f"exponents {self.exponents} out of range for {self.group!r}")

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.exponents)

    @property
    def order(self) -> int:
        o = 1
        for v, d in zip(self.exponents, self.group.factors):
            oi = d // math.gcd(d, v) if v else 1
            o = o * oi // math.gcd(o, oi)
        return o

    def power(self, k: int) -> "Character":
        return Character(self.group, tuple(k * v % d for v, d in zip(self.exponents, self.group.factors)))

    def __call__(self, a: GroupElement) -> complex:
        phase = sum(v * x / d for v, x, d in zip(self.exponents, a, self.group.factors))
        return complex(np.exp(2j * np.pi * phase))


# --- a group presented from its order ------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by trial division."""
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


def _multiple(add: Callable, identity: Hashable, k: int, x: Hashable) -> Hashable:
    """k x for k >= 0, by double-and-add."""
    acc = identity
    while k:
        if k & 1:
            acc = add(acc, x)
        x = add(x, x)
        k >>= 1
    return acc


class ShanksLog:
    """Discrete logs to the base (g1, g2) by baby-step giant-step (Shanks).

    g1 has order d1, g2 has order d2, and (u, v) -> u g1 + v g2 must be
    injective on Z_d1 x Z_d2.  For k = ``count`` logs the baby steps are
    u g1 + j g2, u < d1, j < s = min(d2, ceil(sqrt(k ceil(d2 / d1)))), built
    in about sqrt(k N) group operations; a log walks the giant steps
    x - i s g2 until one is a baby step u g1 + j g2, so x = u g1 + (j + i s) g2,
    in about sqrt(N / k).  Calling the instance returns (u, v), or None when
    x is not in <g1> + <g2>.
    """

    def __init__(self, add: Callable, identity: Hashable, g1: Hashable, d1: int, g2: Hashable, d2: int, count: int = 1):
        self._add, self._d2 = add, d2
        self._stride = s = min(d2, math.isqrt(count * -(-d2 // d1) - 1) + 1)
        self._giants = -(-d2 // s)
        self._steps: dict = {}
        base = identity
        for u in range(d1):
            y = base
            for j in range(s):
                self._steps[y] = (u, j)
                y = add(y, g2)
            base = add(base, g1)
        self._giant = _multiple(add, identity, d2 - s, g2)  # -s g2

    def __call__(self, x: Hashable) -> tuple[int, int] | None:
        for i in range(self._giants):
            hit = self._steps.get(x)
            if hit is not None:
                return hit[0], (hit[1] + i * self._stride) % self._d2
            x = self._add(x, self._giant)
        return None


def two_generator_table(
    order: int, elements: Iterable[Hashable], add: Callable, identity: Hashable
) -> tuple[AbelianGroup, Hashable, Hashable]:
    """Present a group of known order as Z_d1 x Z_d2 (d1 | d2) by two
    generators (g1, g2), reading the structure off the first elements.

    ``elements`` streams the whole group in a fixed order, identity first,
    and ``add`` is its law.  Walking the stream, each element whose order L
    exceeds every order before it, with (N/L) | L for N = ``order``, is
    tried as g2; then g1 is the first element in stream order of order N/L
    none of whose multiples u g1, 0 < u < N/L, lies in <g2>.  Such a g1
    makes (u, v) -> u g1 + v g2 injective, so it certifies
    G = Z_{N/L} x Z_L and L is the exponent (Teske, Math. Comp. 67 (1998)
    1637-1663, for reading the structure off a few elements).  Hence g2 is
    the first element of maximal order and g1 the first element that
    completes it, and the walk stops there.  A nontrivial intersection of
    the cyclic <g1> with <g2> holds the subgroup of some prime order l | d1,
    so only the multiples (d1/l) g1 are tested, each by baby-step
    giant-step membership in <g2> (``ShanksLog``).  Orders are computed
    lazily by double-and-add: one multiple tells whether an element's order
    divides the running maximum, and only an element whose order does not,
    or a g1 candidate, is ordered against the factorisation of N.  Returns
    (group, g1, g2); a stream that no two such generators present raises
    ValueError.
    """
    primes = _factorize(order)

    def divides(k: int, x) -> bool:
        # whether the order of x divides k
        return _multiple(add, identity, k, x) == identity

    def element_order(x) -> int:
        o = order
        for q in primes:
            while o % q == 0 and divides(o // q, x):
                o //= q
        return o

    seen = []
    best, g2 = 0, None
    for x in elements:
        seen.append(x)
        if best and divides(best, x):
            candidates = [x]  # no new maximum; a g1 candidate if its order is d1
        else:
            o = element_order(x)
            if o < best:
                continue  # its order does not divide best, so it is not d1
            best, d1 = o, order // o
            g2 = x if o % d1 == 0 else None
            span = None  # membership in <g2>, built once a g1 candidate turns up
            candidates = seen
        if g2 is None:
            continue
        for g1 in candidates:
            if not divides(d1, g1) or element_order(g1) != d1:
                continue
            if span is None and d1 > 1:
                span = ShanksLog(add, identity, identity, 1, g2, best)
            if all(span(_multiple(add, identity, d1 // q, g1)) is None for q in _factorize(d1)):
                return AbelianGroup((d1, best)), g1, g2
    raise ValueError(f"the stream is not a group of order {order} on at most two generators")


def _check_point_set(group: AbelianGroup, points: Sequence[GroupElement]) -> list[GroupElement]:
    pts = [group.check(a) for a in points]
    if len(set(pts)) != len(pts):
        raise ValueError("point set contains duplicates")
    return pts


def char_sum(group: AbelianGroup, chi: Character, points: Sequence[GroupElement]) -> complex:
    """Partial character sum s_chi(P) = sum_{a in P} chi(a)."""
    if chi.group != group:
        raise ValueError("character belongs to a different group")
    pts = _check_point_set(group, points)
    if not pts:
        return 0j
    arr = np.array(pts, dtype=np.float64)
    phases = np.zeros(len(pts))
    for j, d in enumerate(group.factors):
        if chi.exponents[j]:
            phases += chi.exponents[j] * arr[:, j] / d
    return complex(np.exp(2j * np.pi * phases).sum())


def amplitude(group: AbelianGroup, points: Sequence[GroupElement]) -> float:
    """Phi(P): the largest |s_chi(P)| over the N - 1 nontrivial characters.

    Evaluated through a multidimensional DFT of the indicator array of P,
    which enumerates all character sums at once.
    """
    indicator = np.zeros(group.factors)
    for a in _check_point_set(group, points):
        indicator[a] = 1.0
    return _largest_character_sum(group, indicator)


def cofinite_amplitude(group: AbelianGroup, excluded: Sequence[GroupElement]) -> float:
    """``amplitude`` of G minus ``excluded``, from the same indicator array
    (so the same float), built without reading the rest of G."""
    indicator = np.ones(group.factors)
    for a in _check_point_set(group, excluded):
        indicator[a] = 0.0
    return _largest_character_sum(group, indicator)


def _largest_character_sum(group: AbelianGroup, indicator: np.ndarray) -> float:
    if group.order < 2:
        raise TrivialGroupError("amplitude needs a group of order >= 2")
    spectrum = np.abs(np.fft.fftn(indicator))
    spectrum.flat[0] = 0.0  # trivial character excluded by definition
    return float(spectrum.max())


# --- exact subset-sum counting ------------------------------------------------

_WORD_MODULUS = 2**64
_PRIME_CEILING = 2**62


def _moduli(bound: int) -> tuple[int, ...]:
    """2^64, then the primes just below 2^62, until the product exceeds bound."""
    moduli = [_WORD_MODULUS]
    product = _WORD_MODULUS
    candidate = _PRIME_CEILING - 1
    while product <= bound:
        if is_prime(candidate):
            moduli.append(candidate)
            product *= candidate
        candidate -= 2
    return tuple(moduli)


class SubsetSumRows(Sequence):
    """Read-only rows[s][i] of exact subset-sum counts, held as residues.

    One (t+1) x N uint64 table per entry of ``moduli``; row s is rebuilt as
    a tuple of Python ints by the Chinese remainder theorem the first time
    it is read, and kept.  ``cell(s, i)`` rebuilds one count without the row.
    """

    def __init__(self, moduli: tuple[int, ...], tables: list[np.ndarray]):
        self.moduli = moduli
        self._tables = tables
        self._total = math.prod(moduli)
        # x = sum_j r_j * c_j mod M with c_j = 1 mod m_j and 0 mod the others
        self._coeffs = tuple((self._total // m) * pow(self._total // m, -1, m) for m in moduli)
        self._rows: list[tuple[int, ...] | None] = [None] * tables[0].shape[0]

    def __len__(self) -> int:
        return len(self._rows)

    def _crt(self, s: int, cols) -> tuple[int, ...]:
        residues = zip(*(tab[s, cols].tolist() for tab in self._tables))
        return tuple(sum(map(operator.mul, r, self._coeffs)) % self._total for r in residues)

    def __getitem__(self, s: int) -> tuple[int, ...]:
        s = operator.index(s)
        row = self._rows[s]
        if row is None:
            row = self._rows[s] = self._crt(s, slice(None))
        return row

    def cell(self, s: int, i: int) -> int:
        return self._crt(operator.index(s), [operator.index(i)])[0]


def check_dp_budget(n: int, t: int, size: int) -> None:
    """ValueError unless 0 <= t <= n, then ``BudgetExceededError`` unless the
    dynamic program over n points of a group of order ``size`` fits both
    ``DP_BUDGET`` and ``DP_CELLS``; it needs n and t alone, not the points."""
    if not 0 <= t <= n:
        raise ValueError(f"subset size t={t} out of range 0..{n}")
    if n * t * size > DP_BUDGET:
        raise BudgetExceededError(f"n*t*N = {n * t * size} exceeds the 2^31 budget")
    if (t + 1) * size > DP_CELLS:
        raise BudgetExceededError(f"(t+1)*N = {(t + 1) * size} table cells exceed the 2^23 budget")


def subset_sum_table(group: AbelianGroup, points: Sequence[GroupElement], t: int) -> SubsetSumRows:
    """DP table of subset-sum counts.

    Returns rows[s][i] = number of s-subsets of P whose group sum is the
    element with index i, for every 0 <= s <= t, as exact Python ints.
    The DP runs in numpy once per modulus: 2^64 (uint64 wrap-around) and
    enough primes just below 2^62 that their product exceeds every count
    C(n, s), s <= t.  Per point a the active rows take one gather and one
    add, rows[1:k+1] += rows[:k][:, index(i - a)], and for a prime p a
    conditional subtract min(x, x - p), which wraps when x < p.  Memory is
    the residue tables, (t+1) * N words per modulus (``check_dp_budget``),
    plus one gather buffer; rows are rebuilt by CRT only when read.
    """
    pts = _check_point_set(group, points)
    n, size = len(pts), group.order
    check_dp_budget(n, t, size)

    bound = math.comb(n, min(t, n // 2))  # the largest count in rows 0..t
    moduli = _moduli(bound)

    idx = np.arange(size, dtype=np.int64)
    strides = np.array(group._strides, dtype=np.int64)
    factors = np.array(group.factors, dtype=np.int64)
    digits = (idx[:, None] // strides[None, :]) % factors[None, :]

    tables = [np.zeros((t + 1, size), dtype=np.uint64) for _ in moduli]
    for tab in tables:
        tab[0, 0] = 1  # the empty subset sums to the identity (index 0)
    gathered = np.empty((t, size), dtype=np.uint64)
    for count, a in enumerate(pts, start=1):
        k = min(count, t)
        src = ((digits - np.array(a, dtype=np.int64)) % factors) @ strides
        buf = gathered[:k]
        for modulus, tab in zip(moduli, tables):
            cur = tab[1:k + 1]
            # indices are in range; mode="clip" keeps take from buffering out
            np.take(tab[:k], src, axis=1, out=buf, mode="clip")
            cur += buf
            if modulus != _WORD_MODULUS:
                np.subtract(cur, np.uint64(modulus), out=buf)
                np.minimum(cur, buf, out=cur)
    return SubsetSumRows(moduli, tables)


def subset_sum_count(group: AbelianGroup, points: Sequence[GroupElement], t: int, target: GroupElement) -> int:
    """Exact count of t-subsets of P whose group sum equals target."""
    rows = subset_sum_table(group, points, t)
    return rows.cell(t, group.index(group.check(target)))


# --- counts on the whole group minus a few points -------------------------------

def cofinite_subset_sum_counts(
    group: AbelianGroup, excluded: Sequence[GroupElement], cells: Sequence[tuple[int, GroupElement]]
) -> list[int]:
    """Exact counts of the t-subsets of G \\ X summing to b, one per cell (t, b).

    X = ``excluded`` holds at most one element p besides the identity O, as
    for an elliptic scheme's players; any other X raises
    ``UnsupportedExclusionError``.  prod_{x in X} (1 + xz)^(-1) is
    sum_j (-z)^j H_j with H_j = {jx} for X = {x}, {O, p, ..., jp} for
    X = {O, p}, and H_0 = {O} alone for X empty, so
    N(t, b) = sum_k (-1)^(t-k) sum_{u in H_(t-k)} F(k, b - u), where the
    count over the whole group is, as prod_{g in G} (1 + chi(g) z) =
    (1 - (-z)^d)^(N/d) for a character chi of order d,

        N F(k, b) = sum_{d | gcd(k, e)} (-1)^(k + k/d) C(N/d, k/d) Phi_d(b).

    Phi_d(b), the sum of the characters of order d at b, solves
    sum_{r | d} Phi_r(b) = |G/dG| [b in dG], so it depends only on b's class,
    the largest s | e with b in sG.  One pass over k = max t..0 keeps
    O(tau(e)) exact ints: the binomials C(N/d, k/d) and per cell the class
    weights W_d = sum_{u in H_(t-k)} Phi_d(b - u), which take in one class a
    step; a count is (-1)^t / N times the sum of (-1)^(k/d) C(N/d, k/d) W_d.
    Every N F(k, c) is checked for divisibility by N on residues, one matrix
    product per block of k; a remainder raises ``ClosedFormError``.
    """
    xs = _check_point_set(group, excluded)
    others = [x for x in xs if x != group.identity]
    if len(others) > 1:
        raise UnsupportedExclusionError(
            f"the excluded set may hold one element besides the identity, got {len(others)}"
        )
    n = group.order - len(xs)
    ts, targets = [], []
    for t, b in cells:
        if not 0 <= t <= n:
            raise ValueError(f"subset size t={t} out of range 0..{n}")
        ts.append(t)
        targets.append(group.check(b))
    if not ts:
        return []

    size, factors = group.order, group.factors
    e = factors[-1]
    divisors = [s for s in range(1, e + 1) if e % s == 0]
    quotient = [math.prod(math.gcd(s, d) for d in factors) for s in divisors]
    # class c -> [Phi_d(c) for d in divisors]: invert |G/dG| [d | c] by
    # f(d) -= f(d / p) one prime p at a time, larger d first
    steps = [(i, divisors.index(d // p)) for p in _factorize(e)
             for i, d in reversed(list(enumerate(divisors))) if d % p == 0]
    phi = {}
    for c in divisors:
        row = phi[c] = [q * (c % d == 0) for d, q in zip(divisors, quotient)]
        for i, j in steps:
            row[i] -= row[j]

    def phi_at(b: GroupElement) -> list[int]:
        # Phi_d at the class of b: s | b_k, and gcd(s, d_i) | b_i for i < k
        s = math.gcd(b[-1], e)
        for v, d in zip(b, factors[:-1]):
            g = math.gcd(s, d)
            while v % g:  # drop from s the primes where gcd(s, d) exceeds v
                s //= g // math.gcd(g, v)
                g = math.gcd(s, d)
        return phi[s]

    step = group.neg(others[0] if others else group.identity)
    top = max(ts)
    binom = [math.comb(size // d, top // d) for d in divisors]  # C(N/d, j) at the largest j d <= k
    entering = sorted(range(len(ts)), key=ts.__getitem__)
    live: list[list] = []  # [cell, b - jx, W] with j = t - k
    sums = [[0] * len(ts), [0] * len(ts)]  # per cell, the terms with k/d even and odd
    # N F(k, c) mod N for a block of k, as one product of residues by Phi
    phis = np.array([phi[c] for c in divisors], dtype=np.int64).T
    residues = np.zeros((min(top + 1, 1024), len(divisors)), dtype=np.int64)
    for k in range(top, -1, -1):
        for cell in live:
            cell[1] = v = group.add(cell[1], step)
            cell[2] = list(map(operator.add, cell[2], phi_at(v))) if len(xs) == 2 else phi_at(v)
        while entering and ts[entering[-1]] == k:
            c = entering.pop()
            live.append([c, targets[c], phi_at(targets[c])])

        row = k % len(residues)
        residues[row] = 0
        coeffs = []
        g = math.gcd(k, e)
        for i, d in enumerate(divisors):
            if d > g:
                break
            if g % d == 0:
                j = k // d
                coeffs.append((i, binom[i], j % 2))
                r = binom[i] % size
                residues[row, i] = -r if j % 2 else r
                if j:  # C(n, j - 1) = C(n, j) j / (n - j + 1), exactly
                    binom[i] = binom[i] * j // (size // d - j + 1)
        for c, _, w in live:
            for i, binomial, odd in coeffs:
                sums[odd][c] += binomial * w[i]
        if not xs:
            live.clear()  # H_j is empty for j >= 1

        if row == 0:  # the block holds k .. k + len - 1, rows past max t are zero
            rem = matvec_array(residues, phis, size)
            if rem.any():
                r, c = np.argwhere(rem)[0]
                raise ClosedFormError(
                    f"whole-group count at k={k + r}, class {divisors[c]} leaves remainder {rem[r, c]} mod {size}"
                )
    return [(even - odd if t % 2 == 0 else odd - even) // size for t, even, odd in zip(ts, *sums)]


# --- cycle-type combinatorics ---------------------------------------------

def _partitions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def cycle_types(t: int) -> Iterator[tuple[int, ...]]:
    """All cycle types (c_1, ..., c_t) with sum i*c_i = t, deterministic order."""
    for part in _partitions(t, t):
        c = [0] * t
        for k in part:
            c[k - 1] += 1
        yield tuple(c)


def cycle_type_count(counts: Sequence[int]) -> int:
    """Number of permutations of S_t with c_i cycles of length i (t = len(counts))."""
    t = len(counts)
    if sum((i + 1) * c for i, c in enumerate(counts)) != t:
        raise InvalidCycleTypeError(f"cycle counts {tuple(counts)} do not describe S_{t}")
    denom = 1
    for i, c in enumerate(counts, start=1):
        denom *= i**c * math.factorial(c)
    return math.factorial(t) // denom


def cycle_gen_function(t: int, weights: Sequence):
    """Sum over cycle types of N(c) * prod_i weights[i-1]^c_i.

    Exact when the weights are integers.  With the uniform weight q this
    equals the rising product (q + t - 1)_t.
    """
    if len(weights) < t:
        raise ValueError(f"need a weight for every cycle length 1..{t}")
    total = 0
    for c in cycle_types(t):
        term = cycle_type_count(c)
        for i, ci in enumerate(c):
            if ci:
                term *= weights[i] ** ci
        total += term
    return total


def periodic_weights(q, s, d: int, t: int) -> tuple:
    """Weights q at cycle lengths divisible by d, s elsewhere."""
    return tuple(q if (i % d == 0) else s for i in range(1, t + 1))


# --- generalized binomials --------------------------------------------------

def falling_factorial(x, t: int):
    """(x)_t = x (x-1) ... (x-t+1); exact for int x, float otherwise."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    acc = 1
    for i in range(t):
        acc *= x - i
    return acc


def generalized_binomial(x, t: int):
    """C(x, t) = (x)_t / t! for real x; exact integer when x is an int."""
    ff = falling_factorial(x, t)
    if isinstance(x, int):
        return ff // math.factorial(t) if ff >= 0 else -((-ff) // math.factorial(t))
    return ff / math.factorial(t)


def log_generalized_binomial(x: float, t: int) -> float:
    """log C(x, t) in log space; -inf when a factor vanishes.

    Requires all factors x - i (i < t) to be nonnegative, which holds for
    every M produced by the deviation bound (M >= t - 1).
    """
    if t == 0:
        return 0.0
    acc = 0.0
    for i in range(t):
        f = x - i
        if f < 0:
            raise ValueError(f"negative factor {f} at i={i}; log form undefined")
        if f == 0:
            return float("-inf")
        acc += math.log(f)
    return acc - math.lgamma(t + 1)


# --- the deviation bound -----------------------------------------------------

def li_wan_m(n: int, t: int, phi: float) -> float:
    """M = max{Phi + t - 1, (n + Phi)/2, (n - Phi)/3 + Phi + t - 1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 <= phi <= n:
        raise ValueError(f"amplitude {phi} outside [0, {n}]")
    return max(phi + t - 1, (n + phi) / 2, (n - phi) / 3 + phi + t - 1)


@dataclass(frozen=True)
class LiWanReport:
    count: int
    main_term: float
    deviation: float
    bound: float
    holds: bool


def li_wan_bound_check(group: AbelianGroup, points: Sequence[GroupElement], t: int, target: GroupElement) -> LiWanReport:
    """Check |N(t, B, P) - C(n, t)/N| <= C(M, t) on one instance.

    The inequality is a theorem; ``holds`` coming back False signals an
    implementation bug, not a mathematical possibility.
    """
    pts = _check_point_set(group, points)
    n = len(pts)
    count = subset_sum_count(group, pts, t, target)
    main = Fraction(math.comb(n, t), group.order)
    deviation = abs(Fraction(count) - main)
    phi = amplitude(group, pts)
    if t == 0:
        bound = 1.0  # C(M, 0) = 1 regardless of M
    else:
        bound = math.exp(log_generalized_binomial(li_wan_m(n, t, min(phi, float(n))), t))
    dev = float(deviation)
    holds = dev <= bound + 1e-9 * max(1.0, bound)
    return LiWanReport(count, float(main), dev, bound, holds)


# --- sieve identity ----------------------------------------------------------

@dataclass(frozen=True)
class SievePair:
    direct: complex
    sieved: complex


def sieve_identity_eval(group: AbelianGroup, points: Sequence[GroupElement], t: int, chi: Character) -> SievePair:
    """Evaluate both sides of the distinct-coordinate sieving identity.

    direct: sum over t-tuples of distinct points of prod_i chi(x_i)
    sieved: sum over cycle types of sign * N(c) * prod_i s_{chi^i}(P)^{c_i}

    The two agree up to floating-point error (< 1e-6 at the permitted sizes).
    """
    pts = _check_point_set(group, points)
    n = len(pts)
    if t > SIEVE_MAX_T or n > SIEVE_MAX_N:
        raise InstanceTooLargeError(f"direct enumeration limited to t <= {SIEVE_MAX_T}, n <= {SIEVE_MAX_N}")
    if chi.group != group:
        raise ValueError("character belongs to a different group")

    values = [chi(a) for a in pts]
    # the summand is order-independent, so distinct tuples = t! * subsets
    direct = 0j
    for combo in itertools.combinations(values, t):
        prod = 1 + 0j
        for v in combo:
            prod *= v
        direct += prod
    direct *= math.factorial(t)

    power_sums = {i: char_sum(group, chi.power(i), pts) for i in range(1, t + 1)}
    sieved = 0j
    for c in cycle_types(t):
        cycles = sum(c)
        term = complex(cycle_type_count(c))
        for i, ci in enumerate(c, start=1):
            if ci:
                term *= power_sums[i] ** ci
        sieved += (-1) ** (t - cycles) * term
    return SievePair(direct, sieved)


# --- specification strings ----------------------------------------------------

def parse_group_spec(spec: str) -> AbelianGroup:
    """Parse ``ab:d1,d2,...,dk`` (invariant factors)."""
    spec = spec.strip()
    if not spec.startswith("ab:"):
        raise ValueError(f"group spec must start with 'ab:', got {spec!r}")
    try:
        factors = tuple(int(d) for d in spec[3:].split(","))
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}: {exc}") from exc
    return AbelianGroup(factors)
