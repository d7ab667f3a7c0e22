"""Secret sharing from evaluation-code pairs on curves.

Construction: fix a curve with pole point Q at infinity, a secret position
P0, players P1..Pn, and a degree bound m with 2g - 2 < m <= n - 1.  Evaluate
the monomial basis of the degree-m pole space at (P0, P1, ..., Pn) to get a
generator matrix; its row space is the evaluation code and its nullspace is
the share code.  A dealt codeword carries the secret at position 0 and one
share per player.

A subset S of players is *qualified* when its shares determine the secret.
Three independent oracles decide this:

* ``kernel`` -- does some function vanish on the complement A = players \\ S
  while staying nonzero at P0?  (linear algebra on the function basis)
* ``dual``   -- is there an evaluation-code word equal to 1 at position 0
  and zero on A?  (decided on the generator matrix: c . gen is 0 at A's
  columns and 1 at P0's, the system ``reconstruct`` solves)
* ``clx``    -- the group-law criterion on elliptic curves: with t = |A| and
  B the group inverse of the sum of A, qualified means t <= m - 2, or
  t = m and the sum of A is the group identity, or t = m - 1 and B != P0.

All three must agree everywhere; a disagreement is a bug signal, which the
command-line front end turns into a dedicated exit code.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .curves import (
    Curve,
    Point,
    basis_values,
    eval_basis,  # unused here, but bench/probes.py wraps agss.scheme.eval_basis
    group_structure,
    is_infinity,
    rr_basis,
)
from .field import (
    FieldElement,
    FieldMismatchError,
    NoSolutionError,
    _eliminate,
    _kernel_basis,
    in_row_space,  # unused here, but bench/probes.py wraps agss.scheme.in_row_space
    kernel_array,  # unused here, but bench/probes.py wraps agss.scheme.kernel_array
    matvec_array,
    rank_array,  # unused here, but bench/probes.py wraps agss.scheme.rank_array
    solvable_array,  # unused here, but bench/probes.py wraps agss.scheme.solvable_array
    solve_array,  # unused here, but bench/probes.py wraps agss.scheme.solve_array
    stack_dtype,
)
from .groups import AbelianGroup, GroupElement, InstanceTooLargeError

ENUMERATION_LIMIT = 10**7

ORACLE_NAMES = ("kernel", "dual", "clx")

# bytes of system stack that one batched elimination may hold: the kernel
# and dual oracles split the complements they are given into runs of
# ``_stack_runs`` (the dual's runs hold 8 complements at q = 211, genus 2)
DECIDE_BYTES = 320 * 1024

# complements per batched decision of ``enumerate_access``
ENUMERATION_CHUNK = 1024


class DuplicatePointError(ValueError):
    """Scheme points are not pairwise distinct (or collide with infinity)."""


class DegreeOutOfRangeError(ValueError):
    """The degree bound m violates 2g - 2 < m <= n - 1."""


class NotQualifiedError(Exception):
    """Reconstruction attempted from an unqualified subset."""


class OracleDisagreementError(Exception):
    """Two oracles decided one subset differently: an implementation bug."""


class CodeBasisError(ArithmeticError):
    """The code bases are inconsistent: the monomial basis's pole orders are
    not 0..m minus the Weierstrass gaps 1, 3, ..., 2g - 1 at infinity, the
    generator matrix lost rank mod p, or the share-code basis is zero at P0
    or not orthogonal to it.  Each is a bug: ``check_degree``'s m >= 2g - 1
    gives the pole space exactly those orders (Riemann-Roch), its m <= n - 1
    gives the evaluation map full rank on the players alone, so some
    share-code word is nonzero at P0, and ``omega_matrix`` is the nullspace
    of ``gen_matrix``.
    """


@dataclass(frozen=True)
class QualifiedVerdict:
    """Oracle decision; when qualified, ``witness`` (if present) holds the
    coefficient vector of a basis combination vanishing on the complement
    and nonzero at the secret position."""

    qualified: bool
    witness: Optional[np.ndarray] = None


class PrivacyVerdict(Enum):
    ZERO_INFORMATION = "ZeroInformation"
    DETERMINES_SECRET = "DeterminesSecret"


@dataclass(frozen=True)
class ShareVector:
    """One dealt sharing: the secret plus the n player shares."""

    secret: FieldElement
    shares: tuple[FieldElement, ...]

    def to_csv_line(self) -> str:
        return ",".join(str(v.value) for v in (self.secret, *self.shares))

    @classmethod
    def from_csv_line(cls, field, line: str) -> "ShareVector":
        try:
            vals = [field.element(int(v)) for v in line.strip().split(",")]
        except ValueError as exc:
            raise ValueError(f"bad share line: {exc}") from None
        return cls(vals[0], tuple(vals[1:]))


@dataclass(eq=False)
class SchemeInstance:
    """A fully materialized scheme: curve, points, degree, and both codes.

    ``basis`` holds the exponents (i, j) of the monomials x^i y^j (``rr_basis``).
    ``gen_matrix`` is the (m - g + 1) x (n + 1) evaluation matrix with
    column j holding the basis values at point j (the secret position is
    column 0); ``omega_matrix`` rows form the canonical nullspace basis,
    i.e. a basis of the share code.  Both are read-only int64 arrays with
    entries reduced mod p.  ``pivots`` are the pivot columns of the RREF of
    ``gen_matrix``; with them, ``omega_matrix`` also holds that RREF's free
    block: ``omega_matrix[j, pivots[i]] == -RREF[i, f_j]`` for the j-th
    free column f_j.  The kernel and dual oracles gather their systems from
    tables cached on first use, ``_kernel_index`` and ``_p0_table``.
    """

    curve: Curve
    p0: Point
    players: tuple[Point, ...]
    m: int
    basis: tuple[tuple[int, int], ...]
    gen_matrix: np.ndarray
    omega_matrix: np.ndarray
    pivots: tuple[int, ...]

    def __setstate__(self, state):
        # unpickled arrays come back writeable; keep the code matrices read-only
        self.__dict__.update(state)
        self.gen_matrix.flags.writeable = False
        self.omega_matrix.flags.writeable = False

    @property
    def field(self):
        return self.curve.field

    @property
    def genus(self) -> int:
        return self.curve.genus

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def dim_code(self) -> int:
        return self.gen_matrix.shape[0]

    @property
    def dim_share_code(self) -> int:
        return self.omega_matrix.shape[0]

    @cached_property
    def _kernel_index(self):
        """The kernel oracle's gather table, pivot columns, free columns and
        free-column mask over the n + 1 points.

        Row j of the table is free column j of RREF(gen) read at the pivot
        rows, i.e. ``omega_matrix`` row j at the pivot columns; row F is a
        zero column and row F + 1 is e_0, the right-hand side; column P is
        a zero equation.  Padding with the zero column and equation changes
        no verdict.
        """
        pivots = np.array(self.pivots, dtype=np.int64)
        is_pivot = np.zeros(self.gen_matrix.shape[1], dtype=bool)
        is_pivot[pivots] = True
        free = np.flatnonzero(~is_pivot)
        table = np.zeros((len(free) + 2, len(pivots) + 1), dtype=stack_dtype(self.field.p))
        table[:-2, :-1] = self.omega_matrix[:, pivots]
        table[-1, 0] = 1  # row 0, the pivot of column 0, is never removed
        return table, pivots, free, ~is_pivot

    @cached_property
    def _p0_table(self) -> np.ndarray:
        """The dual oracle's gather table: ``gen_matrix`` above the row of the
        right-hand side (1 at P0, column 0), then the identity for bookkeeping."""
        dim, points = self.gen_matrix.shape
        table = np.eye(dim + 1, points + dim + 1, points, dtype=stack_dtype(self.field.p))
        table[:dim, :points] = self.gen_matrix
        table[dim, 0] = 1
        return table

    @cached_property
    def images(self) -> np.ndarray:
        """Row j is point j's element of the elliptic point group, P0 first as
        in ``gen_matrix``'s columns, from one ``GroupTable.logs`` call."""
        return group_structure(self.curve).logs((self.p0, *self.players))


def check_degree(curve: Curve, n: int, m: int) -> None:
    """The degree check of ``scheme_build``: 2g - 2 < m <= n - 1."""
    g = curve.genus
    if not 2 * g - 2 < m <= n - 1:
        raise DegreeOutOfRangeError(f"need 2g-2 < m <= n-1, got m={m}, g={g}, n={n}")


def check_layout(curve: Curve, p0: Point, players: Sequence[Point], m: int) -> None:
    """The layout checks of ``scheme_build``, which need no code matrix:
    ``check_degree``, and P0 and the players are distinct affine points."""
    n = len(players)
    check_degree(curve, n, m)
    pts = (p0, *players)
    for pt in pts:
        if is_infinity(pt):
            raise DuplicatePointError("a scheme point coincides with the pole point at infinity")
    if len(set(pts)) != n + 1:
        raise DuplicatePointError("scheme points must be pairwise distinct")


def _check_orthogonal(gen: np.ndarray, omega: np.ndarray, p: int) -> None:
    """Raise ``CodeBasisError`` unless gen . omega^T = 0 (mod p)."""
    if matvec_array(gen, omega.T, p).any():
        raise CodeBasisError("the share-code basis is not orthogonal to the generator matrix mod p")


def scheme_build(curve: Curve, p0: Point, players: Iterable[Point], m: int) -> SchemeInstance:
    """Validate the configuration and materialize both code bases, checking
    the monomial basis against Riemann-Roch and that the bases are
    orthogonal mod p (``CodeBasisError`` otherwise)."""
    players = tuple(players)
    check_layout(curve, p0, players, m)
    pts = (p0, *players)

    basis = rr_basis(curve, m)
    # Riemann-Roch: one monomial per pole order in 0..m but the gaps, so m - g + 1
    gaps = range(1, 2 * curve.genus, 2)
    if sorted(curve.pole_order(i, j) for i, j in basis) != [k for k in range(m + 1) if k not in gaps]:
        raise CodeBasisError(f"the pole orders of the degree-{m} basis are not 0..{m} minus the Weierstrass gaps")
    p = curve.field.p
    gen = basis_values(curve, basis, pts)  # rows = basis functions, cols = points

    omega, pivots = _kernel_basis(gen, p)
    # nullity = (n + 1) - rank, so full row rank is exactly this kernel size
    if omega.shape[0] != gen.shape[1] - len(basis):
        raise CodeBasisError("the evaluation matrix lost rank mod p")
    if not omega[:, 0].any():
        raise CodeBasisError("every share-code word vanishes at position 0")
    _check_orthogonal(gen, omega, p)

    gen.flags.writeable = False
    omega.flags.writeable = False
    return SchemeInstance(
        curve=curve,
        p0=p0,
        players=players,
        m=m,
        basis=basis,
        gen_matrix=gen,
        omega_matrix=omega,
        pivots=pivots,
    )


# --- dealing and reconstruction ------------------------------------------------

def _residue(field, value) -> int:
    """The canonical int of a secret or share; a FieldElement must be over ``field``."""
    if isinstance(value, FieldElement):
        if value.field != field:
            raise FieldMismatchError(f"a value in {value.field} given to a scheme over {field}")
        return value.value
    return operator.index(value) % field.p


def share(scheme: SchemeInstance, secret, seed: int) -> ShareVector:
    """Deal a uniformly random share-code word with the given secret at position 0.

    Deterministic for a fixed (scheme, secret, seed): the PCG64 stream seeded
    by ``seed`` supplies the coset coefficients.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    p = scheme.field.p
    s_val = _residue(scheme.field, secret)
    w = scheme.omega_matrix
    pivot = next(i for i in range(w.shape[0]) if int(w[i, 0]))
    inv = pow(int(w[pivot, 0]), -1, p)
    base = w[pivot] * inv % p  # codeword with 1 at position 0
    rest = [(w[j] - int(w[j, 0]) * base) % p for j in range(w.shape[0]) if j != pivot]
    code = s_val * base % p
    if rest:
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, p, size=len(rest))
        code = (code + matvec_array(np.array(rest).T, coeffs, p)) % p
    field = scheme.field
    return ShareVector(field.element(int(code[0])), tuple(field.element(int(v)) for v in code[1:]))


def _check_subset(scheme: SchemeInstance, subset: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in subset))
    if len(set(idx)) != len(idx):
        raise ValueError("subset contains repeated player indices")
    if idx and (idx[0] < 0 or idx[-1] >= scheme.n):
        raise ValueError(f"player indices must lie in 0..{scheme.n - 1}")
    return idx


def _complement(scheme: SchemeInstance, subset: Sequence[int]) -> np.ndarray:
    mask = np.ones(scheme.n, dtype=bool)
    if len(subset):
        mask[list(subset)] = False
    return np.nonzero(mask)[0]


def _p0_stack(scheme: SchemeInstance, a_block: np.ndarray, book: bool) -> np.ndarray:
    """The systems c . gen = 0 at A's columns and 1 at P0's, one per row A
    of a B x t block, each gathered from ``_p0_table`` straight into its
    slot of the B x (dim_code + 1) x (t + 1) stack, stored by columns with
    the right-hand side last (and the identity below as bookkeeping if
    ``book``), and column-reduced.  A solution c vanishes at the players in
    A with c(P0) = 1, so a system is solvable, its right-hand side ending
    zero on the equations, exactly when the complement of A is qualified."""
    table, (count, t) = scheme._p0_table, a_block.shape
    bookkeeping = np.arange(scheme.n + 1, table.shape[1]) if book else np.arange(0)
    equations = np.zeros((count, t + 1 + len(bookkeeping)), dtype=np.int64)
    equations[:, :t] = a_block + 1  # equation t is P0's, column 0
    equations[:, t + 1:] = bookkeeping
    stack = np.empty((count, len(table), equations.shape[1]), dtype=table.dtype)
    for system, columns in zip(stack, equations):
        np.take(table, columns, axis=1, out=system)
    _eliminate(stack, scheme.field.p, t + 1)
    return stack


def _p0_witness(scheme: SchemeInstance, a_idx: np.ndarray) -> np.ndarray:
    """The solution c of A's system in ``_p0_stack``, free variables set to
    0, read off the right-hand side's bookkeeping (1 at itself, minus c at
    the unknowns).  Raises NoSolutionError when every function vanishing on
    A also vanishes at P0, i.e. when the complement of A is not qualified."""
    rhs = _p0_stack(scheme, np.asarray(a_idx, dtype=np.int64)[None], book=True)[0, -1]
    if rhs[:len(a_idx) + 1].any():
        raise NoSolutionError("every function vanishing on the complement vanishes at P0")
    return (-rhs[len(a_idx) + 1:-1] % scheme.field.p).astype(np.int64)


def reconstruct(scheme: SchemeInstance, subset: Sequence[int], shares: Sequence) -> FieldElement:
    """Recover the secret from the shares of the players in ``subset``.

    Finds a function equal to 1 at P0 and vanishing at every player outside
    the subset; the secret is then a fixed linear combination of the
    subset's shares.  Raises NotQualifiedError when no such function exists.
    """
    s_idx = _check_subset(scheme, subset)
    if len(shares) != len(s_idx):
        raise ValueError("one share per subset player is required")
    p = scheme.field.p
    try:
        coeff = _p0_witness(scheme, _complement(scheme, s_idx))
    except NoSolutionError:
        raise NotQualifiedError(f"subset {list(s_idx)} cannot reconstruct the secret") from None
    weights = matvec_array(scheme.gen_matrix[:, np.array(s_idx, dtype=np.int64) + 1].T, coeff, p)
    share_vals = np.array([_residue(scheme.field, v) for v in shares], dtype=np.int64)
    total = int(matvec_array(weights[None], share_vals, p)[0])
    return scheme.field.element(-total)


# --- qualification oracles -----------------------------------------------------

def _stack_runs(used: np.ndarray, shift: int, itemsize: int) -> list:
    """Index runs of a block's systems, system k having used[k] + 1 columns
    and used[k] + shift equations: stable-sorted by ``used``, each run
    fits ``DECIDE_BYTES`` when padded to its last, largest system (one
    system at least).  A one-system block is the run ``slice(None)``."""
    if len(used) == 1:
        return [slice(None)]
    order = np.argsort(used, kind="stable")
    nbytes = (used[order] + 1) * (used[order] + shift) * itemsize
    runs, start = [], 0
    while start < len(order):
        # size * nbytes[start + size - 1] grows with size, so the fitting sizes are a prefix
        fits = np.arange(1, len(order) - start + 1) * nbytes[start:] <= DECIDE_BYTES
        stop = start + max(int(fits.sum()), 1)
        runs.append(order[start:stop])
        start = stop
    return runs


def _kernel_block(scheme: SchemeInstance, a_block: np.ndarray) -> np.ndarray:
    """Qualified iff the P0 column of gen is outside the span of the A
    columns, for each row A of a nonempty B x t block of complements.

    Row operations keep column relations, so this is asked of RREF(gen).
    There column 0 is the unit vector e_0 (the constant function makes it
    pivot 0), and each pivot column in A is a unit vector that only removes
    its row.  What is left: is e_0 in the span of A's free columns, on the
    remaining pivot rows?  Those columns are rows of ``omega_matrix`` read
    at the pivot columns, negated, and a sign does not change a span.

    A system with U used free columns keeps U + P - t of the P pivot rows,
    so U alone orders the shapes.  The systems are decided in the runs of
    ``_stack_runs``: each is gathered from ``_kernel_index``'s table in one
    indexing step, padded to its largest system, and decided by one batched
    elimination; the verdicts go back in input order.
    """
    table, pivots, free_cols, is_free = scheme._kernel_index
    npiv = len(pivots)
    shift = npiv - a_block.shape[1]  # kept rows minus used free columns
    used = is_free[a_block + 1].sum(axis=1)
    verdicts = np.empty(len(a_block), dtype=bool)
    for run in _stack_runs(used, shift, table.itemsize):
        free = used[run]
        width = int(free[-1])
        hit = np.zeros((len(free), scheme.n + 1), dtype=bool)
        hit[np.arange(len(free))[:, None], a_block[run] + 1] = True
        # stable argsorts list each system's kept rows and free columns first;
        # the positions past its own counts read the zero equation and column
        rows = np.argsort(hit[:, pivots], axis=1, kind="stable")[:, :width + shift]
        rows[np.arange(width + shift) >= (free + shift)[:, None]] = npiv
        columns = np.full((len(free), width + 1), len(free_cols) + 1)
        columns[:, :-1] = np.argsort(~hit[:, free_cols], axis=1, kind="stable")[:, :width]
        columns[:, :-1][np.arange(width) >= free[:, None]] = len(free_cols)
        stack = table[columns[:, :, None], rows[:, None, :]]
        _eliminate(stack, scheme.field.p, stack.shape[2])
        verdicts[run] = stack[:, -1].any(axis=1)
    return verdicts


def _dual_block(scheme: SchemeInstance, a_block: np.ndarray) -> np.ndarray:
    """Qualified iff A's system in ``_p0_stack`` is solvable, for each row A
    of a nonempty B x t block.  The systems have one shape, so the runs of
    ``_stack_runs`` are equal chunks, each reduced without bookkeeping."""
    (count, t), dim = a_block.shape, scheme.dim_code
    verdicts = np.empty(count, dtype=bool)
    for run in _stack_runs(np.full(count, dim), t + 1 - dim, scheme._p0_table.itemsize):
        verdicts[run] = ~_p0_stack(scheme, a_block[run], book=False)[:, -1].any(axis=1)
    return verdicts


def group_law_rule(group: AbelianGroup, p0: GroupElement, m: int, t: int):
    """The genus-1 verdict on a size-t complement A of a degree-m elliptic
    scheme whose P0 is the element ``p0``: a bool when t alone decides, else
    (target, hit), qualified iff (the sum of A == target) == hit.  t <= m - 2
    is qualified, t > m is not; t = m iff A sums to O, and t = m - 1 iff the
    forced extra zero B = -(sum of A) avoids P0.  The clx oracle and the
    exact counts both apply it."""
    if t == m:
        return group.identity, True
    if t == m - 1:
        return group.neg(p0), False
    return t < m


def _clx_block(scheme: SchemeInstance, a_block: np.ndarray) -> np.ndarray:
    """``group_law_rule`` on the group sum of each row of a B x t block."""
    images, group = scheme.images, group_structure(scheme.curve).group
    rule = group_law_rule(group, tuple(images[0].tolist()), scheme.m, a_block.shape[1])
    if isinstance(rule, bool):
        return np.full(len(a_block), rule)
    target, hit = rule
    totals = images[a_block + 1].sum(axis=1) % np.asarray(group.factors)
    return (totals == np.asarray(target)).all(axis=1) == hit


_ORACLES = {"kernel": _kernel_block, "dual": _dual_block, "clx": _clx_block}


def _decide(scheme: SchemeInstance, a_block: np.ndarray, oracle: str) -> np.ndarray:
    """The oracle's verdict on each row of a nonempty B x t block of
    complements; each oracle splits the block into stacks that fit
    ``DECIDE_BYTES``, so a caller passes blocks of any size."""
    try:
        fn = _ORACLES[oracle]
    except KeyError:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLE_NAMES}") from None
    return fn(scheme, a_block)


def _decide_one(scheme: SchemeInstance, a_idx, oracle: str) -> bool:
    return bool(_decide(scheme, np.asarray(a_idx, dtype=np.int64)[None], oracle)[0])


def is_qualified_kernel(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Function-space oracle; when qualified, the witness is the function
    that vanishes on the complement and equals 1 at P0, from the dual
    oracle's system (OracleDisagreementError if that has no solution)."""
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    if not _decide_one(scheme, a_idx, "kernel"):
        return QualifiedVerdict(False)
    try:
        return QualifiedVerdict(True, _p0_witness(scheme, a_idx))
    except NoSolutionError:
        raise OracleDisagreementError(f"oracle disagreement: kernel finds complement {a_idx.tolist()} "
                                      "qualified, dual finds no witness") from None


def is_qualified_dual(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Evaluation-code oracle, decided on the generator matrix; when
    qualified, the witness is the solution of the complement's system."""
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    try:
        return QualifiedVerdict(True, _p0_witness(scheme, a_idx))
    except NoSolutionError:
        return QualifiedVerdict(False)


def is_qualified_clx(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Group-law oracle (elliptic curves only); no function witness."""
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    return QualifiedVerdict(_decide_one(scheme, a_idx, "clx"))


def privacy_check(scheme: SchemeInstance, subset: Sequence[int]) -> PrivacyVerdict:
    """Whether the subset's share coordinates pin down the secret coordinate.

    It does exactly when the dual oracle finds an evaluation-code word, 1 at
    position 0 and zero on the complement, decided on the generator matrix.
    """
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    if _decide_one(scheme, a_idx, "dual"):
        return PrivacyVerdict.DETERMINES_SECRET
    return PrivacyVerdict.ZERO_INFORMATION


@dataclass(frozen=True)
class AccessCount:
    qualified: int
    total: int


def enumerate_access(scheme: SchemeInstance, t: int, oracle: str = "kernel") -> AccessCount:
    """Count the size-t complements A whose remaining players are qualified."""
    n = scheme.n
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range 0..{n}")
    total = math.comb(n, t)
    if total > ENUMERATION_LIMIT:
        raise InstanceTooLargeError(f"C({n},{t}) = {total} exceeds the exhaustive limit {ENUMERATION_LIMIT}")
    qualified = 0
    combos = combinations(range(n), t)
    while block := list(islice(combos, ENUMERATION_CHUNK)):
        a_block = np.array(block, dtype=np.int64).reshape(len(block), t)
        qualified += int(_decide(scheme, a_block, oracle).sum())
    return AccessCount(qualified, total)
