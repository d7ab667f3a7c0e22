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
  and zero on A?  (decided on the generator matrix: the system
  [player_rows[A]; p0_row] c = e_last that ``reconstruct`` solves)
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
    MonomialBasis,
    Point,
    WrongGenusError,  # raised by group_structure, imported from here by cli.py
    eval_basis,
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
    solvable_stack,
    solve_array,
    stack_dtype,
)
from .groups import AbelianGroup, GroupElement, InstanceTooLargeError

ENUMERATION_LIMIT = 10**7

ORACLE_NAMES = ("kernel", "dual", "clx")

# bytes of system stack that one batched decision may hold; blocks of
# complements are sized to it per oracle (``decide_block_size``), which keeps
# the dual oracle's blocks at q = 211, genus 2 at 8 complements
DECIDE_BYTES = 320 * 1024


class DuplicatePointError(Exception):
    """Scheme points are not pairwise distinct (or collide with infinity)."""


class DegreeOutOfRangeError(Exception):
    """The degree bound m violates 2g - 2 < m <= n - 1."""


class SecretPositionDegenerateError(Exception):
    """Every share-code word vanishes at the secret position."""


class NotQualifiedError(Exception):
    """Reconstruction attempted from an unqualified subset."""


class CodeBasisError(ArithmeticError):
    """The share-code basis is not orthogonal to the generator matrix mod p.

    ``omega_matrix`` is computed as the nullspace of ``gen_matrix``, so this
    signals an implementation bug.
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

    ``gen_matrix`` is the (m - g + 1) x (n + 1) evaluation matrix with
    column j holding the basis values at point j (the secret position is
    column 0); ``omega_matrix`` rows form the canonical nullspace basis,
    i.e. a basis of the share code.  Both are read-only int64 arrays with
    entries reduced mod p.  ``pivots`` are the pivot columns of the RREF of
    ``gen_matrix``; with them, ``omega_matrix`` also holds that RREF's free
    block: ``omega_matrix[j, pivots[i]] == -RREF[i, f_j]`` for the j-th
    free column f_j.
    """

    curve: Curve
    p0: Point
    players: tuple[Point, ...]
    m: int
    basis: MonomialBasis
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
    def player_rows(self) -> np.ndarray:
        """Row i = basis values at player i (shape n x dim_code)."""
        return np.ascontiguousarray(self.gen_matrix[:, 1:].T)

    @cached_property
    def p0_row(self) -> np.ndarray:
        return self.gen_matrix[:, 0].copy()

    @cached_property
    def _kernel_index(self):
        """The kernel oracle's gather table, pivot columns and free columns.

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
        return table, pivots, free

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
    """Raise ``CodeBasisError`` unless gen . omega^T = 0 (mod p).

    The product is taken in int64, exact while every entry's sum of n + 1
    products stays below 2^63, and on Python ints above that.  Not in
    float64: numpy sends that to BLAS, whose buffers stay resident.
    """
    if gen.shape[1] * (p - 1) ** 2 < 2**63:
        product = gen @ omega.T % p
    else:
        product = gen.astype(object) @ omega.T.astype(object) % p
    if product.any():
        raise CodeBasisError("the share-code basis is not orthogonal to the generator matrix mod p")


def scheme_build(curve: Curve, p0: Point, players: Iterable[Point], m: int) -> SchemeInstance:
    """Validate the configuration and materialize both code bases, checking
    that they are orthogonal mod p (``CodeBasisError`` otherwise)."""
    players = tuple(players)
    check_layout(curve, p0, players, m)
    pts = (p0, *players)

    basis = rr_basis(curve, m)
    p = curve.field.p
    cols = [eval_basis(curve, basis, pt) for pt in pts]
    gen = np.array(cols, dtype=np.int64).T.copy()  # rows = basis functions, cols = points

    omega, pivots = _kernel_basis(gen, p)
    # nullity = (n + 1) - rank, so full row rank is exactly this kernel size
    if omega.shape[0] != gen.shape[1] - len(basis):
        raise RuntimeError("evaluation matrix lost rank; invalid configuration")
    if not omega[:, 0].any():
        raise SecretPositionDegenerateError("every share-code word vanishes at position 0")
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


def _p0_systems(scheme: SchemeInstance, a_block: np.ndarray):
    """The systems [player_rows[A]; p0_row] c = e_last, one per row A of a
    B x t block: stacked B x (t + 1) x dim_code, and their right-hand side.

    A solution c is a function vanishing at the players in A with c(P0) = 1,
    so a system is solvable exactly when the complement of A is qualified.
    Every complement has t players, so the systems stack unpadded.
    """
    count, t = a_block.shape
    rows = np.empty((count, t + 1, scheme.dim_code), dtype=np.int64)
    rows[:, :t] = scheme.player_rows[a_block]
    rows[:, t] = scheme.p0_row
    rhs = np.zeros(t + 1, dtype=np.int64)
    rhs[t] = 1
    return rows, rhs


def _p0_witness(scheme: SchemeInstance, a_idx: np.ndarray) -> np.ndarray:
    """The solution c of A's system in ``_p0_systems``: a function vanishing
    at the players in A with c(P0) = 1.

    Raises NoSolutionError when every function vanishing on A also vanishes
    at P0, i.e. when the complement of A is not qualified.
    """
    rows, rhs = _p0_systems(scheme, a_idx[None])
    return solve_array(rows[0], rhs, scheme.field.p)


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
    weights = matvec_array(scheme.player_rows[list(s_idx)], coeff, p)
    share_vals = np.array([_residue(scheme.field, v) for v in shares], dtype=np.int64)
    total = int((weights * share_vals % p).sum() % p)
    return scheme.field.element(-total)


# --- qualification oracles -----------------------------------------------------

def _kernel_block(scheme: SchemeInstance, a_block: np.ndarray) -> np.ndarray:
    """Qualified iff the P0 column of gen is outside the span of the A
    columns, for each row A of a nonempty B x t block of complements.

    Row operations keep column relations, so this is asked of RREF(gen).
    There column 0 is the unit vector e_0 (the constant function makes it
    pivot 0), and each pivot column in A is a unit vector that only removes
    its row.  What is left: is e_0 in the span of A's free columns, on the
    remaining pivot rows?  Those columns are rows of ``omega_matrix`` read
    at the pivot columns, negated, and a sign does not change a span.  One
    indexing step gathers every system from ``_kernel_index``'s table,
    padded to the block's largest, and one batched elimination decides the
    block.
    """
    table, pivots, free_cols = scheme._kernel_index
    hit = np.zeros((len(a_block), scheme.n + 1), dtype=bool)
    hit[np.arange(len(a_block))[:, None], a_block + 1] = True
    removed, used = hit[:, pivots], hit[:, free_cols]
    kept, free = len(pivots) - removed.sum(axis=1), used.sum(axis=1)
    # stable argsorts list each system's kept rows and free columns first;
    # the positions past its own counts read the zero equation and column
    rows = np.argsort(removed, axis=1, kind="stable")[:, :kept.max()]
    rows[np.arange(rows.shape[1]) >= kept[:, None]] = len(pivots)
    columns = np.full((len(a_block), free.max() + 1), len(free_cols) + 1)
    columns[:, :-1] = np.argsort(~used, axis=1, kind="stable")[:, :free.max()]
    columns[:, :-1][np.arange(free.max()) >= free[:, None]] = len(free_cols)
    stack = table[columns[:, :, None], rows[:, None, :]]
    _eliminate(stack, scheme.field.p, stack.shape[2])
    return stack[:, -1].any(axis=1)


def _dual_block(scheme: SchemeInstance, a_block: np.ndarray) -> np.ndarray:
    """Qualified iff A's system in ``_p0_systems`` is solvable, for each row
    A of a nonempty B x t block, decided by one batched elimination."""
    return solvable_stack(*_p0_systems(scheme, a_block), scheme.field.p)


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


def decide_block_size(scheme: SchemeInstance, t: int, oracle: str) -> int:
    """Size-t complements per batched decision: ``DECIDE_BYTES`` over the
    stack bytes of one typical system of the oracle, and at least 1.

    * kernel -- the mean kept pivot rows + 1 by the mean used free columns
      + 2: the hypergeometric means of a random t-subset of the players
      against the P - 1 player pivots and the n - P + 1 free columns;
    * dual -- an evaluation-code word, decided on the generator matrix:
      dim_code + 1 columns of t + 1 equations (``_p0_systems``);
    * clx -- t group elements of two int64 coordinates.
    """
    itemsize = np.dtype(stack_dtype(scheme.field.p)).itemsize
    if oracle == "kernel":
        n, pivots = scheme.n, len(scheme.pivots)
        kept = pivots - t * (pivots - 1) / n
        used = t * (n - pivots + 1) / n
        nbytes = (kept + 1) * (used + 2) * itemsize
    elif oracle == "dual":
        nbytes = (t + 1) * (scheme.dim_code + 1) * itemsize
    elif oracle == "clx":
        nbytes = 16 * t
    else:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLE_NAMES}")
    return max(1, int(DECIDE_BYTES // max(nbytes, 1)))


def _decide(scheme: SchemeInstance, a_block: np.ndarray, oracle: str) -> np.ndarray:
    """The oracle's verdict on each row of a B x t block of complements."""
    try:
        fn = _ORACLES[oracle]
    except KeyError:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLE_NAMES}") from None
    return fn(scheme, a_block)


def _decide_one(scheme: SchemeInstance, a_idx, oracle: str) -> bool:
    return bool(_decide(scheme, np.asarray(a_idx, dtype=np.int64)[None], oracle)[0])


def is_qualified_kernel(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Function-space oracle; when qualified, the witness is the function
    that vanishes on the complement and equals 1 at P0."""
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    if not _decide_one(scheme, a_idx, "kernel"):
        return QualifiedVerdict(False)
    return QualifiedVerdict(True, _p0_witness(scheme, a_idx))


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
    size = decide_block_size(scheme, t, oracle)
    qualified = 0
    combos = combinations(range(n), t)
    while block := list(islice(combos, size)):
        a_block = np.array(block, dtype=np.int64).reshape(len(block), t)
        qualified += int(_decide(scheme, a_block, oracle).sum())
    return AccessCount(qualified, total)
