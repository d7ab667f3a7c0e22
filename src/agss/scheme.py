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
* ``dual``   -- does the evaluation code contain a word equal to 1 at
  position 0 and supported inside {0} union S?  (solved on code coordinates)
* ``clx``    -- the group-law criterion on elliptic curves: with t = |A| and
  B the group inverse of the sum of A, qualified means t <= m - 2, or
  t = m and the sum of A is the group identity, or t = m - 1 and B != P0.

All three must agree everywhere; a disagreement is a bug signal, which the
command-line front end turns into a dedicated exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .curves import (
    Curve,
    EllipticCurve,
    INFINITY,
    MonomialBasis,
    Point,
    eval_basis,
    group_structure,
    is_infinity,
    rr_basis,
)
from .field import (
    FieldElement,
    FieldMismatchError,
    NoSolutionError,
    _solve,
    in_row_space,
    kernel_array,
    matvec_array,
    rank_array,  # unused here, but bench/probes.py wraps agss.scheme.rank_array
    solvable_array,
    solve_array,
)
from .groups import InstanceTooLargeError

ENUMERATION_LIMIT = 10**7

ORACLE_NAMES = ("kernel", "dual", "clx")


class DuplicatePointError(Exception):
    """Scheme points are not pairwise distinct (or collide with infinity)."""


class DegreeOutOfRangeError(Exception):
    """The degree bound m violates 2g - 2 < m <= n - 1."""


class SecretPositionDegenerateError(Exception):
    """Every share-code word vanishes at the secret position."""


class NotQualifiedError(Exception):
    """Reconstruction attempted from an unqualified subset."""


class WrongGenusError(Exception):
    """A genus-1-only operation was called on another curve."""


class QNotIdentityError(Exception):
    """The group-law oracle requires the pole point to be the group identity."""


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
        vals = [field.element(int(v)) for v in line.strip().split(",")]
        if not vals:
            raise ValueError("empty share line")
        return cls(vals[0], tuple(vals[1:]))


@dataclass(eq=False)
class SchemeInstance:
    """A fully materialized scheme: curve, points, degree, and both codes.

    ``gen_matrix`` is the (m - g + 1) x (n + 1) evaluation matrix with
    column j holding the basis values at point j (the secret position is
    column 0); ``omega_matrix`` rows form the canonical nullspace basis,
    i.e. a basis of the share code.  Both are read-only int64 arrays with
    entries reduced mod p.
    """

    curve: Curve
    q_point: Point
    p0: Point
    players: tuple[Point, ...]
    m: int
    basis: MonomialBasis
    gen_matrix: np.ndarray
    omega_matrix: np.ndarray

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
    def _clx_data(self):
        if not isinstance(self.curve, EllipticCurve):
            raise WrongGenusError("group-law oracle requires an elliptic curve")
        if not is_infinity(self.q_point):
            raise QNotIdentityError("pole point must be the group identity")
        table = group_structure(self.curve)
        residues = np.array([table.log(pt) for pt in self.players], dtype=np.int64)
        return table, residues, table.log(self.p0)


def scheme_build(curve: Curve, p0: Point, players: Iterable[Point], m: int) -> SchemeInstance:
    """Validate the configuration and materialize both code bases."""
    players = tuple(players)
    n = len(players)
    g = curve.genus
    if not 2 * g - 2 < m <= n - 1:
        raise DegreeOutOfRangeError(f"need 2g-2 < m <= n-1, got m={m}, g={g}, n={n}")
    pts = (p0, *players)
    for pt in pts:
        if is_infinity(pt):
            raise DuplicatePointError("a scheme point coincides with the pole point at infinity")
    if len(set(pts)) != n + 1:
        raise DuplicatePointError("scheme points must be pairwise distinct")

    basis = rr_basis(curve, m)
    p = curve.field.p
    cols = [eval_basis(curve, basis, pt) for pt in pts]
    gen = np.array(cols, dtype=np.int64).T.copy()  # rows = basis functions, cols = points

    omega_rows = kernel_array(gen, p)
    # nullity = (n + 1) - rank, so full row rank is exactly this kernel size
    if len(omega_rows) != gen.shape[1] - len(basis):
        raise RuntimeError("evaluation matrix lost rank; invalid configuration")
    if not any(int(row[0]) for row in omega_rows):
        raise SecretPositionDegenerateError("every share-code word vanishes at position 0")

    omega = np.array(omega_rows, dtype=np.int64)
    gen.flags.writeable = False
    omega.flags.writeable = False
    return SchemeInstance(
        curve=curve,
        q_point=INFINITY,
        p0=p0,
        players=players,
        m=m,
        basis=basis,
        gen_matrix=gen,
        omega_matrix=omega,
    )


# --- dealing and reconstruction ------------------------------------------------

def _residue(field, value) -> int:
    """The canonical int of a secret or share; a FieldElement must be over ``field``."""
    if isinstance(value, FieldElement):
        if value.field != field:
            raise FieldMismatchError(f"a value in {value.field} given to a scheme over {field}")
        return value.value
    return int(value) % field.p


def share(scheme: SchemeInstance, secret, seed: int) -> ShareVector:
    """Deal a uniformly random share-code word with the given secret at position 0.

    Deterministic for a fixed (scheme, secret, seed): the PCG64 stream seeded
    by ``seed`` supplies the coset coefficients.
    """
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
    a_idx = _complement(scheme, s_idx)
    rows = np.vstack([scheme.player_rows[a_idx], scheme.p0_row[None, :]])
    rhs = np.zeros(len(a_idx) + 1, dtype=np.int64)
    rhs[-1] = 1
    try:
        coeff = solve_array(rows, rhs, p)
    except NoSolutionError:
        raise NotQualifiedError(f"subset {list(s_idx)} cannot reconstruct the secret") from None
    weights = matvec_array(scheme.player_rows[list(s_idx)], coeff, p)
    share_vals = np.array([_residue(scheme.field, v) for v in shares], dtype=np.int64)
    total = int((weights * share_vals % p).sum() % p)
    return scheme.field.element(-total)


# --- qualification oracles -----------------------------------------------------

def _kernel_qualified(scheme: SchemeInstance, a_idx) -> bool:
    # qualified iff the P0 evaluation row is independent of the rows at A
    rows = scheme.player_rows[a_idx]
    return not in_row_space(rows, scheme.p0_row, scheme.field.p)


def _dual_system(scheme: SchemeInstance, a_idx):
    """The S-column system W_S y = -W_0 and the code coordinates of S.

    The share-code constraint W v = 0 admits v with v_0 = 1 and support
    inside {0} union S exactly when this system is solvable.
    """
    w = scheme.omega_matrix
    mask = np.ones(scheme.n + 1, dtype=bool)
    mask[0] = False
    if len(a_idx):
        mask[np.asarray(a_idx) + 1] = False
    s_cols = np.nonzero(mask)[0]
    return w[:, s_cols], (-w[:, 0]) % scheme.field.p, s_cols


def _dual_qualified(scheme: SchemeInstance, a_idx) -> bool:
    w_s, rhs, _ = _dual_system(scheme, a_idx)
    return solvable_array(w_s, rhs, scheme.field.p)


def _clx_qualified(scheme: SchemeInstance, a_idx) -> bool:
    table, residues, p0_res = scheme._clx_data
    t = len(a_idx)
    m = scheme.m
    if t > m:
        return False
    if t <= m - 2:
        return True
    d1, d2 = table.d1, table.d2
    if t:
        s = residues[a_idx].sum(axis=0)
        u, v = int(s[0]) % d1, int(s[1]) % d2
    else:
        u, v = 0, 0
    if t == m:
        return u == 0 and v == 0
    # t == m - 1: qualified iff the forced extra zero B = -(sum of A) avoids P0
    return (-u % d1, -v % d2) != p0_res


_ORACLES = {"kernel": _kernel_qualified, "dual": _dual_qualified, "clx": _clx_qualified}


def _decide(scheme: SchemeInstance, a_idx, oracle: str) -> bool:
    try:
        fn = _ORACLES[oracle]
    except KeyError:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLE_NAMES}") from None
    return fn(scheme, a_idx)


def is_qualified_kernel(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Function-space oracle; returns a witness function when qualified."""
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    if not _kernel_qualified(scheme, a_idx):
        return QualifiedVerdict(False)
    p = scheme.field.p
    for vec in kernel_array(scheme.player_rows[a_idx], p):
        if int((scheme.p0_row * vec % p).sum() % p):
            return QualifiedVerdict(True, vec)
    raise RuntimeError("rank test and kernel search disagree")  # unreachable


def is_qualified_dual(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Code-coordinate oracle; decides on the share-code basis columns."""
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    p = scheme.field.p
    w_s, rhs, s_cols = _dual_system(scheme, a_idx)
    y = _solve(w_s, rhs, p)  # one elimination gives the verdict and the word
    if y is None:
        return QualifiedVerdict(False)
    codeword = np.zeros(scheme.n + 1, dtype=np.int64)
    codeword[0] = 1
    codeword[s_cols] = y
    # lift the evaluation-code word back to a function for the witness
    witness = solve_array(scheme.gen_matrix.T, codeword, p)
    return QualifiedVerdict(True, witness)


def is_qualified_clx(scheme: SchemeInstance, subset: Sequence[int]) -> QualifiedVerdict:
    """Group-law oracle (elliptic curves only); no function witness."""
    s_idx = _check_subset(scheme, subset)
    a_idx = _complement(scheme, s_idx)
    return QualifiedVerdict(_clx_qualified(scheme, a_idx))


def privacy_check(scheme: SchemeInstance, subset: Sequence[int]) -> PrivacyVerdict:
    """Whether the subset's share coordinates pin down the secret coordinate.

    On the share-code basis, the position-0 column must lie in the span of
    the subset's columns; that is the dual oracle's solvability test.
    """
    a_idx = _complement(scheme, _check_subset(scheme, subset))
    if _dual_qualified(scheme, a_idx):
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
    if oracle not in _ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLE_NAMES}")
    qualified = 0
    for combo in combinations(range(n), t):
        if _decide(scheme, np.array(combo, dtype=np.int64), oracle):
            qualified += 1
    return AccessCount(qualified, total)
