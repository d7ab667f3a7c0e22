"""Exact arithmetic in prime fields F_p and deterministic linear algebra.

Field elements are immutable values that carry their modulus; mixing
elements of different fields is a hard error, never a coercion.  Matrices
are plain int64 arrays with entries reduced mod p, and every routine is
canonical: one forward elimination loop picks the first nonzero pivot in
column order, so identical inputs always produce bit-identical outputs.
That loop delays reduction mod p (Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008): a step reduces only the pivot column and the pivot row, and the
trailing block is reduced only as often as int64 exactness requires.
Rank, RREF, kernel, solve and the row-space test all run through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_FIELD_SIZE = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldMismatchError(Exception):
    """Operands belong to different prime fields."""


class DivisionByZeroError(Exception):
    """Inversion or division of the zero element."""


class NoSolutionError(Exception):
    """The linear system M x = b is inconsistent."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every 64-bit input."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p with p >= 5 (characteristic 2 and 3 excluded)."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int):
            raise TypeError(f"field size must be an int, got {type(p).__name__}")
        if p < 5:
            raise ValueError(f"field size must be at least 5, got {p}")
        if p > MAX_FIELD_SIZE:
            raise ValueError(f"field size is capped at 2^31, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")

    def element(self, value: int) -> "FieldElement":
        return FieldElement(int(value) % self.p, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def __repr__(self):
        return f"F_{self.p}"


@dataclass(frozen=True)
class FieldElement:
    """An element of a prime field, stored as its canonical representative."""

    value: int
    field: PrimeField

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % self.field.p)

    def _operand(self, other):
        """Lift an int or same-field element to a raw residue."""
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.field} and {other.field}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement((self.value + v) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement((self.value - v) % self.field.p, self.field)

    def __rsub__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement((v - self.value) % self.field.p, self.field)

    def __mul__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value * v % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.p, self.field)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.value == 0:
            raise DivisionByZeroError("0 has no inverse")
        return FieldElement(pow(self.value, n, self.field.p), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZeroError("0 has no inverse")
        return FieldElement(pow(self.value, -1, self.field.p), self.field)

    def __truediv__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise DivisionByZeroError("division by zero")
        return FieldElement(self.value * pow(v, -1, self.field.p) % self.field.p, self.field)

    def __rtruediv__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(v, self.field) / self

    def is_zero(self) -> bool:
        return self.value == 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"


# ---------------------------------------------------------------------------
# Array-level elimination.  All functions take entries already reduced mod p
# (int64) and never mutate their arguments.  With p < 2^31 every product of
# two residues fits in int64, and _forward_echelon bounds how many of them an
# entry accumulates, so the arithmetic below is exact.

def _forward_echelon(a: np.ndarray, p: int):
    """Forward elimination with pivot rows normalized to 1.

    Returns (m, pivots) where rows 0..len(pivots)-1 of m are an echelon
    basis of the row space.  Columns left of each pivot are already zero,
    so updates touch only the trailing block.

    Reduction mod p is delayed: each step reduces only the pivot column
    (to find the pivot) and the pivot row, and subtracts the rank-1 update
    from the trailing block unreduced; the block is reduced after ``delay``
    unreduced updates.  Every column is reduced when the loop reaches it and
    only later columns are updated after that, so the result is the same as
    with a reduction after every step.
    """
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    # an update moves an entry by less than (p - 1)^2, so an entry in [0, p)
    # absorbs this many of them without leaving int64 (2 near p = 2^31)
    delay = (2**63 - 1 - p) // (p - 1) ** 2
    pending = 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        row = m[r, c:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        m[r + 1:, c:] -= m[r + 1:, c, None] * row
        pending += 1
        if pending == delay:
            m[r + 1:, c + 1:] %= p
            pending = 0
        pivots.append(c)
        r += 1
    return m, pivots


def rref_array(a: np.ndarray, p: int):
    """Reduced row echelon form mod p with first-nonzero pivoting.

    Forward elimination, then back-substitution clears the entries above
    each pivot.  Returns (canonical matrix, pivot column tuple).
    """
    m, pivots = _forward_echelon(a, p)
    return _back_substitute(m, pivots, p), tuple(pivots)


def _back_substitute(m: np.ndarray, pivots, p: int) -> np.ndarray:
    """Clear the entries above each pivot of a forward echelon form, in place."""
    for r, c in enumerate(pivots):
        # row r is zero left of c, so earlier pivot columns stay unit vectors
        col = m[:r, c]
        if col.any():
            m[:r, c:] -= np.outer(col, m[r, c:])
            m[:r, c:] %= p
    return m


def rank_array(a: np.ndarray, p: int) -> int:
    return len(_forward_echelon(a, p)[1])


def kernel_array(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Canonical nullspace basis of a (one vector per free column)."""
    return list(_kernel_from_rref(*rref_array(a, p), p))


def _kernel_from_rref(r: np.ndarray, pivots, p: int) -> np.ndarray:
    """The nullspace basis read off an RREF, one row per free column f:
    a 1 at f and -r[i, f] at the i-th pivot column."""
    cols = r.shape[1]
    pivots = list(pivots)
    pivot_set = set(pivots)
    free = [f for f in range(cols) if f not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for j, f in enumerate(free):
        basis[j, f] = 1
        basis[j, pivots] = -r[:len(pivots), f] % p
    return basis


def _augmented_echelon(a: np.ndarray, b: np.ndarray, p: int):
    """Forward elimination of [a | b]; returns (m, pivots, solvable)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} != row count {a.shape[0]}")
    m, pivots = _forward_echelon(np.hstack([a, b[:, None]]), p)
    return m, pivots, a.shape[1] not in pivots


def _solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a x = b (free variables set to 0), or None.

    One forward elimination decides solvability; back-substitution runs
    only when a solution exists.
    """
    m, pivots, solvable = _augmented_echelon(a, b, p)
    if not solvable:
        return None
    r = _back_substitute(m, pivots, p)
    x = np.zeros(m.shape[1] - 1, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, -1]
    return x


def solve_array(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """One solution of a x = b (free variables set to 0), or NoSolutionError."""
    x = _solve(a, b, p)
    if x is None:
        raise NoSolutionError("right-hand side is not in the column space")
    return x


def solvable_array(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """Whether a x = b has a solution (forward elimination only)."""
    return _augmented_echelon(a, b, p)[2]


def in_row_space(a: np.ndarray, vec: np.ndarray, p: int) -> bool:
    """Whether vec lies in the row space of a, i.e. a^T x = vec is solvable."""
    return solvable_array(np.asarray(a).T, vec, p)


def matvec_array(a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(a @ v) mod p, exact for any p below the field cap."""
    a = np.asarray(a, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64) % p
    if a.size == 0:
        return np.zeros(a.shape[0], dtype=np.int64)
    # int64 accumulation is safe only while cols * p^2 < 2^63
    if a.shape[1] * p * p < 2**62:
        return (a % p) @ v % p
    acc = (a.astype(object) % p) @ v.astype(object) % p
    return np.array([int(x) for x in acc], dtype=np.int64)

