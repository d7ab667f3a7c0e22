"""Prime fields F_p and deterministic mod-p linear algebra.

A ``FieldElement`` is a value, not an arithmetic type: a canonical residue
tagged with its field, so the dealing API can reject a value from another
field (``FieldMismatchError``) instead of coercing it.  All arithmetic runs
on plain ints and on int64 (or int32) arrays with entries reduced mod p.

All elimination runs through one loop, ``_eliminate``: column reduction of
a whole stack of systems at once, with no row moves, in int32 when p is
small enough, reducing mod p only as often as exactness requires.  Entries
below a system's equations are bookkeeping carried along by every column
operation.  Solvability (``solvable_stack``, and ``solvable_array`` and the
row-space test as stacks of one) reads whether the right-hand side ends
zero.  Rank, RREF, kernel and solve reduce one matrix with the identity as
bookkeeping and read the pivot columns and each free column's combination
off the result.  Every matrix routine is canonical: the RREF, its pivot
columns, the kernel basis with a 1 at each free column and zeros at the
others, and the solution with its free variables set to 0 are unique, so
they do not depend on which pivot the loop picks, and identical inputs
always produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_FIELD_SIZE = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldMismatchError(Exception):
    """A value belongs to a different prime field."""


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
        return FieldElement(value, self)

    def __repr__(self):
        return f"F_{self.p}"


@dataclass(frozen=True)
class FieldElement:
    """A residue of a prime field, stored as its canonical representative
    in [0, p) and tagged with the field; it carries no arithmetic."""

    value: int
    field: PrimeField

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % self.field.p)

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"


# ---------------------------------------------------------------------------
# Array-level elimination.  All functions take entries already reduced mod p
# (int64) and never mutate their arguments.  With p < 2^31 every product of
# two residues fits in int64, and _eliminate bounds how many of them an entry
# accumulates, so the arithmetic below is exact.

def stack_dtype(p: int):
    """The dtype of a system stack over F_p: int32 while a residue product
    plus a residue fits in it, else int64."""
    return np.int32 if (p - 1) ** 2 + p < 2**31 else np.int64


@lru_cache(maxsize=8)
def _inverse_table(p: int) -> np.ndarray:
    """int32 array whose entry v is 1/v mod p, and 0 at v = 0 (int32 stacks only)."""
    inv = [0, 1]
    for v in range(2, p):
        inv.append(-(p // v) * inv[p % v] % p)
    table = np.array(inv, dtype=np.int32)
    table.flags.writeable = False
    return table


def _eliminate(m: np.ndarray, p: int, rows: int) -> None:
    """Column-reduce a stack of systems in place.

    ``m`` is B x W x H of dtype ``stack_dtype(p)`` with entries in [0, p),
    stored by columns: ``m[k, c]`` is column c of system k.  Its first
    ``rows`` entries are equations; the entries below them are bookkeeping
    that every column operation carries along.  The bookkeeping, if any,
    must start as the identity or zero, i.e. column c is zero past entry
    rows + c: a column operation then only adds earlier columns to later
    ones, so column c stays zero there until the loop reaches it, and
    updates touch entries up to rows + c alone.  Per column, each system
    pivots on the equation holding the column's largest residue and
    subtracts a multiple of the column from every later column so that the
    pivot equation reads zero there; a pivot equation is never picked again.
    Only column operations, so no row moves.  A system with no pivot in a
    column has a zero multiplier there.

    Afterwards every column is reduced mod p, and column c is a pivot
    column iff it is nonzero on the equations.  A column that is zero there
    is a combination of the columns left of it, and its bookkeeping
    records which: with the identity as bookkeeping, it holds the unique
    combination with a 1 at c and entries only at pivot columns left of c.
    Zero equations and zero columns are padding that changes no pivot.
    Once every system has pivoted on all its equations (possible from
    column rows - 1 on), the later columns are zero on the equations; they
    are only reduced mod p, and the loop stops.

    Reduction mod p is delayed (Dumas, Giorgi, Pernet, ACM TOMS 35(3),
    2008): column c is reduced when the loop reaches it and only later
    columns are updated after that, so the rest of the stack is reduced
    only after ``delay`` unreduced updates.
    """
    stacks, width, height = m.shape
    if not rows:
        return
    # an update moves an entry by at most (p - 1)^2, so an entry in [0, p)
    # absorbs this many of them without leaving the dtype: 48 695 at
    # p = 211 (int32), 1 at p = 46 337 (int32), 2 near 2^31 (int64)
    delay = (np.iinfo(m.dtype).max - p) // (p - 1) ** 2
    at = np.arange(stacks)
    inverses = _inverse_table(p) if m.dtype == np.int32 else None
    pending = 0
    pivots = None  # per system, pivots so far; counted from column rows - 1 on
    c = -1
    for c in range(width - 1):
        col = m[:, c]
        col %= p
        # any nonzero entry can pivot, so take the largest; it is 0 only in
        # a system with no pivot here, whose multiplier 0 makes its update 0
        pivot = col[:, :rows].argmax(axis=1)
        lead = col[at, pivot]
        if inverses is None:
            inv = np.array([pow(v, -1, p) if v else 0 for v in lead.tolist()], dtype=m.dtype)
        else:
            inv = inverses[lead]
        pivot_row = m[at, c + 1:, pivot]
        pivot_row %= p
        pivot_row *= inv[:, None]
        pivot_row %= p
        # column c is zero past entry rows + c (the bookkeeping precondition)
        top = min(rows + c + 1, height)
        m[:, c + 1:, :top] -= pivot_row[:, :, None] * col[:, None, :top]
        pending += 1
        if pending == delay:
            m[:, c + 1:] %= p
            pending = 0
        if c + 1 >= rows:
            # columns 0..c are reduced, and the pivot columns among them are
            # the ones nonzero on the equations
            pivots = m[:, :c + 1, :rows].any(axis=2).sum(axis=1) if pivots is None else pivots + (lead > 0)
            if pivots.min() == rows:
                break
    # the columns the loop did not reach (at least the last one, which has
    # no later column to update) are reduced only
    m[:, c + 1:] %= p


def _reduce(a: np.ndarray, p: int, book: bool = True):
    """Column-reduce one R x C matrix, with the identity as bookkeeping
    unless ``book`` is false.

    Returns (is_pivot, book): bool[C] marking the pivot columns, and the
    C x C bookkeeping (of ``stack_dtype(p)``), whose row c is column c's
    combination; C x 0 without bookkeeping.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    rows, cols = a.shape
    m = np.zeros((1, cols, rows + (cols if book else 0)), dtype=stack_dtype(p))
    m[0, :, :rows] = a.T % p
    if book:
        m[0, np.arange(cols), rows + np.arange(cols)] = 1
    _eliminate(m, p, rows)
    return m[0, :, :rows].any(axis=1), m[0, :, rows:]


def _kernel_basis(a: np.ndarray, p: int):
    """(canonical nullspace basis, pivot columns) of a, from one column
    reduction: row j of the basis is the bookkeeping of the j-th free
    column f, i.e. a 1 at f and entries only at pivot columns left of f."""
    is_pivot, book = _reduce(a, p)
    return book[~is_pivot].astype(np.int64), tuple(np.flatnonzero(is_pivot).tolist())


def rref_array(a: np.ndarray, p: int):
    """Reduced row echelon form mod p and its pivot column tuple.

    Read off the canonical kernel: row i of the RREF has a 1 at the i-th
    pivot column and, at each free column f, minus the kernel vector of f
    at that pivot column.
    """
    is_pivot, book = _reduce(a, p)
    pivots = np.flatnonzero(is_pivot)
    r = np.zeros(np.shape(a), dtype=np.int64)
    r[np.arange(len(pivots)), pivots] = 1
    r[:len(pivots), ~is_pivot] = -book[~is_pivot][:, pivots].T % p
    return r, tuple(pivots.tolist())


def rank_array(a: np.ndarray, p: int) -> int:
    """Rank of a mod p: its pivot count, from a reduction without bookkeeping."""
    return int(_reduce(a, p, book=False)[0].sum())


def kernel_array(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Canonical nullspace basis of a (one vector per free column)."""
    return list(_kernel_basis(a, p)[0])


def solve_array(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """One solution of a x = b (free variables set to 0), or NoSolutionError.

    One column reduction of [a | b]: the system is solvable iff b is not a
    pivot column, and then b's bookkeeping, 1 at b and minus x at the pivot
    columns of a, gives the solution.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} != row count {a.shape[0]}")
    is_pivot, book = _reduce(np.hstack([a, b[:, None]]), p)
    if is_pivot[-1]:
        raise NoSolutionError("right-hand side is not in the column space")
    return (-book[-1, :-1] % p).astype(np.int64)


def solvable_stack(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Whether a[k] x = b[k] has a solution, for each system k of a stack.

    ``a`` is B x R x C and ``b`` is B x R (or broadcasts to it); returns
    bool[B].  One column reduction of the whole stack: system k is solvable
    iff its right-hand side, the last column, is not a pivot column.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError(f"expected a B x R x C stack, got shape {a.shape}")
    stacks, rows, cols = a.shape
    b = np.asarray(b, dtype=np.int64)
    if b.shape[-1:] != (rows,):
        raise ValueError(f"rhs length {b.shape[-1:]} != row count {rows}")
    m = np.empty((stacks, cols + 1, rows), dtype=stack_dtype(p))
    m[:, :cols] = a.transpose(0, 2, 1) % p
    m[:, cols] = b % p
    _eliminate(m, p, rows)
    return ~m[:, -1].any(axis=1)


def solvable_array(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """Whether a x = b has a solution: ``solvable_stack`` on a stack of one."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return bool(solvable_stack(a[None], b[None], p)[0])


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

