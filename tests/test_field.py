import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agss.field import (
    NoSolutionError,
    PrimeField,
    _eliminate,
    in_row_space,
    is_prime,
    kernel_array,
    matvec_array,
    rank_array,
    rref_array,
    solvable_array,
    solve_array,
    stack_dtype,
)


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(561) and not is_prime(2**31 - 2)  # Carmichael, even


def test_field_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(3)  # p >= 5 required
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_kernel_examples():
    ident = np.eye(3, dtype=np.int64)
    assert kernel_array(ident, 5) == []
    full = np.array([[1, 2], [3, 4]])
    assert rank_array(full, 5) == 2
    assert kernel_array(full, 5) == []

    zero = np.zeros((2, 3), dtype=np.int64)
    basis = kernel_array(zero, 5)
    assert len(basis) == 3

    m = np.array([[1, 2], [2, 4]])
    basis = kernel_array(m, 5)
    assert len(basis) == 1
    # exhaustive oracle over all 25 vectors of F_5^2
    expected = [
        (x, y)
        for x in range(5)
        for y in range(5)
        if (x + 2 * y) % 5 == 0 and (2 * x + 4 * y) % 5 == 0 and (x, y) != (0, 0)
    ]
    assert tuple(basis[0]) in expected
    assert tuple(basis[0]) == (3, 1)


def test_solve_examples():
    ident = np.eye(2, dtype=np.int64)
    assert list(solve_array(ident, [3, 4], 5)) == [3, 4]

    inconsistent = np.array([[1, 1], [1, 1]])
    with pytest.raises(NoSolutionError):
        solve_array(inconsistent, [0, 1], 5)

    m = np.array([[1, 1], [0, 1]])
    x = solve_array(m, [0, 1], 5)
    assert list(x) == [4, 1]
    assert list(matvec_array(m, x, 5)) == [0, 1]


def _matvec_reference(a, b, m):
    """(a @ b) mod m summed entry by entry on Python ints."""
    b = np.asarray(b)
    cols = [b.tolist()] if b.ndim == 1 else b.T.tolist()
    out = [[sum(x * y for x, y in zip(row, col)) % m for col in cols] for row in np.asarray(a).tolist()]
    return np.array(out, dtype=np.int64).reshape(len(out), *b.shape[1:])


@pytest.mark.parametrize("p", [5, 101, 46337, 2**31 - 1])
def test_matvec_array_matches_python_ints(p):
    # operands unreduced, or all p - 1 so every sum of products is as large
    # as it can be: at p = 2^31 - 1 the int64 product holds two columns
    # (2 (p - 1)^2 < 2^63) and Python ints take three and more, where int64
    # would wrap
    rng = np.random.default_rng(p)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 2), (4, 3), (5, 7)]:
        for a in (rng.integers(-3 * p, 3 * p, size=(rows, cols)), np.full((rows, cols), p - 1)):
            for b in (rng.integers(-3 * p, 3 * p, size=cols), np.full((cols, 4), p - 1),
                      np.zeros((cols, 0), dtype=np.int64)):
                got, want = matvec_array(a, b, p), _matvec_reference(a, b, p)
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want)


def _random_matrix(rng, p, rows, cols):
    return rng.integers(0, p, size=(rows, cols))


def test_rank_nullity_and_kernel_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = int(rng.choice([5, 13, 101]))
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = _random_matrix(rng, p, rows, cols)
        r = rank_array(a, p)
        kern = kernel_array(a, p)
        assert r + len(kern) == cols
        for v in kern:
            assert not ((a @ v) % p).any()


def test_solve_roundtrip_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = int(rng.choice([5, 13, 101]))
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = _random_matrix(rng, p, rows, cols)
        x_true = rng.integers(0, p, size=cols)
        b = (a @ x_true) % p
        x = solve_array(a, b, p)
        assert np.array_equal((a @ x) % p, b)


def test_in_row_space_matches_rank_test():
    rng = np.random.default_rng(13)
    for _ in range(80):
        p = int(rng.choice([5, 13]))
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = _random_matrix(rng, p, rows, cols)
        v = rng.integers(0, p, size=cols)
        stacked = np.vstack([a, v[None, :]])
        assert in_row_space(a, v, p) == (rank_array(stacked, p) == rank_array(a, p))


def test_rref_is_canonical_and_deterministic():
    a = np.array([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    r1, piv1 = rref_array(a, 5)
    r2, piv2 = rref_array(a, 5)
    assert np.array_equal(r1, r2) and piv1 == piv2
    # pivots are 1 and pivot columns are unit vectors
    for i, c in enumerate(piv1):
        assert r1[i, c] == 1
        col = r1[:, c].copy()
        col[i] = 0
        assert not col.any()


@st.composite
def small_matrices(draw, primes=(5, 13, 101)):
    """(p, a) with a at most 8 x 8 over F_p; half are built with low rank."""
    p = draw(st.sampled_from(primes))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def entries(r, c):
        flat = draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=np.int64).reshape(r, c)

    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        # object dtype keeps the product exact for p near 2^31
        low = entries(rows, k).astype(object) @ entries(k, cols).astype(object) % p
        return p, low.astype(np.int64)
    return p, entries(rows, cols)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_rref_properties_pin_the_canonical_form(pa):
    p, a = pa
    before = a.copy()
    r, pivots = rref_array(a, p)
    assert np.array_equal(a, before)  # the input is not mutated
    assert r.shape == a.shape and r.dtype == np.int64
    assert ((0 <= r) & (r < p)).all()
    assert list(pivots) == sorted(set(pivots))
    for i, c in enumerate(pivots):
        # leading entry of row i is a 1 in column c
        assert not r[i, :c].any() and r[i, c] == 1
        # pivot columns are unit vectors
        col = r[:, c].copy()
        col[i] = 0
        assert not col.any()
    # zero rows come last
    assert not r[len(pivots):].any()
    assert len(pivots) == rank_array(a, p)
    # the row space is unchanged
    assert all(in_row_space(r, row, p) for row in a)
    assert all(in_row_space(a, row, p) for row in r)



def reference_rref(a, p):
    """Gauss-Jordan on Python ints, reducing every entry after every step."""
    rows, cols = np.shape(a)
    m = [[int(x) % p for x in row] for row in a]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, rows) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for j in range(rows):
            if j != r and m[j][c]:
                f = m[j][c]
                m[j] = [(x - f * y) % p for x, y in zip(m[j], m[r])]
        pivots.append(c)
    return np.array(m, dtype=np.int64).reshape(rows, cols), tuple(pivots)


def reference_kernel(a, p):
    """The nullspace basis read off the reference RREF, one vector per free
    column f: a 1 at f and minus RREF[i, f] at the i-th pivot column."""
    ref, pivots = reference_rref(a, p)
    basis = []
    for f in (c for c in range(np.shape(a)[1]) if c not in pivots):
        v = np.zeros(np.shape(a)[1], dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -ref[i, f] % p
        basis.append(v)
    return basis


def reference_solve(a, b, p):
    """The solution of a x = b with free variables 0, read off the reference
    RREF of [a | b], or None when b is a pivot column."""
    cols = np.shape(a)[1]
    ref, pivots = reference_rref(np.hstack([a, np.reshape(b, (-1, 1))]), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = ref[i, -1]
    return x


def _residues(data, p, size):
    return np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)), dtype=np.int64)


def _assert_solve_matches_the_reference(a, b, p):
    want = reference_solve(a, b, p)
    if want is None:
        with pytest.raises(NoSolutionError):
            solve_array(a, b, p)
    else:
        got = solve_array(a, b, p)
        assert got.dtype == np.int64 and np.array_equal(got, want)


# 2^31 - 1 and 1753413037 take int64 stacks, whose entries absorb only 2 and
# 3 unreduced updates, so the delayed reduction must fire inside an 8 x 8
# elimination; 101 takes int32 stacks
@settings(max_examples=300, deadline=None)
@given(small_matrices(primes=(2**31 - 1, 1753413037, 101)), st.data())
def test_elimination_near_the_field_cap_matches_a_reference(pa, data):
    p, a = pa
    r, pivots = rref_array(a, p)
    ref, ref_pivots = reference_rref(a, p)
    assert pivots == ref_pivots and np.array_equal(r, ref)
    assert rank_array(a, p) == len(ref_pivots)
    kern, want = kernel_array(a, p), reference_kernel(a, p)
    assert len(kern) == len(want) and all(np.array_equal(v, w) for v, w in zip(kern, want))
    # vec is in the row space iff appending it keeps the reference rank
    vec = _residues(data, p, a.shape[1])
    grown = len(reference_rref(np.vstack([a, vec[None, :]]), p)[1])
    assert in_row_space(a, vec, p) == (grown == len(ref_pivots))
    assert in_row_space(a, a[-1], p)
    # a random rhs, and one in the column space
    _assert_solve_matches_the_reference(a, _residues(data, p, a.shape[0]), p)
    _assert_solve_matches_the_reference(a, _exact_product(a, _residues(data, p, a.shape[1]), p), p)


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes_match_the_reference(shape, p):
    a = np.zeros(shape, dtype=np.int64)
    ref, ref_pivots = reference_rref(a, p)
    r, pivots = rref_array(a, p)
    assert np.array_equal(r, ref) and r.shape == shape and pivots == ref_pivots == ()
    assert rank_array(a, p) == 0
    kern, want = kernel_array(a, p), reference_kernel(a, p)
    assert len(kern) == len(want) == shape[1] and all(np.array_equal(v, w) for v, w in zip(kern, want))
    _assert_solve_matches_the_reference(a, np.zeros(shape[0], dtype=np.int64), p)
    assert solvable_array(a, np.zeros(shape[0], dtype=np.int64), p)
    if shape[0]:
        # no unknowns and a nonzero rhs: no solution
        b = np.arange(1, shape[0] + 1)
        _assert_solve_matches_the_reference(a, b, p)
        assert not solvable_array(a, b, p)


def test_rank_matches_a_reference_on_random_deficient_and_empty_shapes(monkeypatch):
    import agss.field

    shapes = []
    eliminate = agss.field._eliminate

    def spy(m, p, rows):
        shapes.append((m.shape, rows))
        return eliminate(m, p, rows)

    monkeypatch.setattr(agss.field, "_eliminate", spy)
    rng = np.random.default_rng(11)
    for p in (7, 101, 2**31 - 1):
        cases = [np.zeros(shape, dtype=np.int64) for shape in [(0, 4), (4, 0), (0, 0), (3, 5)]]
        for rows, cols in [(6, 9), (9, 6), (12, 12), (1, 30)]:
            cases.append(rng.integers(0, p, size=(rows, cols)))
            for k in range(1, min(rows, cols)):  # rank at most k
                left = rng.integers(0, p, size=(rows, k)).astype(object)
                cases.append((left @ rng.integers(0, p, size=(k, cols)).astype(object) % p).astype(np.int64))
        for a in cases:
            shapes.clear()
            assert rank_array(a, p) == len(reference_rref(a, p)[1])
            # the matrix alone, stored by columns, with every entry an equation
            rows, cols = a.shape
            assert shapes == [((1, cols, rows), rows)]


def test_elimination_near_the_field_cap_on_larger_matrices():
    # 20+ unreduced updates of size ~2^60 would leave int64 without the guard
    rng = np.random.default_rng(31)
    for p in (2**31 - 1, 1753413037):
        for rows, cols, k in [(24, 24, 24), (24, 30, 24), (30, 20, 20), (24, 24, 12)]:
            left = rng.integers(0, p, size=(rows, k)).astype(object)
            a = (left @ rng.integers(0, p, size=(k, cols)).astype(object) % p).astype(np.int64)
            r, pivots = rref_array(a, p)
            ref, ref_pivots = reference_rref(a, p)
            assert pivots == ref_pivots and np.array_equal(r, ref)


def _solvable_by_rank(a, b, p):
    """Reference: a x = b is solvable iff appending b keeps the rank."""
    rank = len(reference_rref(a, p)[1])
    return rank == len(reference_rref(np.hstack([a, b[:, None]]), p)[1])


def _exact_product(a, b, p):
    # object dtype keeps the product exact for p near 2^31
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).astype(np.int64)


def solvable_stack(a, b, p):
    """Whether a[k] x = b[k] is solvable, for each system of a B x R x C
    stack (b is B x R or broadcasts to it), from one ``_eliminate`` call on
    the augmented stack: system k is solvable iff its last column, the
    right-hand side, ends zero on the equations."""
    stacks, rows, cols = np.shape(a)
    m = np.empty((stacks, cols + 1, rows), dtype=stack_dtype(p))
    m[:, :cols] = np.asarray(a, dtype=np.int64).transpose(0, 2, 1) % p
    m[:, cols] = np.asarray(b, dtype=np.int64) % p
    _eliminate(m, p, rows)
    return ~m[:, -1].any(axis=1)


# 46337 is the largest prime with an int32 stack, whose delay is 1, so the
# stack is reduced after every column; p near 2^31 takes int64 with delay 2
STACK_PRIMES = (5, 101, 211, 46337, 2**31 - 1)


@st.composite
def system_stacks(draw):
    """(p, a, b): a B x R x C stack of mixed-rank systems with zero padding.

    Per system: random or low-rank entries; some rows and columns zeroed
    as padding; optionally a zero first column, so row 0 pivots only
    later; and a right-hand side drawn at random, from the span, or from
    the last column alone (decided only when the loop reaches it).
    """
    p = draw(st.sampled_from(STACK_PRIMES))
    count, rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 7)), draw(st.integers(0, 7))

    def entries(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)

    def mask(size):
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)

    a = np.zeros((count, rows, cols), dtype=np.int64)
    b = np.zeros((count, rows), dtype=np.int64)
    for k in range(count):
        if draw(st.booleans()):
            rank = draw(st.integers(0, min(rows, cols)))
            a[k] = _exact_product(entries(rows, rank), entries(rank, cols), p)
        else:
            a[k] = entries(rows, cols)
        a[k][mask(rows), :] = 0
        a[k][:, mask(cols)] = 0
        if cols and draw(st.booleans()):
            a[k][:, 0] = 0
        rhs = draw(st.sampled_from(["random", "span", "last"]))
        if rhs == "random" or not cols:
            b[k] = entries(rows)
        elif rhs == "span":
            b[k] = _exact_product(a[k], entries(cols), p)
        else:
            b[k] = _exact_product(a[k][:, -1:], entries(1), p)
            if rows and draw(st.booleans()):
                b[k][-1] = (b[k][-1] + 1) % p
    return p, a, b


@settings(max_examples=300, deadline=None)
@given(system_stacks())
def test_solvable_stack_matches_the_rank_test(pab):
    p, a, b = pab
    before = (a.copy(), b.copy())
    got = solvable_stack(a, b, p)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])  # inputs not mutated
    assert got.dtype == bool and got.shape == (len(a),)
    want = [_solvable_by_rank(a[k], b[k], p) for k in range(len(a))]
    assert got.tolist() == want
    # a stack of one gives each system's verdict on its own
    assert [solvable_array(a[k], b[k], p) for k in range(len(a))] == want


def test_solvable_stack_examples():
    # column 0 has no pivot; row 0 must survive to pivot column 1, where it
    # contradicts row 1 (x1 = 1 and x1 = 2)
    a = np.array([[[0, 1], [0, 1]], [[1, 0], [0, 0]]])
    assert solvable_stack(a, [[1, 2], [3, 0]], 5).tolist() == [False, True]
    assert solvable_stack(a, [[2, 2], [3, 1]], 5).tolist() == [True, False]
    # no equations: always solvable; no unknowns: solvable iff b = 0
    assert solvable_stack(np.zeros((2, 0, 3)), np.zeros((2, 0)), 7).tolist() == [True, True]
    assert solvable_stack(np.zeros((2, 2, 0)), [[0, 0], [0, 7]], 7).tolist() == [True, True]
    assert solvable_stack(np.zeros((2, 2, 0)), [[0, 0], [0, 3]], 7).tolist() == [True, False]
    # the rhs broadcasts over the stack
    assert solvable_stack(np.stack([np.eye(2), np.zeros((2, 2))]), [1, 1], 5).tolist() == [True, False]


def test_stack_dtype_follows_p():
    assert stack_dtype(46337) == np.int32  # (p - 1)^2 + p < 2^31
    assert stack_dtype(46349) == np.int64
    assert stack_dtype(2**31 - 1) == np.int64


def test_solvable_stack_on_systems_longer_than_the_delay():
    # 60 columns: at p = 46337 (int32) and p near 2^31 (int64) the stack is
    # reduced several times inside one elimination
    rng = np.random.default_rng(41)
    for p in (211, 46337, 2**31 - 1):
        a = np.empty((4, 60, 60), dtype=np.int64)
        for k, rank in enumerate((60, 59, 45, 30)):
            a[k] = _exact_product(rng.integers(0, p, size=(60, rank)), rng.integers(0, p, size=(rank, 60)), p)
        span = np.stack([_exact_product(a[k], rng.integers(0, p, size=60), p) for k in range(4)])
        off = rng.integers(0, p, size=(4, 60))
        for b in (span, off):
            want = [_solvable_by_rank(a[k], b[k], p) for k in range(4)]
            assert solvable_stack(a, b, p).tolist() == want
        assert all(solvable_stack(a, span, p))
