import math
import time

import numpy as np
import pytest

from agss.curves import (
    INFINITY,
    AffinePoint,
    BadDegreeError,
    EvalAtInfinityError,
    PointNotOnCurveError,
    SingularCurveError,
    WrongGenusError,
    affine_points,
    elliptic_curve,
    enumerate_points,
    eval_basis,
    format_curve_spec,
    group_structure,
    hyperelliptic_curve,
    is_infinity,
    legendre_symbol,
    parse_curve_spec,
    point_count,
    rr_basis,
    sqrt_mod,
)
from agss.experiments import find_elliptic_curve, find_hyperelliptic_curve


def test_curve_validation():
    e = elliptic_curve(5, 1, 1)  # 4 + 27 = 31 = 1 mod 5, nonsingular
    assert e.genus == 1
    with pytest.raises(SingularCurveError):
        elliptic_curve(5, 0, 0)
    h = hyperelliptic_curve(7, [1, 0, 0, 0, 0, 1])  # y^2 = x^5 + 1
    assert h.genus == 2
    with pytest.raises(BadDegreeError):
        hyperelliptic_curve(7, [1, 0, 0, 0, 1])  # degree 4
    with pytest.raises(BadDegreeError):
        hyperelliptic_curve(7, [1, 1])  # degree 1
    with pytest.raises(SingularCurveError):
        hyperelliptic_curve(7, [0, 0, 1, 0, 0, 1])  # x^2 (1 + x^3) has a double root


def test_sqrt_mod():
    for p in (5, 13, 17, 101, 401):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
                assert r <= p - r  # canonical smaller root
            else:
                assert r is None
                assert legendre_symbol(a, p) == -1


def test_point_enumeration_against_brute_force():
    e = elliptic_curve(5, 1, 1)
    pts = enumerate_points(e)
    assert len(pts) == 9  # 8 affine + infinity
    assert sum(1 for pt in pts if is_infinity(pt)) == 1
    brute = {
        (x, y)
        for x in range(5)
        for y in range(5)
        if (y * y - (x**3 + x + 1)) % 5 == 0
    }
    assert {(pt.x, pt.y) for pt in pts if not is_infinity(pt)} == brute

    h = hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1])
    count = len(enumerate_points(h))
    brute2 = sum(
        1 for x in range(11) for y in range(11) if (y * y - (x**5 + 1)) % 11 == 0
    )
    assert count == brute2 + 1
    # Hasse window, g = 2
    assert abs(count - 12) <= 4 * 11**0.5


def test_group_law():
    e = elliptic_curve(5, 1, 1)
    p = AffinePoint(0, 1)
    assert e.add(p, INFINITY) == p
    assert is_infinity(e.add(p, e.neg(p)))
    dbl = e.add(p, p)
    assert (dbl.x, dbl.y) == (4, 2)
    assert e.contains(dbl)

    off_curve = AffinePoint(1, 1)
    with pytest.raises(PointNotOnCurveError):
        e.add(p, off_curve)


def test_points_are_ints_in_strictly_increasing_order():
    # 103 = 3 mod 4 and 101 = 1 mod 4 take the two branches of sqrt_mod
    for p in (103, 101):
        for curve in (elliptic_curve(p, 1, 1), hyperelliptic_curve(p, [1, 1, 0, 0, 0, 1])):
            affine = affine_points(curve)
            assert all(type(pt.x) is int and type(pt.y) is int for pt in affine)
            keys = [(pt.x, pt.y) for pt in affine]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(0 <= v < p for key in keys for v in key)


def test_contains_requires_canonical_coordinates():
    e = elliptic_curve(5, 1, 1)
    h = hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1])
    for curve in (e, h):
        pt = affine_points(curve)[0]
        p = curve.field.p
        assert curve.contains(pt)
        for shifted in (AffinePoint(pt.x + p, pt.y), AffinePoint(pt.x, pt.y + p)):
            assert not curve.contains(shifted)
            with pytest.raises(PointNotOnCurveError):
                eval_basis(curve, rr_basis(curve, 5), shifted)
    with pytest.raises(PointNotOnCurveError):
        e.add(AffinePoint(0, 1), AffinePoint(5, 1))


def test_coefficients_are_reduced_ints():
    assert elliptic_curve(13, 14, 1) == elliptic_curve(13, 1, 1)
    assert hash(elliptic_curve(13, 14, 1)) == hash(elliptic_curve(13, 1, 1))
    assert format_curve_spec(elliptic_curve(13, 14, -12)) == "ec:p=13,a=1,b=1"
    h = hyperelliptic_curve(7, [8, 0, 0, 0, 0, -6])
    assert h == hyperelliptic_curve(7, [1, 0, 0, 0, 0, 1])
    assert all(type(c) is int for c in h.f)
    with pytest.raises(BadDegreeError):
        hyperelliptic_curve(7, [1, 0, 0, 0, 0, 7])  # leading coefficient is 0 mod 7
    with pytest.raises(TypeError):
        elliptic_curve(13, 1.0, 1)
    with pytest.raises(TypeError):
        hyperelliptic_curve(7, [1, 0, 0, 0, 0, 1.0])


def test_group_law_properties_random_triples():
    e = elliptic_curve(101, 1, 1)
    pts = enumerate_points(e)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = (pts[int(i)] for i in rng.integers(0, len(pts), size=3))
        assert e.add(a, b) == e.add(b, a)
        assert e.add(e.add(a, b), c) == e.add(a, e.add(b, c))
    for pt in pts[:20]:
        assert e.scalar_mul(1, pt) == pt
        assert e.add(pt, e.scalar_mul(2, pt)) == e.scalar_mul(3, pt)
        assert is_infinity(e.scalar_mul(len(pts), pt))  # Lagrange


def test_group_structure_cyclic():
    e = elliptic_curve(5, 1, 1)
    table = group_structure(e)
    assert table.group.factors == (1, 9)
    assert table.group.order == 9
    assert table.log(INFINITY) == (0, 0)
    with pytest.raises(PointNotOnCurveError):
        table.log(AffinePoint(1, 1))


def test_group_structure_homomorphism_and_bijection():
    for spec in ("ec:p=13,a=1,b=1", "ec:p=101,a=1,b=1", "ec:p=101,a=3,b=0"):
        e = parse_curve_spec(spec)
        table = group_structure(e)
        pts = enumerate_points(e)
        n = len(pts)
        d1, d2 = table.group.factors
        assert d1 * d2 == n
        assert d2 % d1 == 0
        assert (e.field.p - 1) % d1 == 0
        assert len({table.log(pt) for pt in pts}) == n  # bijective
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = (pts[int(i)] for i in rng.integers(0, n, size=2))
            ua, va = table.log(a)
            ub, vb = table.log(b)
            assert table.log(e.add(a, b)) == ((ua + ub) % d1, (va + vb) % d2)


def test_group_structure_noncyclic():
    # y^2 = x^3 + 4x over F_5 has group Z_2 x Z_4
    e = elliptic_curve(5, 4, 0)
    table = group_structure(e)
    assert table.group.factors == (2, 4)
    pts = enumerate_points(e)
    assert len({table.log(pt) for pt in pts}) == 8
    for a in pts:
        for b in pts:
            ua, va = table.log(a)
            ub, vb = table.log(b)
            assert table.log(e.add(a, b)) == ((ua + ub) % 2, (va + vb) % 4)


@pytest.mark.parametrize("curve", [elliptic_curve(13, 1, 1), find_elliptic_curve(401), find_elliptic_curve(2003)])
def test_logs_match_one_log_per_point(curve):
    # one batch sized to every point against one sqrt(N)-stride log each
    table = group_structure(curve)
    pts = enumerate_points(curve)
    assert pts[0] == INFINITY
    batch = table.logs(pts)
    assert batch.dtype == np.int64 and batch.shape == (len(pts), 2)
    assert batch[0].tolist() == [0, 0]
    assert [tuple(row) for row in batch.tolist()] == [table.log(pt) for pt in pts]
    assert table.logs([]).shape == (0, 2)
    if curve.field.p == 2003:
        assert table.group.factors == (2, 1004)  # d1 > 1
    off = next(AffinePoint(x, 0) for x in range(curve.field.p) if curve.rhs(x))
    with pytest.raises(PointNotOnCurveError):
        table.logs([pts[1], off])


def test_group_structure_needs_genus_one():
    with pytest.raises(WrongGenusError):
        group_structure(hyperelliptic_curve(19, [1, 0, 0, 0, 0, 1]))
    # so does the group law, with its points on the curve
    h = parse_curve_spec("hyp:p=11,f=1,0,0,0,0,1")
    pt = affine_points(h)[0]
    for op in (lambda: h.neg(pt), lambda: h.add(pt, pt), lambda: h.scalar_mul(2, pt)):
        with pytest.raises(WrongGenusError):
            op()


def test_a_cubic_is_the_elliptic_curve():
    e = elliptic_curve(13, 1, 1)
    h = hyperelliptic_curve(13, [1, 1, 0, 1])
    assert h == e and hash(h) == hash(e)
    assert parse_curve_spec("hyp:p=13,f=1,1,0,1") == e
    assert format_curve_spec(h) == format_curve_spec(e) == "ec:p=13,a=1,b=1"
    assert (h.genus, h.a, h.b) == (1, 1, 1)
    assert group_structure(h) is group_structure(e)
    for other in ([1, 1, 1, 1], [1, 1, 0, 2]):  # an x^2 term, a non-monic cubic
        with pytest.raises(BadDegreeError):
            hyperelliptic_curve(13, other)
    with pytest.raises(SingularCurveError, match=r"4a\^3 \+ 27b\^2"):
        hyperelliptic_curve(5, [0, 0, 0, 1])


def test_group_structure_prime_order_is_cyclic():
    # find a small curve with prime point count
    from agss.field import is_prime

    for b in range(1, 30):
        try:
            e = elliptic_curve(23, 1, b)
        except SingularCurveError:
            continue
        n = len(enumerate_points(e))
        if is_prime(n):
            assert group_structure(e).group.factors == (1, n)
            return
    pytest.fail("no prime-order curve found in the search range")


def reference_group_structure(curve):
    """(factors, dlog) by ordering every point, then the two-generator search:
    g2 the first point of order d2 = the exponent, g1 the first point of
    order d1 = N / d2 whose product table u g1 + v g2 is injective."""
    pts = enumerate_points(curve)
    n = len(pts)
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]

    def point_order(pt):
        order = n
        for q in primes:
            while order % q == 0 and is_infinity(curve.scalar_mul(order // q, pt)):
                order //= q
        return order

    orders = {pt: point_order(pt) for pt in pts}
    d2 = math.lcm(*orders.values())
    d1 = n // d2
    g2 = next(pt for pt in pts if orders[pt] == d2)
    multiples = [curve.scalar_mul(v, g2) for v in range(d2)]
    for cand in pts:
        if orders[cand] != d1:
            continue
        dlog = {}
        for u in range(d1):
            base = curve.scalar_mul(u, cand)
            for v, mv in enumerate(multiples):
                dlog.setdefault(curve.add(base, mv), (u, v))
        if len(dlog) == n:
            return (d1, d2), dlog
    raise AssertionError("no generator pair")


def test_group_structure_matches_ordering_every_point():
    curves = [
        elliptic_curve(p, a, b)
        for p in (5, 7, 11, 13, 17, 19, 23)
        for a in range(p)
        for b in range(p)
        if (4 * a**3 + 27 * b * b) % p
    ]
    assert len(curves) == 1448
    noncyclic = 0
    for e in curves:
        factors, dlog = reference_group_structure(e)
        table = group_structure(e)
        assert point_count(e) == len(enumerate_points(e)) == len(dlog), e
        assert table.group.factors == factors, e
        for pt, element in dlog.items():  # every point of the curve
            assert table.log(pt) == element, (e, pt)
        noncyclic += factors[0] > 1
    assert noncyclic == 230


@pytest.mark.parametrize("curve", [
    *(find_hyperelliptic_curve(q) for q in (11, 13, 19, 101, 211)),
    hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1]),
    hyperelliptic_curve(19, [1, 0, 0, 0, 0, 1]),
    find_elliptic_curve(10007),
], ids=format_curve_spec)
def test_point_count_matches_the_listed_points(curve, monkeypatch):
    import agss.curves

    assert point_count(curve) == len(enumerate_points(curve))
    # in blocks of 7 values of x, the last one partial
    monkeypatch.setattr(agss.curves, "_COUNT_BLOCK", 7)
    assert point_count.__wrapped__(curve) == len(enumerate_points(curve))


def test_group_structure_at_scale():
    assert group_structure(elliptic_curve(2003, 1, 1)).group.factors == (2, 1004)
    e = elliptic_curve(10007, 1, 1)
    enumerate_points(e)
    start = time.perf_counter()
    table = group_structure.__wrapped__(e)
    elapsed = time.perf_counter() - start
    assert table.group.factors == (1, 10065)
    assert elapsed < 0.5, f"group of order 10 065 took {elapsed:.2f} s"


def test_rr_basis_examples():
    e = elliptic_curve(5, 1, 1)
    b3 = rr_basis(e, 3)
    assert b3.exponents == ((0, 0), (1, 0), (0, 1))  # 1, x, y
    assert b3.pole_orders == (0, 2, 3)
    assert len(b3) == 3 - 1 + 1

    assert rr_basis(e, 0).exponents == ((0, 0),)

    h = hyperelliptic_curve(7, [1, 0, 0, 0, 0, 1])
    b5 = rr_basis(h, 5)
    assert b5.exponents == ((0, 0), (1, 0), (2, 0), (0, 1))  # 1, x, x^2, y
    assert b5.pole_orders == (0, 2, 4, 5)
    assert len(b5) == 5 - 2 + 1


def test_rr_basis_dimension_law():
    def find_genus3(p):
        for a in range(1, p):
            try:
                return hyperelliptic_curve(p, [a, 1, 0, 0, 0, 0, 0, 1])
            except SingularCurveError:
                continue
        raise AssertionError("no genus-3 curve found")

    curves = [elliptic_curve(11, 1, 1), hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1]), find_genus3(11)]
    for curve in curves:
        g = curve.genus
        for m in range(2 * g - 1, 31):
            assert len(rr_basis(curve, m)) == m - g + 1
        # distinct pole orders, sorted
        orders = rr_basis(curve, 30).pole_orders
        assert len(set(orders)) == len(orders)
        assert list(orders) == sorted(orders)


def test_eval_basis():
    e = elliptic_curve(5, 1, 1)
    pt = AffinePoint(0, 1)
    vals = eval_basis(e, rr_basis(e, 3), pt)
    assert vals == (1, 0, 1)
    assert all(type(v) is int for v in vals)

    assert eval_basis(e, rr_basis(e, 0), pt) == (1,)

    h = hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1])
    some = affine_points(h)[1]
    x, y = some.x, some.y
    vals = eval_basis(h, rr_basis(h, 5), some)
    assert vals == (1, x, x * x % 11, y)

    with pytest.raises(EvalAtInfinityError):
        eval_basis(e, rr_basis(e, 3), INFINITY)


def test_curve_spec_roundtrip():
    for spec in ("ec:p=5,a=1,b=1", "hyp:p=7,f=1,0,0,0,0,1"):
        assert format_curve_spec(parse_curve_spec(spec)) == spec
    with pytest.raises(ValueError):
        parse_curve_spec("nope:p=5")
    with pytest.raises(ValueError):
        parse_curve_spec("ec:p=5,a=1")
    with pytest.raises(ValueError):
        parse_curve_spec("ec:p=5,a=1,b=x")
