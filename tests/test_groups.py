import itertools
import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agss import groups as groups_module
from agss.curves import group_structure
from agss.experiments import find_elliptic_curve, standard_points, standard_scheme
from agss.groups import (
    AbelianGroup,
    BudgetExceededError,
    ClosedFormError,
    InstanceTooLargeError,
    InvalidCycleTypeError,
    ShanksLog,
    TrivialGroupError,
    UnsupportedExclusionError,
    amplitude,
    char_sum,
    cofinite_amplitude,
    cofinite_subset_sum_counts,
    cycle_gen_function,
    cycle_type_count,
    cycle_types,
    falling_factorial,
    generalized_binomial,
    li_wan_bound_check,
    li_wan_m,
    log_generalized_binomial,
    parse_group_spec,
    periodic_weights,
    sieve_identity_eval,
    subset_sum_count,
    subset_sum_table,
    two_generator_table,
)

DATA = Path(__file__).resolve().parent / "data"
Z5 = AbelianGroup((5,))
Z4 = AbelianGroup((4,))
Z2x12 = AbelianGroup((2, 12))


def test_group_validation_and_indexing():
    with pytest.raises(ValueError):
        AbelianGroup((3, 5))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup((0,))
    g = Z2x12
    assert g.order == 24
    assert g.identity == (0, 0)
    assert g.add((1, 7), (1, 9)) == (0, 4)
    assert g.neg((1, 5)) == (1, 7)
    for i, a in enumerate(g.elements()):
        assert g.index(a) == i
        assert g.element_at(i) == a


def test_characters():
    g = Z2x12
    chars = list(g.characters())
    assert len(chars) == 24
    assert sum(1 for c in chars if c.is_trivial) == 1
    chi = g.character((1, 3))
    assert chi.order == 4  # lcm(2, 4)
    assert abs(chi(g.identity) - 1) < 1e-12
    a, b = (1, 5), (0, 7)
    assert abs(chi(g.add(a, b)) - chi(a) * chi(b)) < 1e-12
    assert chi.power(chi.order).is_trivial


def test_char_sum_examples():
    g = Z5
    full = list(g.elements())
    triv = g.character((0,))
    assert abs(char_sum(g, triv, full) - 5) < 1e-9
    chi = g.character((2,))
    assert abs(char_sum(g, chi, full)) < 1e-9  # orthogonality
    minus_one = [a for a in full if a != (3,)]
    s = char_sum(g, chi, minus_one)
    assert abs(s + chi((3,))) < 1e-9
    assert abs(abs(s) - 1) < 1e-9


def test_amplitude_examples():
    g = Z5
    full = list(g.elements())
    assert amplitude(g, full) < 1e-9
    assert abs(amplitude(g, full[:-1]) - 1) < 1e-9
    assert abs(amplitude(Z4, [(0,)]) - 1) < 1e-9
    with pytest.raises(TrivialGroupError):
        amplitude(AbelianGroup((1,)), [(0,)])
    with pytest.raises(ValueError):
        amplitude(g, [(0,), (0,)])  # duplicates


def test_amplitude_matches_direct_maximum():
    rng = np.random.default_rng(9)
    for factors in [(6,), (8,), (2, 4), (3, 9), (2, 2)]:
        g = AbelianGroup(factors)
        els = list(g.elements())
        for _ in range(5):
            k = int(rng.integers(1, g.order + 1))
            pick = sorted(rng.choice(g.order, size=k, replace=False).tolist())
            pts = [els[i] for i in pick]
            direct = max(
                abs(char_sum(g, chi, pts)) for chi in g.characters() if not chi.is_trivial
            )
            assert amplitude(g, pts) == pytest.approx(direct, abs=1e-9)


def test_amplitude_complement_identity():
    g = AbelianGroup((2, 12))
    els = list(g.elements())
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = int(rng.integers(1, g.order))
        pick = set(rng.choice(g.order, size=k, replace=False).tolist())
        pts = [els[i] for i in sorted(pick)]
        rest = [els[i] for i in range(g.order) if i not in pick]
        assert amplitude(g, pts) == pytest.approx(amplitude(g, rest), abs=1e-9)


def test_subset_sum_examples():
    full = list(Z5.elements())
    assert subset_sum_count(Z5, full, 2, (0,)) == 2  # {1,4}, {2,3}
    for b in full:
        assert subset_sum_count(Z5, full, 1, b) == 1
        assert subset_sum_count(Z5, full, 0, b) == (1 if b == (0,) else 0)
    pts = full[:3]
    for b in full:
        assert subset_sum_count(Z5, pts, 1, b) == (1 if b in pts else 0)


def test_subset_sum_against_brute_force():
    rng = np.random.default_rng(17)
    for factors in [(7,), (12,), (2, 6), (3, 6), (18,)]:
        g = AbelianGroup(factors)
        els = list(g.elements())
        n = min(len(els), 15)
        pick = sorted(rng.choice(len(els), size=n, replace=False).tolist())
        pts = [els[i] for i in pick]
        for t in range(0, min(n, 6) + 1):
            rows = subset_sum_table(g, pts, t)
            brute = {b: 0 for b in els}
            for combo in itertools.combinations(pts, t):
                total = g.identity
                for a in combo:
                    total = g.add(total, a)
                brute[total] += 1
            for b in els:
                assert rows[t][g.index(b)] == brute[b]
            assert sum(rows[t]) == math.comb(n, t)


def reference_subset_sum_table(group, points, t):
    """The pure-Python big-integer DP: the reference for subset_sum_table."""
    size = group.order
    rows = [[0] * size for _ in range(t + 1)]
    rows[0][0] = 1  # the empty subset sums to the identity (index 0)
    for count, a in enumerate(points, start=1):
        perm = [group.index(group.add(group.element_at(j), a)) for j in range(size)]
        for s in range(min(count, t), 0, -1):
            prev = rows[s - 1]
            cur = rows[s]
            for j, pj in enumerate(perm):
                v = prev[j]
                if v:
                    cur[pj] += v
    return rows


def assert_table_matches_reference(group, points, t):
    rows = subset_sum_table(group, points, t)
    ref = reference_subset_sum_table(group, points, t)
    assert len(rows) == t + 1
    assert [list(r) for r in rows] == ref
    assert all(type(v) is int for r in rows for v in r)
    assert sum(rows[t]) == math.comb(len(points), t)
    assert rows[-1] == rows[t]
    last = max(range(group.order), key=lambda i: ref[t][i])
    assert rows.cell(t, last) == ref[t][last]
    return rows


@pytest.mark.parametrize("factors", [(7,), (2, 6), (3, 6), (4, 8), (60,)])
def test_subset_sum_table_matches_reference_dp(factors):
    g = AbelianGroup(factors)
    els = list(g.elements())
    removed = set(np.random.default_rng(sum(factors)).choice(g.order, size=2, replace=False).tolist())
    pts = [els[i] for i in range(g.order) if i not in removed]
    n = len(pts)
    for t in sorted({0, 1, n // 2, n}):
        rows = assert_table_matches_reference(g, pts, t)
    with pytest.raises(IndexError):
        rows[n + 1]
    with pytest.raises(TypeError):
        rows[0] = rows[1]  # read-only


@pytest.mark.parametrize("q, moduli", [(101, 2), (211, 4)])
def test_subset_sum_table_matches_reference_on_sweep_points(q, moduli):
    scheme = standard_scheme(find_elliptic_curve(q), 0.5)
    group = group_structure(scheme.curve).group
    rows = assert_table_matches_reference(group, scheme.images[1:], scheme.m)
    assert len(rows.moduli) == moduli


def test_subset_sum_table_across_the_word_boundary():
    # rows 0..t need a second modulus exactly when C(n, s) first reaches 2^64
    g = AbelianGroup((68,))
    pts = list(g.elements())
    t0 = next(t for t in range(len(pts) + 1) if math.comb(len(pts), t) >= 2**64)
    assert len(assert_table_matches_reference(g, pts, t0 - 1).moduli) == 1
    assert len(assert_table_matches_reference(g, pts, t0).moduli) == 2
    # counts themselves above 2^64, so the uint64 table alone wraps
    g = AbelianGroup((76,))
    rows = assert_table_matches_reference(g, list(g.elements()), 38)
    assert max(rows[38]) > 2**64


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_subset_sum_table_matches_enumeration(data):
    g = AbelianGroup(data.draw(st.sampled_from([(1,), (5,), (8,), (2, 4), (3, 3), (2, 6), (13,)])))
    els = list(g.elements())
    pts = data.draw(st.lists(st.sampled_from(els), unique=True, max_size=min(g.order, 10)))
    t = data.draw(st.integers(0, len(pts)))
    rows = subset_sum_table(g, pts, t)
    for s in range(t + 1):
        brute = [0] * g.order
        for combo in itertools.combinations(pts, s):
            total = g.identity
            for a in combo:
                total = g.add(total, a)
            brute[g.index(total)] += 1
        assert list(rows[s]) == brute


def test_subset_sum_budget():
    g = AbelianGroup((2**20,))
    pts = [(i,) for i in range(2000)]
    with pytest.raises(BudgetExceededError):
        subset_sum_table(g, pts, 1500)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_cofinite_count_matches_reference_dp(data):
    g = AbelianGroup(data.draw(st.sampled_from([(1,), (7,), (2, 2), (2, 6), (4, 8), (60,)])))
    els = list(g.elements())
    # every supported X: inside {identity, p}
    p = data.draw(st.sampled_from(els))
    excluded = data.draw(st.sampled_from([[], [g.identity], [p], sorted({g.identity, p})]))
    pts = [a for a in els if a not in excluded]
    n = len(pts)
    ref = reference_subset_sum_table(g, pts, n)
    cells = [(t, b) for t in range(n + 1) for b in els]
    counts = cofinite_subset_sum_counts(g, excluded, cells)
    assert counts == [v for row in ref for v in row]


def test_cofinite_count_sums_to_the_binomial_on_a_sweep_group():
    scheme = standard_scheme(find_elliptic_curve(101), 0.5)
    g = group_structure(scheme.curve).group
    excluded = [g.identity, tuple(scheme.images[0].tolist())]
    for t in (scheme.m - 1, scheme.m):
        counts = cofinite_subset_sum_counts(g, excluded, [(t, b) for b in g.elements()])
        assert sum(counts) == math.comb(scheme.n, t)


def test_cofinite_count_past_the_word_size_matches_the_dp():
    g = AbelianGroup((2, 100))
    p = (1, 37)
    excluded = [g.identity, p]
    pts = [a for a in g.elements() if a not in excluded]
    t = 70
    rows = subset_sum_table(g, pts, t)
    assert len(rows.moduli) > 2 and max(rows[t]) > 2**128
    counts = cofinite_subset_sum_counts(g, excluded, [(t, b) for b in g.elements()])
    assert counts == list(rows[t])


def test_cofinite_count_rejects_unsupported_input():
    with pytest.raises(UnsupportedExclusionError):
        cofinite_subset_sum_counts(Z5, [(1,), (2,)], [(1, (0,))])
    with pytest.raises(ValueError):
        cofinite_subset_sum_counts(Z5, [(0,)], [(5, (0,))])  # t > n = 4
    assert cofinite_subset_sum_counts(Z5, [(0,)], []) == []


def reference_whole_group_counts(group, divisors, t):
    """F[k][c] from the closed form with a fresh math.comb per (k, d) and
    the Moebius function by trial division."""

    def mobius(n):
        result, q = 1, 2
        while q * q <= n:
            if n % q == 0:
                n //= q
                if n % q == 0:
                    return 0
                result = -result
            q += 1
        return -result if n > 1 else result

    size = group.order
    quotient = {s: math.prod(math.gcd(s, d) for d in group.factors) for s in divisors}
    phi = {
        d: [sum(mobius(d // s) * quotient[s] for s in divisors if d % s == 0 and top % s == 0) for top in divisors]
        for d in divisors
    }
    table = []
    for k in range(t + 1):
        acc = [0] * len(divisors)
        for d in (d for d in divisors if k % d == 0):
            coeff = (-1) ** (k + k // d) * math.comb(size // d, k // d)
            acc = [a + coeff * v for a, v in zip(acc, phi[d])]
        assert all(a % size == 0 for a in acc)
        table.append([a // size for a in acc])
    return table


@pytest.mark.parametrize("factors", [(1, 105), (1, 432), (2, 1004), (2, 6, 60)])
def test_whole_group_counts_match_fresh_binomials(factors):
    # with nothing excluded the streamed count is F(k, c); (0, ..., 0, c) has class c
    g = AbelianGroup(factors)
    e = factors[-1]
    divisors = [s for s in range(1, e + 1) if e % s == 0]
    t = g.order // 2 + 1
    cells = [(k, (0,) * (len(factors) - 1) + (c % e,)) for k in range(t + 1) for c in divisors]
    table = reference_whole_group_counts(g, divisors, t)
    assert cofinite_subset_sum_counts(g, [], cells) == [v for row in table for v in row]


def reference_cofinite_counts(group, p, cells):
    """N(t, b) over G minus {O, p}: E(k) = F(k) - E(k - 1) from the reference
    F table, then sum_j (-1)^j E(t - j, b - jp), with the class of an element
    found by testing every divisor."""
    e = group.factors[-1]
    divisors = [s for s in range(1, e + 1) if e % s == 0]
    rows, prev = [], [0] * len(divisors)
    for row in reference_whole_group_counts(group, divisors, max(t for t, _ in cells)):
        prev = [f - x for f, x in zip(row, prev)]
        rows.append(prev)

    def divisor_class(b):
        return max(c for c, s in enumerate(divisors) if all(v % math.gcd(s, d) == 0 for v, d in zip(b, group.factors)))

    out = []
    for t, b in cells:
        total = 0
        for j in range(t + 1):
            total += (-1) ** j * rows[t - j][divisor_class(b)]
            b = group.add(b, group.neg(p))
        out.append(total)
    return out


def sweep_cells(q):
    """The point group, P0's element and the two cells of the exact sweep at q."""
    curve = find_elliptic_curve(q)
    table = group_structure(curve)
    g = table.group
    p0, _, m = standard_points(curve, 0.5)
    p = table.log(p0)
    return g, p, [(m, g.identity), (m - 1, g.neg(p))]


@pytest.mark.parametrize("q", [101, 211, 401, 2003])
def test_streamed_sweep_counts_match_fresh_binomials(q):
    g, p, cells = sweep_cells(q)
    assert cofinite_subset_sum_counts(g, [g.identity, p], cells) == reference_cofinite_counts(g, p, cells)


def test_streamed_counts_keep_no_rows():
    # keeping every row F[k], E[k] peaked at 77 MB here
    g, p, cells = sweep_cells(10007)
    tracemalloc.start()
    try:
        counts = cofinite_subset_sum_counts(g, [g.identity, p], cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # the recorded sweep: t = m qualified iff the sum is O, t = m - 1 unqualified iff it is -P0
    lines = (DATA / "q10007.csv").read_text().splitlines()[2:]
    recorded = [int(line.split(",")[-5]) for line in lines]
    assert recorded == [counts[0], math.comb(g.order - 2, cells[1][0]) - counts[1]]


def test_closed_form_error_reports_a_wrong_binomial(monkeypatch):
    # C(N, t) one too large adds Phi_1 = 1 to N F(t, c) for every class c
    fake = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    fake.comb = lambda n, k: math.comb(n, k) + (n == 432)
    monkeypatch.setattr(groups_module, "math", fake)
    g = AbelianGroup((1, 432))
    with pytest.raises(ClosedFormError, match="at k=200, class 1 leaves remainder 1 mod 432"):
        cofinite_subset_sum_counts(g, [g.identity, (0, 5)], [(200, g.identity)])
    with pytest.raises(ClosedFormError, match="at k=0, class 1 leaves remainder 1 mod 432"):
        cofinite_subset_sum_counts(g, [], [(0, g.identity)])
    # past one block of residues
    fake.comb = lambda n, k: math.comb(n, k) + (n == 2400)
    g = AbelianGroup((2, 1200))
    with pytest.raises(ClosedFormError, match="at k=1100, class 1 leaves remainder 1 mod 2400"):
        cofinite_subset_sum_counts(g, [g.identity, (1, 7)], [(1100, g.identity)])


@pytest.mark.parametrize("q", [13, 101, 211, 401, 2003, 10007])
def test_amplitude_from_the_layout_is_the_players_amplitude(q):
    curve = find_elliptic_curve(q)
    table = group_structure(curve)
    g = table.group
    p0, players, _ = standard_points(curve, 0.5)
    images = table.logs(players)
    assert cofinite_amplitude(g, [g.identity, table.log(p0)]) == amplitude(g, images)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_two_generator_table_presents_shuffled_products(data):
    factors = data.draw(st.sampled_from([(1,), (5,), (2, 2), (2, 4), (3, 9), (2, 12), (4, 8), (6, 6), (36,)]))
    g = AbelianGroup(factors)
    rest = data.draw(st.permutations([a for a in g.elements() if a != g.identity]))
    group, g1, g2 = two_generator_table(g.order, [g.identity, *rest], g.add, g.identity)
    assert group.factors == (factors if len(factors) == 2 else (1, *factors))
    d1, d2 = group.factors
    log = ShanksLog(g.add, g.identity, g1, d1, g2, d2)

    def times(k, a):
        return tuple(k * x % d for x, d in zip(a, g.factors))

    elements = {}
    for a in g.elements():  # every element is u g1 + v g2 at its own (u, v)
        u, v = log(a)
        assert g.add(times(u, g1), times(v, g2)) == a
        elements[u, v] = a
    assert sorted(elements) == sorted(group.elements())  # a bijection onto the group
    for a, b in zip(rest, rest[1:] + rest[:1]):
        assert log(g.add(a, b)) == group.add(log(a), log(b))


def test_two_generator_table_rejects_three_generators():
    g = AbelianGroup((2, 2, 2))
    with pytest.raises(ValueError):
        two_generator_table(g.order, g.elements(), g.add, g.identity)


def test_cycle_types_and_counts():
    types3 = list(cycle_types(3))
    assert set(types3) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}
    assert cycle_type_count((3, 0, 0)) == 1
    assert cycle_type_count((1, 1, 0)) == 3
    assert cycle_type_count((0, 0, 1)) == 2
    for t in range(1, 9):
        assert sum(cycle_type_count(c) for c in cycle_types(t)) == math.factorial(t)
    with pytest.raises(InvalidCycleTypeError):
        cycle_type_count((1, 1, 1))


def test_cycle_gen_function():
    assert cycle_gen_function(3, (2, 2, 2)) == 24  # (2+2)(2+1)(2+0)
    for q in range(1, 11):
        assert cycle_gen_function(1, (q,)) == q
        assert cycle_gen_function(2, (q, q)) == q * q + q
        for t in range(1, 9):
            assert cycle_gen_function(t, (q,) * t) == falling_factorial(q + t - 1, t)


def test_periodic_weight_bound():
    # d-periodic weights stay below t! * C(s + t + (q-s)/d - 1, t)
    for q, s, d in [(9, 3, 2), (8, 2, 3), (10, 4, 2), (7, 1, 3)]:
        for t in range(1, 8):
            val = cycle_gen_function(t, periodic_weights(q, s, d, t))
            cap = math.factorial(t) * generalized_binomial(s + t + (q - s) / d - 1, t)
            assert val <= cap * (1 + 1e-9)


def test_generalized_binomial():
    assert generalized_binomial(7, 0) == 1
    assert generalized_binomial(5.5, 0) == 1
    assert generalized_binomial(5.5, 2) == pytest.approx(12.375)
    assert generalized_binomial(3, 5) == 0  # falling factorial crosses zero
    for n in range(0, 12):
        for t in range(0, n + 1):
            assert generalized_binomial(n, t) == math.comb(n, t)


@given(st.floats(min_value=0.5, max_value=60.0), st.integers(min_value=1, max_value=12))
def test_log_binomial_consistent_with_direct(x, t):
    if x - t + 1 <= 0:
        return
    direct = generalized_binomial(x, t)
    assert math.exp(log_generalized_binomial(x, t)) == pytest.approx(direct, rel=1e-9)


def test_li_wan_m_examples():
    assert li_wan_m(10, 2, 1.0) == pytest.approx(5.5)
    n, t = 9, 4
    assert li_wan_m(n, t, float(n)) == pytest.approx(n + t - 1)
    assert li_wan_m(6, 6, 0.0) == pytest.approx(7.0)  # max{5, 3, 7}


def test_li_wan_bound_check_examples():
    full = list(Z5.elements())
    rep = li_wan_bound_check(Z5, full, 2, (0,))
    assert rep.count == 2
    assert rep.main_term == pytest.approx(10 / 5)
    assert rep.deviation == pytest.approx(0.0)
    assert rep.holds

    rep0 = li_wan_bound_check(Z5, full, 0, (0,))
    assert rep0.count == 1 and rep0.holds


def test_li_wan_bound_holds_on_z2x12_with_removals():
    g = Z2x12
    els = list(g.elements())
    rng = np.random.default_rng(23)
    for _ in range(6):
        removed = sorted(rng.choice(g.order, size=2, replace=False).tolist())
        pts = [els[i] for i in range(g.order) if i not in removed]
        for t in range(0, 7):
            rows = subset_sum_table(g, pts, t)
            for b in els:
                rep = li_wan_bound_check(g, pts, t, b)
                assert rep.count == rows[t][g.index(b)]
                assert rep.holds, (removed, t, b)


def test_sieve_identity_examples():
    g = AbelianGroup((8,))
    pts = [(i,) for i in range(6)]
    chi = g.character((3,))

    pair = sieve_identity_eval(g, pts, 1, chi)
    assert pair.direct == pytest.approx(pair.sieved)
    assert pair.direct == pytest.approx(char_sum(g, chi, pts))

    triv = g.character((0,))
    pair = sieve_identity_eval(g, pts, 3, triv)
    n = len(pts)
    assert pair.direct == pytest.approx(n * (n - 1) * (n - 2))
    assert pair.sieved == pytest.approx(pair.direct, rel=1e-9)

    pair = sieve_identity_eval(g, pts, 2, chi)
    s1 = char_sum(g, chi, pts)
    s2 = char_sum(g, chi.power(2), pts)
    assert pair.direct == pytest.approx(s1 * s1 - s2, rel=1e-9)


def test_sieve_identity_random_instances():
    rng = np.random.default_rng(31)
    pool = [(6,), (9,), (2, 4), (12,), (2, 6)]
    for trial in range(25):
        g = AbelianGroup(pool[trial % len(pool)])
        els = list(g.elements())
        n = int(rng.integers(3, min(12, g.order) + 1))
        pts = [els[i] for i in sorted(rng.choice(g.order, size=n, replace=False).tolist())]
        exps = tuple(int(rng.integers(0, d)) for d in g.factors)
        chi = g.character(exps)
        t = int(rng.integers(1, min(6, n) + 1))
        pair = sieve_identity_eval(g, pts, t, chi)
        assert abs(pair.direct - pair.sieved) <= 1e-6 * max(1.0, abs(pair.direct))


def test_sieve_identity_more_slots_than_points():
    # no tuple has distinct coordinates, and the signed sum telescopes to zero
    g = AbelianGroup((6,))
    pts = [(0,), (2,), (5,)]
    pair = sieve_identity_eval(g, pts, 4, g.character((1,)))
    assert pair.direct == 0
    assert abs(pair.sieved) < 1e-9


def test_sieve_identity_guards():
    g = AbelianGroup((30,))
    pts = [(i,) for i in range(15)]
    with pytest.raises(InstanceTooLargeError):
        sieve_identity_eval(g, pts, 2, g.character((1,)))


def test_group_spec_roundtrip():
    g = parse_group_spec("ab:2,12")
    assert g == Z2x12
    with pytest.raises(ValueError):
        parse_group_spec("zz:4")
    with pytest.raises(ValueError):
        parse_group_spec("ab:2,x")
