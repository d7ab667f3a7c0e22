import math

import numpy as np
import pytest

from agss import experiments
from agss import field as field_module
from agss import scheme as scheme_module

from agss.curves import (
    GroupTable,
    WrongGenusError,
    affine_points,
    elliptic_curve,
    enumerate_points,
    group_structure,
    hyperelliptic_curve,
)
from agss.groups import (
    BudgetExceededError,
    UnsupportedExclusionError,
    amplitude,
    char_sum,
    cofinite_subset_sum_counts,
    li_wan_m,
    log_generalized_binomial,
    subset_sum_table,
)
from agss.scheme import (
    DECIDE_BYTES,
    DegreeOutOfRangeError,
    _decide,
    _decide_one,
    enumerate_access,
    scheme_build,
)
from agss.experiments import (
    ExperimentConfig,
    RegimeMismatchError,
    UnsupportedOffsetError,
    bound_theorem3,
    bound_theorem4,
    exact_proportion_elliptic,
    find_elliptic_curve,
    find_hyperelliptic_curve,
    hasse_checks,
    mc_proportion,
    standard_points,
    standard_scheme,
    sweep_csv,
    sweep_rows,
    wilson_interval,
    _round_half_down,
)


def small_elliptic_scheme():
    return standard_scheme(elliptic_curve(13, 1, 1), 0.5)


def small_genus2_scheme():
    return standard_scheme(hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1]), 0.5)


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0
    lon, hin = wilson_interval(100, 100)
    assert hin == 1.0 and lon < 1
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_round_half_down():
    assert _round_half_down(7.5) == 7
    assert _round_half_down(7.4) == 7
    assert _round_half_down(7.6) == 8
    assert _round_half_down(8.0) == 8


def test_exact_proportion_matches_exhaustive():
    sch = small_elliptic_scheme()
    for t in (sch.m, sch.m - 1):
        est = exact_proportion_elliptic(sch, t)
        ac = enumerate_access(sch, t, "kernel")
        assert est.qualified == ac.qualified
        assert est.denominator == ac.total
        assert est.exact and est.ci_lo == est.p_hat == est.ci_hi


def test_exact_proportion_guards():
    sch = small_elliptic_scheme()
    with pytest.raises(UnsupportedOffsetError):
        exact_proportion_elliptic(sch, sch.m - 2)
    with pytest.raises(WrongGenusError):
        exact_proportion_elliptic(small_genus2_scheme(), 2)


def test_exact_sweep_reads_no_players_group_elements(monkeypatch):
    # every route from curve points to group elements goes through GroupTable.logs
    logged = []
    logs = GroupTable.logs

    def record(self, points):
        logged.extend(points)
        return logs(self, points)

    monkeypatch.setattr(GroupTable, "logs", record)
    rows = sweep_rows(ExperimentConfig(seed=1, q_values=(13, 101), offsets=(0, 1), mode="exact"))
    sch = small_elliptic_scheme()
    exact_proportion_elliptic(sch, sch.m)
    # the amplitude and the exact counts need only the group, P0 and n
    p0s = {standard_points(find_elliptic_curve(q), 0.5)[0] for q in (13, 101)} | {sch.p0}
    assert logged and set(logged) <= p0s
    assert len(rows) == 4


def test_mc_zero_above_m():
    sch = small_elliptic_scheme()
    est = mc_proportion(sch, sch.m + 1, 500, seed=4)
    assert est.qualified == 0 and est.p_hat == 0.0


def test_mc_determinism_and_oracle_pairing():
    sch = small_elliptic_scheme()
    t = sch.m
    a = mc_proportion(sch, t, 1500, seed=42, oracle="kernel")
    b = mc_proportion(sch, t, 1500, seed=42, oracle="kernel")
    assert a == b
    # same seed -> same sampled subsets, and the oracles agree pointwise
    d = mc_proportion(sch, t, 1500, seed=42, oracle="dual")
    c = mc_proportion(sch, t, 1500, seed=42, oracle="clx")
    assert a.qualified == d.qualified == c.qualified


def _mc_complements_one_by_one(n, t, seed_seq, count):
    """The sampled complements, one ``integers`` call and one partial
    Fisher-Yates shuffle per sample."""
    rng = np.random.default_rng(seed_seq)
    out = []
    for _ in range(count):
        arr = np.arange(n)
        if t:
            js = rng.integers(np.arange(t), n)
            for i in range(t):
                j = int(js[i])
                arr[i], arr[j] = arr[j], arr[i]
        out.append(arr[:t].tolist())
    return out


def test_mc_blocks_draw_the_one_by_one_stream(monkeypatch):
    small = small_genus2_scheme()
    big = standard_scheme(find_hyperelliptic_curve(101), 0.5)  # theorem 4's q = 101
    seen, widths = [], []

    def record(scheme, a_block, oracle):
        seen.extend(a_block.tolist())
        widths.append(len(a_block))
        return _decide(scheme, a_block, oracle)

    monkeypatch.setattr(experiments, "_decide", record)
    t = big.m - 1
    assert DECIDE_BYTES // (8 * t) > 205
    # (scheme, t, count, draw budget): at the real budget a piece of swap
    # targets holds every sample here; a budget of 64 samples' targets
    # leaves two full pieces and a partial one; t = 0 draws nothing
    cases = [
        (big, t, 205, DECIDE_BYTES),
        (big, t, 2 * 64 + 5, 8 * t * 64),
        (small, small.m, 37, DECIDE_BYTES),
        (small, small.m - 2, 5, DECIDE_BYTES),
        (small, 0, 5, DECIDE_BYTES),
    ]
    for sch, t, count, budget in cases:
        monkeypatch.setattr(experiments, "DECIDE_BYTES", budget)
        seen.clear()
        widths.clear()
        hits = experiments._mc_chunk(sch, t, (9, t), count, "kernel")
        # the whole chunk is drawn first and decided by one call
        assert widths == [count]
        assert seen == _mc_complements_one_by_one(sch.n, t, (9, t), count)
        assert hits == sum(_decide_one(sch, a, "kernel") for a in seen)


def test_decision_stacks_stay_within_the_byte_budget(monkeypatch):
    # both oracles gather their stacks in agss.scheme and eliminate them
    # with the _eliminate it imports from agss.field
    stacks = []
    eliminate = field_module._eliminate

    def record(m, p, rows):
        stacks.append((m.shape, m.nbytes))
        eliminate(m, p, rows)

    schemes = {q: standard_scheme(find_hyperelliptic_curve(q), 0.5) for q in (101, 211)}
    monkeypatch.setattr(scheme_module, "_eliminate", record)
    monkeypatch.setattr(field_module, "_eliminate", record)
    for q, sch in schemes.items():
        for oracle in ("kernel", "dual"):
            stacks.clear()
            # the 200-sample theorem-4 sweep's draws
            for t in range(sch.m - 3, sch.m + 1):
                mc_proportion(sch, t, 200, (42, q, t), oracle)
            assert stacks
            # the kernel pads each run of its systems only to the run's
            # largest, and sizes the run by that padded stack
            assert max(nbytes for _, nbytes in stacks) <= DECIDE_BYTES, (q, oracle)
            if oracle == "dual" and q == 211:
                assert max(shape[0] for shape, _ in stacks) <= 8


def test_dual_decision_memory_stays_near_its_stacks():
    # the dual stacks are gathered straight into the int32 stack that
    # _eliminate reduces; what remains above one DECIDE_BYTES stack is
    # mostly the elimination's own update temporary
    import tracemalloc

    for q in (101, 211):
        sch = standard_scheme(find_hyperelliptic_curve(q), 0.5)
        block = np.argsort(np.random.default_rng(q).random((1024, sch.n)), axis=1)[:, :sch.m]
        _decide(sch, block[:1], "dual")  # builds the scheme's cached tables
        tracemalloc.start()
        try:
            _decide(sch, block, "dual")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * DECIDE_BYTES, (q, peak)


def test_mc_covers_exact_value():
    sch = small_elliptic_scheme()
    t = sch.m
    exact = exact_proportion_elliptic(sch, t).p_hat
    est = mc_proportion(sch, t, 4000, seed=7)
    assert est.ci_lo <= exact <= est.ci_hi


def test_mc_interval_coverage_rate():
    # the Wilson interval catches the exact value in >= 93% of seeded runs
    sch = small_elliptic_scheme()
    exact = exact_proportion_elliptic(sch, sch.m).p_hat
    runs = 300
    inside = sum(
        1
        for s in range(runs)
        if (est := mc_proportion(sch, sch.m, 500, seed=s, oracle="clx")).ci_lo
        <= exact
        <= est.ci_hi
    )
    assert inside / runs >= 0.93


def test_mc_worker_independence():
    sch = small_elliptic_scheme()
    t = sch.m - 1
    serial = mc_proportion(sch, t, 2500, seed=11, workers=1)
    parallel = mc_proportion(sch, t, 2500, seed=11, workers=3)
    assert serial == parallel


def test_mc_pool_is_capped_at_the_chunks(monkeypatch):
    # a process pool starts all its workers at once; 2048 samples are two
    # chunks, so the pool gets at most two, however many workers are asked
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    sch = small_elliptic_scheme()
    t = sch.m - 1
    capped = mc_proportion(sch, t, 2048, seed=11, workers=10**6)
    assert sizes in ([], [2])  # no pool on a one-CPU machine
    assert capped == mc_proportion(sch, t, 2048, seed=11, workers=1)


def test_bound_theorem3_examples():
    n, t = 20, 1
    rep = bound_theorem3(n, t, 50, 0.0)
    assert rep.m_value == pytest.approx(n / 2)
    assert rep.total == pytest.approx(1 / 50 + 0.5)
    # monotone nonincreasing in the group order
    totals = [bound_theorem3(n, 3, N, 1.0).total for N in (10, 20, 40)]
    assert totals[0] > totals[1] > totals[2]


def test_bound_theorem3_dominates_exact_proportion():
    sch = small_elliptic_scheme()
    table = group_structure(sch.curve)
    phi = amplitude(table.group, sch.images[1:])
    est = exact_proportion_elliptic(sch, sch.m)
    rep = bound_theorem3(sch.n, sch.m, table.group.order, phi)
    assert est.p_hat <= rep.total


def test_exact_proportion_rejects_a_sparse_player_set():
    # the closed form needs the players to be every point but O and P0
    sch = small_elliptic_scheme()
    sparse = scheme_build(sch.curve, sch.p0, sch.players[: sch.n - 2], sch.m - 2)
    with pytest.raises(UnsupportedExclusionError):
        exact_proportion_elliptic(sparse, sparse.m)


def test_exact_counts_past_the_dp_budget_at_q2003():
    # the sweep's two cells at q = 2003, on the group alone (no scheme_build)
    curve = find_elliptic_curve(2003)
    table = group_structure(curve)
    group = table.group
    assert group.factors == (2, 1004)
    p0, players, m = standard_points(curve, 0.5)
    images = table.logs(players)
    n, size = len(images), group.order
    with pytest.raises(BudgetExceededError):
        subset_sum_table(group, images, m)
    cells = [(m, group.identity), (m - 1, group.neg(table.log(p0)))]
    counts = cofinite_subset_sum_counts(group, [group.identity, table.log(p0)], cells)
    phi = amplitude(group, images)
    for (t, _), count in zip(cells, counts):
        # |N - C(n, t)/N| <= C(M, t), compared in log space: both sides overflow a float
        deviation = abs(size * count - math.comb(n, t))
        bound = log_generalized_binomial(li_wan_m(n, t, phi), t)
        assert deviation == 0 or math.log(deviation) - math.log(size) <= bound
    assert counts[0] / math.comb(n, m) <= bound_theorem3(n, m, size, phi).total
    # the sweep reports the same two counts: t = m qualified iff the sum is O
    rows = sweep_rows(ExperimentConfig(seed=1, q_values=(2003,), mode="exact", offsets=(0, 1)))
    assert [(row["t"], row["qualified"]) for row in rows] == [
        (m, counts[0]),
        (m - 1, math.comb(n, m - 1) - counts[1]),
    ]


def test_bounds_reject_a_subset_size_above_n():
    with pytest.raises(ValueError, match=r"t=20 out of range 0\.\.10"):
        bound_theorem3(10, 20, 5, 2.0)
    with pytest.raises(ValueError, match=r"t=20 out of range 0\.\.10"):
        bound_theorem4(101, 2, 10, 20, 20, 2)
    with pytest.raises(ValueError, match=r"t=-1 out of range 0\.\.10"):
        bound_theorem4(101, 2, 10, -1, 1, 2)


def test_bound_theorem4_examples():
    # g = 1, m - t = 0 collapses to the stated leading term
    q, g, n, t, m, c = 101, 1, 99, 40, 40, 2
    rep = bound_theorem4(q, g, n, t, m, c)
    sq = math.sqrt(q)
    assert rep.main_term == pytest.approx((2 * sq / (sq - 1) - q / (q - 1)) / q)
    # m - t = g bounds the unqualified proportion at the residual degree g - 1
    assert bound_theorem4(101, 2, 99, 40, 42, 2).total == 0.5550375922574218
    assert bound_theorem4(101, 2, 99, 47, 50, 2).total > 0  # m - t = 2g - 1, degree 0
    with pytest.raises(RegimeMismatchError):
        bound_theorem4(101, 2, 99, 38, 42, 2)  # m - t = 2g

    # leading term decreases along a fixed-delta sweep in q
    prev = None
    for q in (101, 211, 401):
        n = q
        m = t = n // 2
        rep = bound_theorem4(q, 2, n, t, m, 2)
        if prev is not None:
            assert rep.main_term < prev
        prev = rep.main_term


def test_bounds_reject_degenerate_inputs():
    # each formula divides by the group order, or by sqrt(q) - 1 and q - 1
    with pytest.raises(ValueError, match="group order"):
        bound_theorem3(10, 5, 0, 2.0)
    for q in (0, 1):
        with pytest.raises(ValueError, match="field size"):
            bound_theorem4(q, 2, 10, 5, 6, 2)
        with pytest.raises(ValueError, match="field size"):
            bound_theorem4(q, 2, 10, 5, 7, 2)


def test_hasse_checks():
    assert hasse_checks(elliptic_curve(5, 1, 1)).ok
    assert hasse_checks(elliptic_curve(101, 1, 1)).ok
    rep = hasse_checks(hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1]))
    assert rep.ok and rep.jacobian_ok is None
    rep13 = hasse_checks(elliptic_curve(13, 1, 1))
    assert rep13.jacobian_ok is True
    assert abs(rep13.point_count - 14) <= 2 * math.sqrt(13)


def test_genus1_jacobian_window_is_the_hasse_window():
    primes = [q for q in range(5, 61) if all(q % d for d in range(2, q))]
    for q in primes:
        rep = hasse_checks(find_elliptic_curve(q))
        assert rep.jacobian_ok == rep.count_ok
        # (sqrt(q) - 1)^2 <= h <= (sqrt(q) + 1)^2, never an equality for prime q
        assert rep.count_ok == ((math.sqrt(q) - 1) ** 2 <= rep.point_count <= (math.sqrt(q) + 1) ** 2)


def test_curve_char_sum():
    curve = elliptic_curve(13, 1, 1)
    table = group_structure(curve)
    group = table.group
    pts = enumerate_points(curve)
    chi = next(c for c in group.characters() if not c.is_trivial)
    # full point set: orthogonality
    assert abs(char_sum(group, chi, table.logs(pts))) < 1e-9
    # all but two points: complement bound
    assert abs(char_sum(group, chi, table.logs(pts[2:]))) <= 2 + 1e-9


def test_find_curves_deterministic():
    e = find_elliptic_curve(101)
    assert (e.a, e.b) == (1, 1)
    h = find_hyperelliptic_curve(101, 2)
    assert h.genus == 2
    assert list(h.f)[:2] == [1, 1]  # constant term found by search
    assert find_elliptic_curve(101) == e


def test_find_elliptic_curve_is_the_genus_1_search():
    # y^2 = x^3 + x + b for the first b >= 1 with 4 + 27 b^2 != 0 mod q; at
    # q = 31 that is b = 2, since 4 + 27 = 31
    for q in filter(field_module.is_prime, range(5, 1000)):
        b = next(b for b in range(1, q) if (4 + 27 * b * b) % q)
        assert find_elliptic_curve(q) == find_hyperelliptic_curve(q, 1) == elliptic_curve(q, 1, b)
    assert find_elliptic_curve(31).b == 2


def test_find_curves_reject_a_composite_field_size():
    for find in (find_elliptic_curve, find_hyperelliptic_curve):
        with pytest.raises(ValueError, match="100 is not prime"):
            find(100)
    with pytest.raises(ValueError, match="at least 5"):
        find_elliptic_curve(1)


def test_standard_scheme_layout():
    curve = elliptic_curve(13, 1, 1)
    sch = standard_scheme(curve, 0.5)
    pts = affine_points(curve)
    assert sch.p0 == pts[0]
    assert sch.players == pts[1:]
    assert sch.m == _round_half_down(0.5 * sch.n)
    assert standard_points(curve, 0.5) == (sch.p0, sch.players, sch.m)
    with pytest.raises(DegreeOutOfRangeError):
        standard_points(curve, 0.03)  # m = 0
    with pytest.raises(ValueError, match="too few affine points"):
        standard_points(elliptic_curve(5, 2, 0), 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, q_values=(13,), delta=0.7)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, q_values=(13,), delta=2 / 3)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, q_values=(13,), genus=1, offsets=(2,))
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, q_values=(13,), mode="sorcery")
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, q_values=(13,), oracle="guess")
    cfg = ExperimentConfig(seed=1, q_values=(13,), genus=2, offsets=(0, 3), mode="montecarlo")
    assert cfg.offsets == (0, 3)


def test_sweep_empty_is_header_only():
    cfg = ExperimentConfig(seed=9)
    text = sweep_csv(cfg)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("# seed=9 prng=pcg64 version=")
    assert lines[1] == "q,curve,g,n,m,t,offset,mode,oracle,samples,qualified,p_hat,ci_lo,ci_hi,bound"


def test_sweep_exact_rows_match_direct_calls():
    cfg = ExperimentConfig(seed=3, q_values=(13,), mode="exact", offsets=(0, 1))
    rows = sweep_rows(cfg)
    assert len(rows) == 2
    sch = standard_scheme(find_elliptic_curve(13), 0.5)
    for row in rows:
        est = exact_proportion_elliptic(sch, row["t"])
        assert row["qualified"] == est.qualified
        assert row["samples"] == est.denominator
        assert row["p_hat"] == est.p_hat
        assert row["offset"] == sch.m - row["t"]


def test_sweep_exhaustive_and_explicit_curves():
    cfg = ExperimentConfig(
        seed=3, curves=("ec:p=13,a=1,b=1",), mode="exhaustive", offsets=(0,), oracle="dual"
    )
    (row,) = sweep_rows(cfg)
    sch = standard_scheme(elliptic_curve(13, 1, 1), 0.5)
    assert row["qualified"] == enumerate_access(sch, sch.m, "dual").qualified


def test_sweep_montecarlo_determinism_and_workers():
    cfg1 = ExperimentConfig(
        seed=12, q_values=(11,), genus=2, mode="montecarlo", offsets=(0, 3), samples=600
    )
    text1 = sweep_csv(cfg1)
    assert text1 == sweep_csv(cfg1)
    cfg4 = ExperimentConfig(
        seed=12, q_values=(11,), genus=2, mode="montecarlo", offsets=(0, 3), samples=600, workers=4
    )
    assert text1 == sweep_csv(cfg4)


def test_sweep_csv_is_parseable():
    import csv as csvmod
    import io

    cfg = ExperimentConfig(seed=3, q_values=(13,), mode="exact", offsets=(0, 1))
    text = sweep_csv(cfg)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csvmod.DictReader(io.StringIO("\n".join(body))))
    assert len(rows) == 2
    assert rows[0]["curve"] == "ec:p=13,a=1,b=1"
    assert float(rows[0]["p_hat"]) == pytest.approx(float(rows[0]["ci_hi"]))
