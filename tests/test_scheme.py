import hashlib
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agss.curves import (
    INFINITY,
    AffinePoint,
    PointNotOnCurveError,
    SingularCurveError,
    WrongGenusError,
    affine_points,
    elliptic_curve,
    eval_basis,
    hyperelliptic_curve,
    parse_curve_spec,
)
from agss import field
from agss import scheme as scheme_module
from agss.field import FieldMismatchError, PrimeField, in_row_space, matvec_array, rank_array
from agss.groups import InstanceTooLargeError, subset_sum_count
from agss.curves import GroupTable, group_structure
from agss.experiments import find_elliptic_curve, find_hyperelliptic_curve, standard_scheme
from agss.scheme import (
    CodeBasisError,
    DegreeOutOfRangeError,
    DuplicatePointError,
    ENUMERATION_CHUNK,
    NotQualifiedError,
    PrivacyVerdict,
    _check_orthogonal,
    _decide,
    _decide_one,
    _p0_witness,
    enumerate_access,
    is_qualified_clx,
    is_qualified_dual,
    is_qualified_kernel,
    privacy_check,
    reconstruct,
    scheme_build,
    share,
)


def build_f13_scheme(m=5):
    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    return scheme_build(curve, pts[0], pts[1:], m)


def build_tiny_scheme():
    # 9 points on E/F_5, so 7 players and a 5^5-word share code at m = 3
    curve = elliptic_curve(5, 1, 1)
    pts = affine_points(curve)
    return scheme_build(curve, pts[0], pts[1:], 3)


def build_genus2_scheme():
    curve = hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1])
    pts = affine_points(curve)
    return scheme_build(curve, pts[0], pts[1:], 5)


def test_build_dimensions():
    sch = build_f13_scheme()
    assert sch.n == 16
    assert sch.dim_code == sch.m - 1 + 1  # m - g + 1
    assert sch.dim_share_code == sch.n - sch.m + 1
    # every share-code basis row is orthogonal to the generator rows
    p = sch.field.p
    for i in range(sch.omega_matrix.shape[0]):
        assert not matvec_array(sch.gen_matrix, sch.omega_matrix[i], p).any()


def test_code_matrices_are_read_only():
    sch = build_f13_scheme()
    p = sch.field.p
    for mat in (sch.gen_matrix, sch.omega_matrix):
        assert mat.dtype == np.int64
        assert ((0 <= mat) & (mat < p)).all()
        with pytest.raises(ValueError):
            mat[0, 0] = 3
    assert (sch.gen_matrix[0] == 1).all()  # the constant function
    assert rank_array(sch.gen_matrix, p) == sch.dim_code


def test_build_validation():
    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    with pytest.raises(DegreeOutOfRangeError):
        scheme_build(curve, pts[0], pts[1:], 0)  # m = 2g - 2
    with pytest.raises(DegreeOutOfRangeError):
        scheme_build(curve, pts[0], pts[1:], len(pts) - 1)  # m = n
    with pytest.raises(DuplicatePointError):
        scheme_build(curve, pts[0], (pts[1], pts[1]) + pts[3:], 5)
    with pytest.raises(DuplicatePointError):
        scheme_build(curve, pts[0], (INFINITY,) + pts[1:], 5)


def test_share_is_a_codeword_and_deterministic():
    sch = build_f13_scheme()
    vec = share(sch, 7, seed=123)
    assert vec.secret.value == 7
    p = sch.field.p
    word = np.array([vec.secret.value] + [s.value for s in vec.shares])
    assert not matvec_array(sch.gen_matrix, word, p).any()
    again = share(sch, 7, seed=123)
    assert vec == again
    other = share(sch, 7, seed=124)
    assert vec != other


def test_share_csv_roundtrip():
    sch = build_f13_scheme()
    vec = share(sch, 9, seed=5)
    line = vec.to_csv_line()
    from agss.scheme import ShareVector

    back = ShareVector.from_csv_line(sch.field, line)
    assert back == vec


def test_roundtrip_full_set_and_qualified_subsets():
    sch = build_f13_scheme()
    rng = np.random.default_rng(77)
    for trial in range(30):
        secret = int(rng.integers(0, 13))
        vec = share(sch, secret, seed=int(rng.integers(0, 2**62)))
        # full set
        assert reconstruct(sch, range(sch.n), vec.shares).value == secret
        # subsets of size >= n - m + 2g always reconstruct
        size = sch.n - sch.m + 2
        subset = sorted(rng.choice(sch.n, size=size, replace=False).tolist())
        got = reconstruct(sch, subset, [vec.shares[i] for i in subset])
        assert got.value == secret


def test_reconstruct_unqualified_raises():
    sch = build_f13_scheme()
    vec = share(sch, 3, seed=1)
    small = list(range(sch.n - sch.m - 1))  # complement bigger than m
    with pytest.raises(NotQualifiedError):
        reconstruct(sch, small, [vec.shares[i] for i in small])


def test_share_labels_every_secret_equally_on_tiny_scheme():
    sch = build_tiny_scheme()
    p = sch.field.p
    w = sch.omega_matrix
    k = w.shape[0]
    counts = {s: 0 for s in range(p)}
    for coeffs in itertools.product(range(p), repeat=k):
        word = matvec_array(w.T, np.array(coeffs), p)
        counts[int(word[0])] += 1
    expected = p ** (k - 1)
    assert all(c == expected for c in counts.values())


def test_oracle_trivial_cases():
    sch = build_f13_scheme()
    full = list(range(sch.n))
    assert is_qualified_kernel(sch, full).qualified
    assert is_qualified_dual(sch, full).qualified
    assert is_qualified_clx(sch, full).qualified
    # S = empty with m <= n - 1 is never qualified (no weight-1 dual word)
    assert not is_qualified_kernel(sch, []).qualified
    assert not is_qualified_dual(sch, []).qualified


def test_gray_zone_confinement():
    rng = np.random.default_rng(3)
    for sch in (build_f13_scheme(), build_genus2_scheme()):
        n, m, g = sch.n, sch.m, sch.genus
        for t in range(n + 1):
            for _ in range(20):
                a = sorted(rng.choice(n, size=t, replace=False).tolist())
                s = [i for i in range(n) if i not in set(a)]
                verdict = is_qualified_kernel(sch, s).qualified
                if t <= m - 2 * g:
                    assert verdict
                if t > m:
                    assert not verdict


def test_oracles_agree_exhaustively_and_witnesses_check_out():
    sch = build_f13_scheme()
    n = sch.n
    p = sch.field.p
    for t in range(n + 1):
        combos = itertools.combinations(range(n), t)
        # cap per size to keep the module test quick; acceptance does it in full
        for a in itertools.islice(combos, 120):
            a = set(a)
            s = [i for i in range(n) if i not in a]
            vk = is_qualified_kernel(sch, s)
            vd = is_qualified_dual(sch, s)
            vc = is_qualified_clx(sch, s)
            assert vk.qualified == vd.qualified == vc.qualified
            for v in (vk, vd):
                if v.qualified:
                    w = v.witness
                    assert w is not None
                    vals = matvec_array(sch.gen_matrix[:, 1:].T, w, p)
                    assert all(vals[i] == 0 for i in a)
                    assert int((sch.gen_matrix[:, 0] * w % p).sum() % p) != 0


def _count_eliminations(monkeypatch):
    """Record (stack shape, equation count) of every call into the one
    elimination loop, from agss.field and from agss.scheme."""
    import agss.scheme

    calls = []
    eliminate = field._eliminate

    def counting(m, p, rows):
        calls.append((m.shape, rows))
        return eliminate(m, p, rows)

    monkeypatch.setattr(field, "_eliminate", counting)
    monkeypatch.setattr(agss.scheme, "_eliminate", counting)
    return calls


def test_qualified_dual_eliminates_the_subset_system_once(monkeypatch):
    sch = build_f13_scheme()
    calls = _count_eliminations(monkeypatch)
    # one elimination of the complement's system [gen[:, A + 1].T; gen[:, 0]],
    # which gives the verdict and the witness: t + 1 equations in dim_code
    # + 1 columns (the rhs included), with that many bookkeeping entries
    # below them
    for s, qualified in ((list(range(sch.n - sch.m + 2)), True), ([], False)):
        calls.clear()
        assert is_qualified_dual(sch, s).qualified == qualified
        t = sch.n - len(s)
        assert calls == [((1, sch.dim_code + 1, (t + 1) + sch.dim_code + 1), t + 1)]


def test_p0_witness_matches_solve_array_on_the_explicit_system():
    # the witness is read off the bookkeeping of the gathered dual stack;
    # solve_array reduces the same system written out as a matrix
    rng = np.random.default_rng(23)
    for sch in (build_f13_scheme(), standard_scheme(find_hyperelliptic_curve(101), 0.5)):
        p = sch.field.p
        outcomes = set()
        for t in range(sch.m - 2 * sch.genus, sch.m + 2):
            for _ in range(15):
                a_idx = np.sort(rng.choice(sch.n, size=t, replace=False))
                a = np.vstack([sch.gen_matrix[:, a_idx + 1].T, sch.gen_matrix[:, 0]])
                b = np.zeros(t + 1, dtype=np.int64)
                b[t] = 1
                try:
                    want = field.solve_array(a, b, p)
                except field.NoSolutionError:
                    with pytest.raises(field.NoSolutionError):
                        _p0_witness(sch, a_idx)
                    outcomes.add(False)
                else:
                    got = _p0_witness(sch, a_idx)
                    assert got.dtype == np.int64
                    assert got.tolist() == want.tolist()
                    outcomes.add(True)
        assert outcomes == {True, False}


def test_scheme_build_eliminates_the_evaluation_matrix_once(monkeypatch):
    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    calls = _count_eliminations(monkeypatch)
    sch = scheme_build(curve, pts[0], pts[1:], 5)
    # the dim_code x (n + 1) evaluation matrix, stored by columns with the
    # (n + 1) x (n + 1) bookkeeping below its equations
    assert calls == [((1, sch.n + 1, sch.dim_code + sch.n + 1), sch.dim_code)]


def _code_basis_digest(sch):
    h = hashlib.sha256()
    for arr in (sch.gen_matrix, sch.omega_matrix, np.array(sch.pivots, dtype=np.int64)):
        arr = np.ascontiguousarray(arr, dtype="<i8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def test_scheme_build_code_bases_are_pinned():
    # share output depends on omega_matrix's bytes, so the canonical bases
    # of the criterion-1 scheme and the preset schemes are pinned
    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    schemes = {
        "E/F_13, m=5": scheme_build(curve, pts[0], pts[1:], 5),
        "theorem4 q=101": standard_scheme(find_hyperelliptic_curve(101, 2), 0.5),
        "theorem4 q=211": standard_scheme(find_hyperelliptic_curve(211, 2), 0.5),
        "theorem3 q=401": standard_scheme(find_elliptic_curve(401), 0.5),
    }
    assert {name: _code_basis_digest(sch) for name, sch in schemes.items()} == {
        "E/F_13, m=5": "8c7be4c41da31720149fe143bf113dfcaef419b5c164e0f43a6bb370cda0c5c5",
        "theorem4 q=101": "a37ced074b0582ef6701fe2e8a39b8bdd49af6927ea51f7b606bd861eea1a2e1",
        "theorem4 q=211": "4faee05bb7756bee7d8f0c4cfe7cfadeb38f796c60bcab6fedc90332d6745a3d",
        "theorem3 q=401": "32a5e3e4bffc1257107cd5d17ecfa77d6c2fc03fff2ca11a1bfdcca5c8e5f9f5",
    }


def test_scheme_build_rejects_a_share_code_basis_off_the_nullspace(monkeypatch):
    import agss.scheme

    kernel_basis = agss.scheme._kernel_basis

    def corrupted(a, p):
        omega, pivots = kernel_basis(a, p)
        omega[0, -1] = (omega[0, -1] + 1) % p
        return omega, pivots

    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    monkeypatch.setattr(agss.scheme, "_kernel_basis", corrupted)
    with pytest.raises(CodeBasisError):
        scheme_build(curve, pts[0], pts[1:], 5)


def test_scheme_build_rejects_a_generator_matrix_that_lost_rank(monkeypatch):
    # m <= n - 1 gives the evaluation map full rank, so a repeated row is a bug
    import agss.scheme

    basis_values = agss.scheme.basis_values

    def repeated(curve, basis, points):
        values = basis_values(curve, basis, points)
        values[-1] = values[0]
        return values

    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    monkeypatch.setattr(agss.scheme, "basis_values", repeated)
    with pytest.raises(CodeBasisError, match="lost rank"):
        scheme_build(curve, pts[0], pts[1:], 5)


# faults in rr_basis's monomials; the basis is sorted by pole order, so the
# top monomial is the last
RR_BASIS_FAULTS = {
    "drop-top": lambda exps: exps[:-1],
    "top-times-x": lambda exps: exps[:-1] + ((exps[-1][0] + 1, exps[-1][1]),),
    "extra-x-power": lambda exps: exps + ((exps[-1][0] + 1, 0),),
}


@pytest.mark.parametrize("spec, m", [("ec:p=13,a=1,b=1", 5), ("hyp:p=19,f=1,0,0,0,0,1", 9)])
@pytest.mark.parametrize("fault", RR_BASIS_FAULTS.values(), ids=RR_BASIS_FAULTS.keys())
def test_scheme_build_rejects_a_basis_off_riemann_roch(monkeypatch, spec, m, fault):
    # at genus 2 gen and omega come from the same wrong basis, so they stay
    # orthogonal and no oracle disagrees: only the pole orders show the fault
    import dataclasses

    import agss.scheme

    rr_basis = agss.scheme.rr_basis

    def corrupted(curve, m):
        basis = rr_basis(curve, m)
        return dataclasses.replace(basis, exponents=fault(basis.exponents))

    curve = parse_curve_spec(spec)
    pts = affine_points(curve)
    scheme_build(curve, pts[0], pts[1:], m)
    monkeypatch.setattr(agss.scheme, "rr_basis", corrupted)
    with pytest.raises(CodeBasisError, match="pole orders"):
        scheme_build(curve, pts[0], pts[1:], m)


def test_orthogonality_check_is_exact_past_int64():
    # (p - 1)(3 (p - 1) + 3) = 0 mod p, but 3 (p - 1)^2 overflows int64
    p = 2**31 - 1
    gen = np.full((2, 4), p - 1, dtype=np.int64)
    _check_orthogonal(gen, np.array([[p - 1, p - 1, p - 1, 3]], dtype=np.int64), p)
    with pytest.raises(CodeBasisError):
        _check_orthogonal(gen, np.array([[p - 1, p - 1, p - 1, 4]], dtype=np.int64), p)


def test_share_rejects_a_secret_from_another_field():
    sch = build_f13_scheme()
    with pytest.raises(FieldMismatchError):
        share(sch, PrimeField(101).element(7), seed=1)
    assert share(sch, sch.field.element(7), seed=1) == share(sch, 7, seed=1)


def test_reconstruct_rejects_shares_from_another_field():
    sch = build_f13_scheme()
    vec = share(sch, 3, seed=1)
    everyone = range(sch.n)
    foreign = [PrimeField(101).element(s.value) for s in vec.shares]
    with pytest.raises(FieldMismatchError):
        reconstruct(sch, everyone, foreign)
    with pytest.raises(FieldMismatchError):
        reconstruct(sch, everyone, list(vec.shares[:-1]) + foreign[-1:])
    assert reconstruct(sch, everyone, [s.value for s in foreign]).value == 3


def test_share_api_rejects_floats():
    sch = build_f13_scheme()
    with pytest.raises(TypeError):
        share(sch, 7.9, seed=1)
    assert share(sch, np.int64(7), seed=1) == share(sch, 7, seed=1)
    vec = share(sch, 3, seed=1)
    everyone = range(sch.n)
    with pytest.raises(TypeError):
        reconstruct(sch, everyone, [s.value + 0.9 for s in vec.shares])
    assert reconstruct(sch, everyone, [np.int64(s.value) for s in vec.shares]).value == 3


def test_kernel_oracle_matches_the_direct_row_space_test():
    # the systematic-form oracle reads omega_matrix; the direct form asks
    # whether the P0 row of gen lies in the span of the rows at A
    rng = np.random.default_rng(19)
    schemes = [
        standard_scheme(find_hyperelliptic_curve(101), 0.5),
        build_f13_scheme(),
        build_tiny_scheme(),
        build_genus2_scheme(),
    ]
    for sch in schemes:
        p = sch.field.p
        verdicts = set()
        for off in range(2 * sch.genus):
            for _ in range(60):
                a_idx = np.sort(rng.choice(sch.n, size=sch.m - off, replace=False))
                direct = not in_row_space(sch.gen_matrix[:, a_idx + 1].T, sch.gen_matrix[:, 0], p)
                assert _decide_one(sch, a_idx, "kernel") == direct
                verdicts.add(direct)
        assert verdicts == {True, False}


def _complements_of_every_used_count(sch, t, rng, repeats):
    """Size-t complements with every feasible count U of players at free
    columns of gen (the kernel systems' shape), ``repeats`` of each, shuffled."""
    is_pivot = np.zeros(sch.n + 1, dtype=bool)
    is_pivot[list(sch.pivots)] = True
    pivot_players = np.flatnonzero(is_pivot[1:])
    free_players = np.flatnonzero(~is_pivot[1:])
    rows = [
        np.concatenate([rng.choice(free_players, size=u, replace=False),
                        rng.choice(pivot_players, size=t - u, replace=False)])
        for u in range(max(0, t - len(pivot_players)), min(t, len(free_players)) + 1)
        for _ in range(repeats)
    ]
    return rng.permutation(np.array(rows, dtype=np.int64))


def test_a_block_spanning_every_system_shape_decides_each_row_alone(monkeypatch):
    stacks = []
    eliminate = field._eliminate

    def record(m, p, rows):
        stacks.append(m.shape)
        eliminate(m, p, rows)

    monkeypatch.setattr(scheme_module, "_eliminate", record)
    rng = np.random.default_rng(23)
    cases = [(standard_scheme(find_hyperelliptic_curve(101), 0.5), 3), (build_f13_scheme(), 4)]
    for sch, repeats in cases:
        seen = set()
        # the gray zone's lower offsets are mostly unqualified, the upper ones qualified
        for t in (sch.m - 2, sch.m - 1, sch.m):
            block = _complements_of_every_used_count(sch, t, rng, repeats)
            for oracle in ("kernel", "dual"):
                stacks.clear()
                verdicts = _decide(sch, block, oracle)
                if oracle == "kernel" and sch.field.p == 101:
                    # split into several runs of different system widths
                    assert len({shape[1] for shape in stacks}) > 2
                assert verdicts.tolist() == [_decide_one(sch, a, oracle) for a in block]
                seen.update(verdicts.tolist())
                perm = rng.permutation(len(block))
                assert _decide(sch, block[perm], oracle).tolist() == verdicts[perm].tolist()
                assert _decide(sch, block[-1:], oracle).tolist() == verdicts[-1:].tolist()
        assert seen == {True, False}
        for oracle in ("kernel", "dual"):
            # t = 0: the full player set, qualified
            assert _decide(sch, np.empty((5, 0), dtype=np.int64), oracle).tolist() == [True] * 5


def test_gen_matrix_is_the_basis_at_every_point():
    curves = [find_elliptic_curve(101), find_hyperelliptic_curve(101), find_hyperelliptic_curve(31, 3)]
    for curve in curves:
        sch = standard_scheme(curve, 0.5)
        p = curve.field.p
        pts = (sch.p0, *sch.players)
        expected = [[pow(pt.x, i, p) * pt.y ** j % p for pt in pts] for i, j in sch.basis]
        assert sch.gen_matrix.tolist() == expected
        # eval_basis is the one-point case
        assert eval_basis(curve, sch.basis, pts[-1]) == tuple(row[-1] for row in expected)
        off = next(AffinePoint(0, y) for y in range(p) if not curve.contains(AffinePoint(0, y)))
        with pytest.raises(PointNotOnCurveError):
            scheme_build(curve, sch.p0, (*sch.players[:-1], off), sch.m)


def test_pivots_survive_pickling():
    sch = build_genus2_scheme()
    assert sch.pivots[0] == 0 and len(sch.pivots) == sch.dim_code
    clone = pickle.loads(pickle.dumps(sch))
    assert clone.pivots == sch.pivots
    assert all(type(c) is int for c in clone.pivots)
    for s in ([], [0, 2, 4], list(range(1, sch.n))):
        assert is_qualified_kernel(clone, s).qualified == is_qualified_kernel(sch, s).qualified


def test_clx_specific_cases():
    sch = build_f13_scheme()
    curve = sch.curve
    table = group_structure(curve)
    m, n = sch.m, sch.n
    d1, d2 = table.group.factors
    # one log per point: another baby-step stride than the oracle's one batch
    images = [table.log(pt) for pt in sch.players]

    def group_sum(idx):
        u = sum(images[i][0] for i in idx) % d1
        v = sum(images[i][1] for i in idx) % d2
        return (u, v)

    found_zero = found_nonzero = False
    for a in itertools.combinations(range(n), m):
        s = [i for i in range(n) if i not in set(a)]
        expected = group_sum(a) == (0, 0)
        assert is_qualified_clx(sch, s).qualified == expected
        found_zero |= expected
        found_nonzero |= not expected
        if found_zero and found_nonzero:
            break
    assert found_zero and found_nonzero

    # t = m + 1 is always unqualified
    a = list(range(m + 1))
    s = [i for i in range(n) if i not in set(a)]
    assert not is_qualified_clx(sch, s).qualified

    # t = m - 1 with the forced zero landing inside A is qualified
    for a in itertools.combinations(range(n), m - 1):
        u, v = group_sum(a)
        b = (-u % d1, -v % d2)
        if any(images[i] == b for i in a):
            s = [i for i in range(n) if i not in set(a)]
            assert is_qualified_clx(sch, s).qualified
            break
    else:
        pytest.fail("no t = m - 1 subset with B inside A")


def test_clx_wrong_genus():
    sch = build_genus2_scheme()
    with pytest.raises(WrongGenusError):
        is_qualified_clx(sch, [0, 1, 2])


@pytest.mark.parametrize("curve", [
    elliptic_curve(13, 1, 1),
    elliptic_curve(101, 1, 1),
    hyperelliptic_curve(19, [1, 0, 0, 0, 0, 1]),
    find_hyperelliptic_curve(101),
], ids=["E13", "E101", "hyp19", "hyp101"])
def test_privacy_check_is_the_dual_verdict(curve):
    # privacy_check is the dual oracle's verdict read as privacy: on random
    # subsets whose complements straddle the gray zone m - 2g < t <= m
    sch = standard_scheme(curve, 0.5)
    g, n, m = sch.genus, sch.n, sch.m
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(200):
        t = int(rng.integers(m - 2 * g - 1, m + 2))
        a_idx = set(rng.choice(n, size=t, replace=False).tolist())
        s = [i for i in range(n) if i not in a_idx]
        qualified = is_qualified_dual(sch, s).qualified
        assert (privacy_check(sch, s) is PrivacyVerdict.DETERMINES_SECRET) == qualified
        seen.add(qualified)
    assert seen == {True, False}


def test_privacy_matches_qualification_exhaustively():
    sch = build_tiny_scheme()
    n = sch.n
    for t in range(n + 1):
        for s in itertools.combinations(range(n), t):
            q = is_qualified_kernel(sch, list(s)).qualified
            verdict = privacy_check(sch, list(s))
            assert (verdict is PrivacyVerdict.DETERMINES_SECRET) == q
    assert privacy_check(sch, []) is PrivacyVerdict.ZERO_INFORMATION


def test_unqualified_shares_carry_zero_information():
    sch = build_tiny_scheme()
    p = sch.field.p
    w = sch.omega_matrix
    k = w.shape[0]
    # pick an unqualified subset and a concrete sharing
    subset = next(
        list(s)
        for t in range(sch.n + 1)
        for s in itertools.combinations(range(sch.n), t)
        if not is_qualified_kernel(sch, list(s)).qualified and len(s) > 0
    )
    vec = share(sch, 2, seed=99)
    observed = tuple(vec.shares[i].value for i in subset)
    counts = {s: 0 for s in range(p)}
    for coeffs in itertools.product(range(p), repeat=k):
        word = matvec_array(w.T, np.array(coeffs), p)
        if tuple(int(word[i + 1]) for i in subset) == observed:
            counts[int(word[0])] += 1
    assert len(set(counts.values())) == 1  # same count for every secret


def test_access_structure_is_monotone():
    sch = build_f13_scheme()
    rng = np.random.default_rng(8)
    for _ in range(60):
        size = int(rng.integers(0, sch.n))
        s = sorted(rng.choice(sch.n, size=size, replace=False).tolist())
        if not is_qualified_kernel(sch, s).qualified:
            continue
        extra = [i for i in range(sch.n) if i not in set(s)]
        if extra:
            bigger = sorted(s + [extra[0]])
            assert is_qualified_kernel(sch, bigger).qualified


def test_enumerate_access():
    sch = build_f13_scheme()
    assert enumerate_access(sch, 0).qualified == 1
    t_big = sch.m + 1
    assert enumerate_access(sch, t_big).qualified == 0
    for oracle in ("kernel", "dual", "clx"):
        ac = enumerate_access(sch, sch.m, oracle)
        assert ac.total == math.comb(sch.n, sch.m)
        # cross-module: size-m complements qualified iff they sum to the identity
        table = group_structure(sch.curve)
        group = table.group
        images = table.logs(sch.players)
        assert ac.qualified == subset_sum_count(group, images, sch.m, group.identity)


def test_clx_reads_the_scheme_images_without_logging(monkeypatch):
    sch = build_f13_scheme()
    assert sch.images.shape == (sch.n + 1, 2)
    table = group_structure(sch.curve)
    assert sch.images[0].tolist() == list(table.log(sch.p0))
    calls = []
    monkeypatch.setattr(GroupTable, "logs", lambda self, points: calls.append(points))  # log calls it too
    for t in (sch.m - 1, sch.m):
        assert enumerate_access(sch, t, "clx") == enumerate_access(sch, t, "kernel")
    assert calls == []


def test_genus2_kernel_and_dual_agree_exhaustively_in_blocks():
    # every size t, so some total C(n, t) spans more than one of
    # enumerate_access's fixed-count chunks and ends in a partial chunk
    # (only on the q = 19 scheme, n = 14)
    schemes = [build_genus2_scheme()] + [standard_scheme(find_hyperelliptic_curve(q), 0.5) for q in (13, 19)]
    assert any(
        math.comb(sch.n, t) > ENUMERATION_CHUNK and math.comb(sch.n, t) % ENUMERATION_CHUNK
        for sch in schemes
        for t in range(sch.n + 1)
    )
    for sch in schemes:
        for t in range(sch.n + 1):
            kernel = enumerate_access(sch, t, "kernel")
            assert kernel == enumerate_access(sch, t, "dual")
            # the blocks count what one complement at a time counts
            one_by_one = sum(_decide_one(sch, a, "kernel") for a in itertools.combinations(range(sch.n), t))
            assert kernel.qualified == one_by_one


def test_enumerate_access_size_guard():
    curve = elliptic_curve(101, 1, 1)
    pts = affine_points(curve)
    sch = scheme_build(curve, pts[0], pts[1:], 51)
    with pytest.raises(InstanceTooLargeError):
        enumerate_access(sch, 51)


def test_scheme_pickles():
    sch = build_f13_scheme()
    clone = pickle.loads(pickle.dumps(sch))
    assert clone.n == sch.n
    assert is_qualified_kernel(clone, list(range(sch.n))).qualified
    # what Monte Carlo pool workers receive keeps the code matrices read-only
    for mat in (clone.gen_matrix, clone.omega_matrix):
        with pytest.raises(ValueError):
            mat[0, 0] = 3


@st.composite
def small_schemes(draw):
    """A scheme on a random curve over F_q, q <= 13: elliptic or genus 2."""
    q = draw(st.sampled_from([5, 7, 11, 13]))
    genus = draw(st.sampled_from([1, 2]))
    try:
        if genus == 1:
            curve = elliptic_curve(q, draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)))
        else:
            low = draw(st.lists(st.integers(0, q - 1), min_size=5, max_size=5))
            curve = hyperelliptic_curve(q, low + [1])
    except SingularCurveError:
        assume(False)
    pts = affine_points(curve)
    n = len(pts) - 1
    assume(n - 1 > 2 * genus - 2)
    m = draw(st.integers(2 * genus - 1, n - 1))
    return scheme_build(curve, pts[0], pts[1:], m)


@settings(max_examples=80, deadline=None)
@given(small_schemes(), st.data())
def test_oracles_agree_on_random_small_curves(sch, data):
    mask = st.lists(st.booleans(), min_size=sch.n, max_size=sch.n)
    for _ in range(5):
        s = [i for i, keep in enumerate(data.draw(mask)) if keep]
        verdict = is_qualified_kernel(sch, s).qualified
        assert is_qualified_dual(sch, s).qualified == verdict
        if sch.genus == 1:
            assert is_qualified_clx(sch, s).qualified == verdict
        assert (privacy_check(sch, s) is PrivacyVerdict.DETERMINES_SECRET) == verdict
        if verdict:
            # monotone: adding any player keeps the set qualified
            for extra in set(range(sch.n)) - set(s):
                assert is_qualified_kernel(sch, s + [extra]).qualified
