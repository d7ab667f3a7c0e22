import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agss.cli import main
from agss.curves import elliptic_curve, group_structure, parse_curve_spec, point_count
from agss.experiments import CSV_HEADER, standard_layout, standard_scheme, exact_proportion_elliptic
from agss.groups import cofinite_amplitude
from agss.scheme import enumerate_access, share


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_info(capsys):
    code, out, _ = run(capsys, "curve-info", "--curve", "ec:p=5,a=1,b=1")
    assert code == 0
    assert "points=9" in out
    assert "invariant_factors=1,9" in out
    assert "group=Z_9" in out
    assert "hasse_ok=true" in out


def test_curve_info_hyperelliptic(capsys):
    code, out, _ = run(capsys, "curve-info", "--curve", "hyp:p=7,f=1,0,0,0,0,1")
    assert code == 0
    assert "genus=2" in out
    assert "points=" in out


def test_curve_info_errors(capsys):
    code, _, err = run(capsys, "curve-info", "--curve", "ec:p=5,a=0,b=0")
    assert code == 3 and "4a^3" in err
    code, _, _ = run(capsys, "curve-info", "--curve", "banana")
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["curve-info", "--nope", "x"])
    assert exc.value.code == 2


def test_scheme_share_reconstruct_roundtrip(capsys):
    code, out, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "share", "--secret", "7", "--seed", "42",
    )
    assert code == 0
    line = out.strip()
    # matches the library call exactly
    from agss.curves import affine_points
    from agss.scheme import scheme_build

    pts = affine_points(elliptic_curve(13, 1, 1))
    direct = share(scheme_build(elliptic_curve(13, 1, 1), pts[0], pts[1:], 5), 7, 42)
    assert line == direct.to_csv_line()

    n = len(line.split(",")) - 1
    subset = ",".join(str(i) for i in range(1, n + 1))
    code, out, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "reconstruct", "--subset", subset, "--shares", line,
    )
    assert code == 0
    assert out.strip() == "7"


def test_scheme_reconstruct_unqualified_exit_4(capsys):
    code, out, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "share", "--secret", "3", "--seed", "1",
    )
    line = out.strip()
    code, _, err = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "reconstruct", "--subset", "1,2,3", "--shares", line,
    )
    assert code == 4


def test_scheme_qualify_prints_three_verdicts(capsys):
    n = 16  # E/F_13 standard scheme
    subset = ",".join(str(i) for i in range(1, n + 1))
    code, out, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "qualify", "--subset", subset,
    )
    assert code == 0
    assert out.count("=Qualified") == 3
    code, out, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "qualify", "--subset", "1,2",
    )
    assert code == 0
    assert out.count("=Unqualified") == 3


def test_scheme_qualify_eliminates_once_per_oracle(capsys, monkeypatch):
    # a qualified kernel verdict carries the dual system's solution as its
    # witness, so the dual system is not eliminated a second time
    import agss.scheme

    shapes = []
    eliminate = agss.scheme._eliminate

    def spy(m, p, rows):
        shapes.append(m.shape)
        return eliminate(m, p, rows)

    monkeypatch.setattr(agss.scheme, "_eliminate", spy)
    for players, verdict in [(range(1, 15), "Qualified"), (range(1, 4), "Unqualified")]:
        shapes.clear()
        code, out, _ = run(
            capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
            "--action", "qualify", "--subset", ",".join(map(str, players)),
        )
        assert code == 0
        assert out.splitlines() == [f"{name}={verdict}" for name in ("kernel", "dual", "clx")]
        assert len(shapes) == 2


def test_scheme_qualify_genus2_two_verdicts(capsys):
    code, out, _ = run(
        capsys, "scheme", "--curve", "hyp:p=11,f=1,0,0,0,0,1", "--delta", "0.5",
        "--action", "qualify", "--subset", "1,2,3,4,5,6",
    )
    assert code == 0
    assert "kernel=" in out and "dual=" in out and "clx=" not in out
    # out-of-range player index is a usage error
    code, _, _ = run(
        capsys, "scheme", "--curve", "hyp:p=11,f=1,0,0,0,0,1", "--delta", "0.5",
        "--action", "qualify", "--subset", "1,2,99",
    )
    assert code == 2


def test_scheme_qualify_oracle_disagreement_exits_5(capsys, monkeypatch):
    import agss.cli
    from agss.scheme import QualifiedVerdict, is_qualified_dual

    def lying_dual(scheme, subset):
        return QualifiedVerdict(not is_qualified_dual(scheme, subset).qualified)

    monkeypatch.setattr(agss.cli, "is_qualified_dual", lying_dual)
    code, out, err = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "qualify", "--subset", "1,2",
    )
    assert code == 5
    assert "kernel=Unqualified" in out and "dual=Qualified" in out
    assert "oracle disagreement" in err


def test_corrupted_share_code_basis_makes_kernel_and_dual_disagree(capsys, monkeypatch):
    # the kernel oracle reads omega_matrix and the dual only gen_matrix, so
    # one wrong entry of the share-code basis shows as a disagreement
    # instead of fooling both oracles together
    import dataclasses
    import itertools

    import agss.cli
    from agss.curves import affine_points, hyperelliptic_curve
    from agss.scheme import _decide_one, scheme_build

    curve = hyperelliptic_curve(11, [1, 0, 0, 0, 0, 1])
    pts = affine_points(curve)
    sch = scheme_build(curve, pts[0], pts[1:], 5)
    omega = sch.omega_matrix.copy()
    omega[0, sch.pivots[1]] = (omega[0, sch.pivots[1]] + 1) % sch.field.p
    omega.flags.writeable = False
    corrupted = dataclasses.replace(sch, omega_matrix=omega)
    disagree = [
        a for t in range(sch.n + 1) for a in itertools.combinations(range(sch.n), t)
        if _decide_one(corrupted, a, "kernel") != _decide_one(corrupted, a, "dual")
    ]
    assert disagree

    monkeypatch.setattr(agss.cli, "_build_scheme_from_args", lambda args: (corrupted, curve))
    subset = ",".join(str(i + 1) for i in range(sch.n) if i not in disagree[0])
    code, _, err = run(
        capsys, "scheme", "--curve", "hyp:p=11,f=1,0,0,0,0,1", "--m", "5",
        "--action", "qualify", "--subset", subset,
    )
    assert code == 5
    assert "oracle disagreement" in err


def test_kernel_only_qualified_complement_exits_5_without_a_traceback(capsys, monkeypatch):
    # the reverse of the disagreement above: with this corrupted share-code
    # basis the kernel oracle finds 116 complements of E/F_13 qualified whose
    # dual system has no solution, so is_qualified_kernel finds no witness
    import dataclasses

    import agss.cli
    from agss.curves import affine_points
    from agss.scheme import OracleDisagreementError, _decide_one, is_qualified_kernel, scheme_build

    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    sch = scheme_build(curve, pts[0], pts[1:], 5)
    omega = sch.omega_matrix.copy()
    omega[0, sch.pivots[1]] = (omega[0, sch.pivots[1]] + 1) % sch.field.p
    omega.flags.writeable = False
    corrupted = dataclasses.replace(sch, omega_matrix=omega)
    a_idx = (1, 2, 4, 14)
    assert _decide_one(corrupted, a_idx, "kernel") and not _decide_one(corrupted, a_idx, "dual")
    subset = [i for i in range(sch.n) if i not in a_idx]
    with pytest.raises(OracleDisagreementError, match="oracle disagreement"):
        is_qualified_kernel(corrupted, subset)

    monkeypatch.setattr(agss.cli, "_build_scheme_from_args", lambda args: (corrupted, curve))
    code, out, err = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
        "--action", "qualify", "--subset", ",".join(str(i + 1) for i in subset),
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: oracle disagreement")
    assert "Traceback" not in err


def test_scheme_p0_override(capsys):
    # (0, 1) lies on y^2 = x^3 + x + 1 over F_13
    code, out, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5", "--p0", "0,1",
        "--action", "share", "--secret", "5", "--seed", "3",
    )
    assert code == 0
    assert out.strip().startswith("5,")
    code, _, _ = run(
        capsys, "scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5", "--p0", "2,2",
        "--action", "share", "--secret", "5", "--seed", "3",
    )
    assert code == 2  # not a point of the curve


def test_scheme_p0_override_reduces_mod_p(capsys):
    args = ("scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5",
            "--action", "share", "--secret", "5", "--seed", "3")
    canonical = run(capsys, *args, "--p0", "0,1")
    shifted = run(capsys, *args, "--p0", "13,14")
    assert canonical[0] == 0
    assert shifted == canonical


def test_count_command(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "ab:5", "--pointset", "full", "--t", "2", "--b", "0",
    )
    assert code == 0
    assert "count=2" in out
    assert "holds=true" in out
    code, out, _ = run(
        capsys, "count", "--group", "ab:5", "--pointset", "full", "--t", "0", "--b", "0",
    )
    assert "count=1" in out


def test_count_parse_error(capsys):
    code, _, _ = run(capsys, "count", "--group", "xx:5", "--t", "1", "--b", "0")
    assert code == 2


# (argv, exit code); "{root}" is the repository, "{tmp}" a fresh directory
FAILURES = [
    pytest.param(["count", "--group", "ab:5", "--pointset", "full", "--t", "9", "--b", "0"], 2, id="count-t-above-n"),
    pytest.param(["count", "--group", "ab:1", "--pointset", "full", "--t", "0", "--b", "0"], 2, id="count-trivial-group"),
    # the DP's budget is checked on n, t and N before the point set is listed
    pytest.param(["count", "--group", "ab:1000000000", "--pointset", "0", "--t", "0", "--b", "0"], 6,
                 id="count-table-cells-over-budget"),
    pytest.param(["count", "--group", "ab:100000000", "--pointset", "full", "--t", "2", "--b", "0"], 6,
                 id="count-full-set-over-budget"),
    pytest.param(["bound", "--theorem", "3", "--n", "10", "--t", "5", "--group-order", "0", "--phi", "2"], 2,
                 id="bound3-group-order-0"),
    pytest.param(["bound", "--theorem", "4", "--q", "1", "--genus", "2", "--n", "10", "--t", "5", "--m", "6", "--c", "2"],
                 2, id="bound4-q-1"),
    pytest.param(["bound", "--theorem", "4", "--genus", "2", "--n", "10", "--t", "5", "--m", "6", "--c", "2"], 2,
                 id="bound4-without-q"),
    pytest.param(["bound", "--theorem", "3", "--n", "10", "--t", "20", "--group-order", "5", "--phi", "2"], 2,
                 id="bound3-t-above-n"),
    pytest.param(["bound", "--theorem", "4", "--q", "101", "--genus", "2", "--n", "102", "--t", "47", "--m", "51",
                  "--c", "2"], 2, id="bound4-offset-2g"),
    pytest.param(["bound", "--theorem", "4", "--q", "101", "--genus", "2", "--n", "102", "--t", "52", "--m", "51",
                  "--c", "2"], 2, id="bound4-negative-offset"),
    pytest.param(["bound", "--theorem", "4", "--q", "101", "--genus", "2", "--n", "10", "--t", "20", "--m", "20", "--c", "2"],
                 2, id="bound4-t-above-n"),
    pytest.param(["scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5", "--action", "share", "--secret", "5", "--seed", "-1"],
                 2, id="share-negative-seed"),
    pytest.param(["scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5", "--action", "reconstruct", "--subset", "99",
                  "--shares", ",".join(["0"] * 17)], 2, id="reconstruct-player-99"),
    pytest.param(["scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5", "--action", "share"], 2, id="share-without-seed"),
    pytest.param(["scheme", "--curve", "ec:p=13,a=0,b=0", "--m", "5", "--action", "qualify", "--subset", "1"], 3,
                 id="scheme-singular-curve"),
    pytest.param(["curve-info", "--curve", "hyp:p=13,f=1,1,1,1"], 3, id="curve-info-cubic-with-x2-term"),
    # no x^9 + x + a is squarefree over F_5
    pytest.param(["experiment", "--config", "{tmp}/q5-genus4.ini", "--out", "{tmp}/x.csv"], 3,
                 id="experiment-no-search-curve"),
    pytest.param(["experiment", "--config", "{root}/configs/theorem3.ini", "--out", "{tmp}/missing/x.csv"], 2,
                 id="experiment-unwritable-out"),
    pytest.param(["experiment", "--config", "{tmp}/no-section.ini", "--out", "{tmp}/x.csv"], 2,
                 id="experiment-config-without-section-header"),
    pytest.param(["experiment", "--curve", "ec:p=13,a=1,b=1", "--seed", "1"], 2, id="experiment-without-out"),
    pytest.param(["experiment", "--curve", "ec:p=13,a=1,b=1", "--mode", "montecarlo", "--seed", "-1",
                  "--out", "{tmp}/x.csv"], 2, id="experiment-negative-seed"),
    pytest.param(["experiment", "--curve", "hyp:p=19,f=1,0,0,0,0,1", "--mode", "exact", "--seed", "1",
                  "--out", "{tmp}/x.csv"], 2, id="experiment-exact-genus-2"),
    pytest.param(["experiment", "--curve", "hyp:p=19,f=1,0,0,0,0,1", "--mode", "montecarlo", "--oracle", "clx",
                  "--samples", "10", "--seed", "1", "--out", "{tmp}/x.csv"], 2, id="experiment-clx-montecarlo-genus-2"),
    pytest.param(["experiment", "--curve", "hyp:p=19,f=1,0,0,0,0,1", "--mode", "exhaustive", "--oracle", "clx",
                  "--seed", "1", "--out", "{tmp}/x.csv"], 2, id="experiment-clx-exhaustive-genus-2"),
]


@pytest.mark.parametrize("argv, code", FAILURES)
def test_failures_exit_with_one_error_line(capsys, tmp_path, argv, code):
    (tmp_path / "no-section.ini").write_text("q = 13\nseed = 1\n")
    (tmp_path / "q5-genus4.ini").write_text("[experiment]\nq = 5\ngenus = 4\nmode = montecarlo\nseed = 1\n")
    got, out, err = run(capsys, *(a.format(root=ROOT, tmp=tmp_path) for a in argv))
    assert got == code
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.splitlines()[0]]
    assert "Traceback" not in err
    if "--seed" in argv and argv[argv.index("--seed") + 1] == "-1":
        # the message names the value, not only numpy's "expected non-negative integer"
        assert "-1" in err.splitlines()[0]


@pytest.mark.parametrize("group, pointset, t", [("ab:1000000000", "0", "0"), ("ab:100000000", "full", "2")])
def test_count_over_budget_exits_before_allocating(group, pointset, t):
    # nothing that grows with the group order is allocated before the budget
    # check, so a group of 10^8 or 10^9 elements is refused at once; a small
    # wrapper process runs the command, because a child's peak RSS counts the
    # memory of the process it was started from
    script = (
        "import resource, subprocess, sys, time\n"
        "start = time.monotonic()\n"
        "done = subprocess.run([sys.executable, '-m', 'agss.cli', *sys.argv[1:]], capture_output=True, text=True)\n"
        "elapsed = time.monotonic() - start\n"
        "peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
        "print(done.returncode, elapsed, peak_mb, done.stderr.splitlines()[0])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, "count", "--group", group, "--pointset", pointset, "--t", t, "--b", "0"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    code, elapsed, peak_mb, error = result.stdout.split(maxsplit=3)
    assert code == "6"
    assert error.startswith("error: ") and "budget" in error
    assert float(elapsed) < 5, f"{elapsed} s"
    assert float(peak_mb) < 64, f"{peak_mb} MB"


def test_unexpected_errors_propagate(tmp_path, monkeypatch):
    import agss.cli

    def broken(config):
        raise RuntimeError("a library bug")

    monkeypatch.setattr(agss.cli, "sweep_csv", broken)
    out = tmp_path / "x.csv"
    with pytest.raises(RuntimeError, match="a library bug"):
        main(["experiment", "--curve", "ec:p=13,a=1,b=1", "--seed", "1", "--out", str(out)])
    assert not out.exists()


def test_every_agss_error_class_has_one_exit_policy():
    # bad input is a ValueError (exit 2); a failure with its own exit code
    # reaches it through the row of its class or a base class; an
    # ArithmeticError is a bug signal with no row, so it keeps its traceback;
    # NoSolutionError never leaves agss.scheme
    import inspect

    from agss import curves, experiments, field, groups, scheme
    from agss.cli import _EXIT_CODES

    classes = {
        cls for module in (field, curves, groups, scheme, experiments) for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, Exception) and cls.__module__ == module.__name__
    }
    assert {field.NoSolutionError, curves.WrongGenusError, scheme.CodeBasisError} <= classes
    for cls in classes:
        code = next((_EXIT_CODES[c] for c in cls.__mro__ if c in _EXIT_CODES), None)
        if issubclass(cls, ArithmeticError):
            assert code is None, cls
        elif issubclass(cls, ValueError):
            assert code == 2, cls
        elif cls is not field.NoSolutionError:
            assert code in (3, 4, 5, 6), cls


def test_zero_secret_column_is_a_bug_signal_that_keeps_its_traceback(monkeypatch):
    # check_degree's m <= n - 1 leaves some share-code word nonzero at P0, so
    # a share-code basis that vanishes there is a library bug, not bad input
    import agss.scheme
    from agss.curves import affine_points
    from agss.scheme import CodeBasisError, scheme_build

    kernel_basis = agss.scheme._kernel_basis

    def zero_column_0(a, p):
        omega, pivots = kernel_basis(a, p)
        omega[:, 0] = 0
        return omega, pivots

    monkeypatch.setattr(agss.scheme, "_kernel_basis", zero_column_0)
    curve = elliptic_curve(13, 1, 1)
    pts = affine_points(curve)
    with pytest.raises(CodeBasisError, match="position 0"):
        scheme_build(curve, pts[0], pts[1:], 5)
    with pytest.raises(CodeBasisError, match="position 0"):
        main(["scheme", "--curve", "ec:p=13,a=1,b=1", "--m", "5", "--action", "qualify", "--subset", "1,2"])


def test_experiment_writes_counts_past_the_int_digit_limit(capsys, tmp_path, monkeypatch):
    # exact counts pass Python's 4300-digit int-to-str limit from q ~ 14 300
    import agss.cli
    import agss.experiments

    digits = "1" + "0" * 4999
    row = dict(zip(CSV_HEADER, [20011, "ec:p=20011,a=1,b=1", 1, 19793, 9896, 9896, 0, "exact", "kernel",
                                10**4999, 10**4999, 0.5, 0.5, 0.5, 1.0]))
    monkeypatch.setattr(agss.experiments, "sweep_rows", lambda config: [row])
    monkeypatch.setattr(agss.cli, "sweep_rows", lambda config: [row])
    limit = sys.get_int_max_str_digits()
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        code, _, err = run(capsys, "experiment", "--curve", "ec:p=13,a=1,b=1", "--seed", "1",
                           "--format", fmt, "--out", str(out))
        assert (code, err) == (0, f"wrote {out}\n")
        assert out.read_text().count(digits) == 2
        assert sys.get_int_max_str_digits() == limit

    def broken():
        raise RuntimeError("rendering failed")

    with pytest.raises(RuntimeError):
        agss.experiments.without_digit_limit(broken)
    assert sys.get_int_max_str_digits() == limit


def test_bound_command(capsys):
    code, out, _ = run(
        capsys, "bound", "--theorem", "3", "--n", "20", "--t", "1",
        "--group-order", "50", "--phi", "0",
    )
    assert code == 0
    assert "total=0.52" in out
    code, out, _ = run(
        capsys, "bound", "--theorem", "4", "--n", "99", "--t", "40",
        "--q", "101", "--genus", "2", "--m", "41", "--c", "2",
    )
    assert code == 0
    assert "total=" in out
    code, _, _ = run(
        capsys, "bound", "--theorem", "4", "--n", "99", "--t", "40",
        "--q", "101", "--genus", "2", "--m", "44", "--c", "2",
    )
    assert code == 2  # regime mismatch


def _reference_rows(name):
    with open(ROOT / "bench" / "reference" / name, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _row_id(row):
    return f"q{row['q']}-offset{row['offset']}"


@pytest.mark.parametrize("row", _reference_rows("theorem4-samples200.csv"), ids=_row_id)
def test_bound_theorem4_prints_the_sweeps_bound(capsys, row):
    # every gray-zone offset, 0 <= m - t < 2g, is one theorem-4 call
    c = point_count(parse_curve_spec(row["curve"])) - int(row["n"])
    code, out, _ = run(capsys, "bound", "--theorem", "4", "--q", row["q"], "--genus", row["g"], "--n", row["n"],
                       "--t", row["t"], "--m", row["m"], "--c", str(c))
    assert code == 0
    assert f"total={row['bound']}" in out.splitlines()


@pytest.mark.parametrize("row", _reference_rows("theorem3.csv"), ids=_row_id)
def test_bound_theorem3_prints_the_sweeps_bound(capsys, row):
    curve = parse_curve_spec(row["curve"])
    table = group_structure(curve)
    p0, _, _ = standard_layout(curve, 0.5)
    phi = cofinite_amplitude(table.group, [table.group.identity, table.log(p0)])
    code, out, _ = run(capsys, "bound", "--theorem", "3", "--n", row["n"], "--t", row["t"],
                       "--group-order", str(point_count(curve)), "--phi", repr(phi))
    assert code == 0
    assert f"total={row['bound']}" in out.splitlines()


def test_experiment_explicit_genus2_curve_sweeps_offsets_past_g(tmp_path, capsys):
    # the offsets are checked against the curve's own genus, not the config's
    out = tmp_path / "x.csv"
    spec = "hyp:p=19,f=1,0,0,0,0,1"
    code, _, _ = run(capsys, "experiment", "--curve", spec, "--mode", "exhaustive", "--t-offset", "2,3",
                     "--seed", "1", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
    scheme = standard_scheme(parse_curve_spec(spec), 0.5)
    assert [(int(r["t"]), int(r["qualified"])) for r in rows] == [
        (t, enumerate_access(scheme, t).qualified) for t in (scheme.m - 2, scheme.m - 3)
    ]


def _write_config(path, body):
    path.write_text(body)
    return str(path)


def test_experiment_roundtrip_and_determinism(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nq = 13\ngenus = 1\ndelta = 0.5\noffsets = 0,1\n"
        "mode = exact\noracle = kernel\nseed = 7\n",
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, _ = run(capsys, "experiment", "--config", cfg, "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, "experiment", "--config", cfg, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("# seed=7 prng=pcg64")
    assert text.count("\n") == 4  # comment + header + 2 rows

    # values mirror the library
    sch = standard_scheme(elliptic_curve(13, 1, 1), 0.5)
    est = exact_proportion_elliptic(sch, sch.m)
    assert f",{est.qualified}," in text


def test_experiment_json_format(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nq = 13\nmode = exact\noffsets = 0\nseed = 3\n",
    )
    out = tmp_path / "rows.json"
    code, _, _ = run(capsys, "experiment", "--config", cfg, "--out", str(out), "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["prng"] == "pcg64"
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["q"] == 13


def test_experiment_flag_overrides(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nq = 13\nmode = exact\noffsets = 0,1\nseed = 3\n",
    )
    out = tmp_path / "o.csv"
    code, _, _ = run(
        capsys, "experiment", "--config", cfg, "--out", str(out), "--t-offset", "0",
    )
    assert code == 0
    assert out.read_text().count("\n") == 3  # one data row after override


def test_experiment_missing_seed_is_an_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.ini", "[experiment]\nq = 13\nmode = exact\n")
    code, _, err = run(capsys, "experiment", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "seed" in err


def test_experiment_genus2_invalid_field_size_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nq = 1\ngenus = 2\noffsets = 0\nmode = montecarlo\nsamples = 10\nseed = 1\n",
    )
    code, _, err = run(capsys, "experiment", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "at least 5" in err


def test_experiment_degree_out_of_range_exits_2(tmp_path, capsys):
    # m = round(0.03 * 16) = 0 violates 2g - 2 < m; exact mode builds no
    # scheme, yet checks the layout as scheme_build does
    for mode in ("exact", "exhaustive", "montecarlo"):
        out = tmp_path / f"{mode}.csv"
        code, _, err = run(
            capsys, "experiment", "--curve", "ec:p=13,a=1,b=1", "--mode", mode, "--delta", "0.03",
            "--t-offset", "0,1", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert "need 2g-2 < m <= n-1, got m=0" in err
        assert not out.exists()


def test_experiment_exact_mode_builds_no_code_matrices(tmp_path, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("exact mode built a code matrix")

    monkeypatch.setattr("agss.experiments.scheme_build", refuse)
    monkeypatch.setattr("agss.scheme._kernel_basis", refuse)
    out = tmp_path / "theorem3.csv"
    code, _, _ = run(capsys, "experiment", "--config", str(ROOT / "configs/theorem3.ini"), "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (ROOT / "bench/reference/theorem3.csv").read_bytes()


def test_experiment_exact_mode_lists_no_points(tmp_path, capsys, monkeypatch):
    from agss.curves import group_structure, point_count

    def refuse(*_args, **_kwargs):
        raise AssertionError("exact mode listed the points")

    monkeypatch.setattr("agss.curves.enumerate_points", refuse)
    group_structure.cache_clear()
    point_count.cache_clear()
    out = tmp_path / "theorem3.csv"
    code, _, _ = run(capsys, "experiment", "--config", str(ROOT / "configs/theorem3.ini"), "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (ROOT / "bench/reference/theorem3.csv").read_bytes()


def test_experiment_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.ini", "[experiment]\nq = 13\nseed = 1\nwhat = 2\n")
    code, _, _ = run(capsys, "experiment", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_experiment_budget_exit_6(tmp_path, capsys):
    # exhaustive mode over C(103, 51) subsets blows the enumeration limit
    cfg = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nq = 101\nmode = exhaustive\noffsets = 0\nseed = 1\n",
    )
    code, _, _ = run(capsys, "experiment", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert code == 6


def test_experiment_preset_files_parse(capsys, tmp_path):
    # the shipped presets should at least validate and start (tiny override run)
    code, _, _ = run(
        capsys, "experiment", "--config", "configs/theorem3.ini",
        "--out", str(tmp_path / "t3.csv"), "--curve", "ec:p=13,a=1,b=1",
    )
    assert code == 0


def test_serial_sweep_imports_no_process_pool(tmp_path):
    # 1100 samples are two Monte Carlo chunks; with one worker they run
    # in-process, so the pool's modules stay unimported
    script = (
        "import sys\n"
        "import agss\n"
        "import agss.cli\n"
        "code = agss.cli.main(['experiment', '--config', sys.argv[1], '--curve', 'hyp:p=13,f=1,1,0,0,0,1',\n"
        "    '--t-offset', '0,3', '--samples', '1100', '--workers', '1', '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "configs/theorem4.ini"), str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.split("\n")[-2] == "0 []"
    assert (tmp_path / "x.csv").read_text().count(",montecarlo,kernel,1100,") == 2
