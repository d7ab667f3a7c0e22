"""One benchmark process: the cold set-up of a workload, or one repetition.

    python3 bench/worker.py setup --workload exact-g1 --seed 1
    python3 bench/worker.py rep --workload deal-g2 --seed 1 --rep 0 [--trace]

run.py starts a fresh process for every sample, so ``lru_cache`` state and
``ru_maxrss`` start clean.  The last line on stdout is one JSON object;
the exit code is 1 when a correctness check failed.

Workloads (the program sees only the inputs generated here):

* ``exact-g1``: ``agss experiment`` on configs/theorem3.ini, the exact
  genus-1 sweep.  Its rows do not depend on the seed, so the output is
  byte-compared with a reference recorded from the unoptimised code.
* ``mc-g2-kernel``: the same command on configs/theorem4.ini with fewer
  samples.  Byte-compared at the config's own seed; at other seeds every
  seed-independent column must match the reference and the Monte Carlo
  columns must meet the acceptance-criterion-6 invariants.
* ``deal-g2``: library use of one genus-2 scheme at q=101, one round per
  random secret: share, decide a coalition with the dual oracle,
  reconstruct, and check the complement's privacy.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("exact-g1", "mc-g2-kernel", "deal-g2")
CLI_CONFIG = {"exact-g1": "theorem3.ini", "mc-g2-kernel": "theorem4.ini"}
REFERENCE = {"exact-g1": "theorem3.csv", "mc-g2-kernel": "theorem4-samples200.csv"}
# 200 samples keeps a criterion-6 invariant from failing by chance below
# 1e-4 per seed (true rates near 0.01 at q=101); the reference is recorded at 200
MC_SAMPLES = {"full": 200, "tiny": 64}
DEAL_ROUNDS = {"full": 150, "tiny": 5}
DEAL_Q, DEAL_GENUS, DEAL_DELTA = 101, 2, 0.5
# coalition complements |A| = m - 2 or m - 3: the upper gray zone
DEAL_OFFSETS = (2, 3)
# columns of the sweep CSV that do not depend on the sampling seed
FIXED_COLUMNS = ("q", "curve", "g", "n", "m", "t", "offset", "mode", "oracle", "bound")


def read_config(workload: str) -> dict:
    """The sweep parameters the benchmark needs from a workload's config."""
    if workload == "deal-g2":
        return {"q": [DEAL_Q], "genus": DEAL_GENUS, "delta": DEAL_DELTA}
    parser = configparser.ConfigParser()
    path = ROOT / "configs" / CLI_CONFIG[workload]
    if not parser.read(path):
        raise FileNotFoundError(path)
    sec = parser["experiment"]
    return {
        "q": [int(v) for v in sec["q"].split(",")],
        "genus": int(sec["genus"]),
        "delta": float(sec["delta"]),
        "offsets": [int(v) for v in sec["offsets"].split(",")],
        "seed": int(sec["seed"]),
    }


def scale_qs(cfg: dict, scale: str) -> list[int]:
    return cfg["q"][:1] if scale == "tiny" else cfg["q"]


def nominal_ops(workload: str, scale: str) -> int:
    """Operations one repetition attempts: sweep rows, or deal rounds."""
    if workload == "deal-g2":
        return DEAL_ROUNDS[scale]
    cfg = read_config(workload)
    return len(scale_qs(cfg, scale)) * len(cfg["offsets"])


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def build(workload: str, scale: str) -> list:
    """Curves, point lists, group tables and schemes of a workload."""
    from agss import curves, experiments

    cfg = read_config(workload)
    schemes = []
    for q in scale_qs(cfg, scale):
        if cfg["genus"] == 1:
            curve = experiments.find_elliptic_curve(q)
        else:
            curve = experiments.find_hyperelliptic_curve(q, cfg["genus"])
        curves.enumerate_points(curve)
        if cfg["genus"] == 1:
            curves.group_structure(curve)
        schemes.append(experiments.standard_scheme(curve, cfg["delta"]))
    return schemes


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import agss  # noqa: F401  (importing the package is part of set-up)

    build(args.workload, args.scale)
    setup_s = time.perf_counter() - t0
    return {"kind": "setup", "setup_s": setup_s, "env": environment()}


# --- CLI workloads ----------------------------------------------------------

def _read_sweep(text: str):
    lines = text.splitlines(keepends=True)
    return lines[:2], lines[2:]


def _expected_lines(workload: str, seed: int, scale: str, ref_dir: Path) -> tuple[list, list]:
    """Reference header (with the run's seed) and the rows a run must print."""
    head, rows = _read_sweep((ref_dir / REFERENCE[workload]).read_text(encoding="utf-8"))
    words = head[0].split(" ")  # "# seed=42 prng=pcg64 version=0.1.0"
    head[0] = " ".join([words[0], f"seed={seed}", *words[2:]])
    keep = {str(q) for q in scale_qs(read_config(workload), scale)}
    return head, [r for r in rows if r.split(",", 1)[0] in keep]


def _row_dict(header_line: str, line: str) -> dict:
    keys = next(csv.reader([header_line]))
    vals = next(csv.reader([line]))
    return dict(zip(keys, vals))


def _mc_row_ok(row: dict, ref: dict, samples: int) -> str | None:
    """Checks on a Monte Carlo row whose sampling seed has no reference."""
    for key in FIXED_COLUMNS:
        if row.get(key) != ref[key]:
            return f"column {key}: {row.get(key)!r} != reference {ref[key]!r}"
    if row["samples"] != str(samples):
        return f"samples {row['samples']} != {samples}"
    hits = int(row["qualified"])
    p_hat, lo, hi = float(row["p_hat"]), float(row["ci_lo"]), float(row["ci_hi"])
    if not 0 <= hits <= samples or p_hat != hits / samples:
        return f"p_hat {p_hat} does not match {hits}/{samples}"
    if not lo <= p_hat <= hi:
        return f"p_hat {p_hat} outside its interval [{lo}, {hi}]"
    off = int(row["offset"])
    if off < 2 and p_hat > 0.05:
        return f"offset {off}: p_hat {p_hat} > 0.05"
    if off >= 2 and p_hat < 0.95:
        return f"offset {off}: p_hat {p_hat} < 0.95"
    return None


def check_sweep(workload: str, text: str, seed: int, scale: str, ref_dir: Path) -> list[str]:
    """One message per failed row; a bad header fails every row."""
    exp_head, exp_rows = _expected_lines(workload, seed, scale, ref_dir)
    head, rows = _read_sweep(text)
    if head != exp_head or len(rows) != len(exp_rows):
        return [f"header or row count differs from the reference: {head!r}"] * len(exp_rows)
    byte_compare = workload == "exact-g1" or (
        scale == "full" and seed == read_config(workload)["seed"])
    failures = []
    for got, ref in zip(rows, exp_rows):
        if byte_compare:
            if got != ref:
                failures.append(f"row differs from the reference: {got.strip()!r}")
            continue
        problem = _mc_row_ok(_row_dict(head[1], got), _row_dict(head[1], ref), MC_SAMPLES[scale])
        if problem:
            failures.append(problem)
    return failures


def rep_cli(args, tracer) -> dict:
    import agss.cli

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-rep{args.rep}.csv"
    argv = ["experiment", "--config", str(ROOT / "configs" / CLI_CONFIG[args.workload]),
            "--seed", str(args.seed), "--workers", "1", "--out", str(out)]
    if args.workload == "mc-g2-kernel":
        argv += ["--samples", str(MC_SAMPLES[args.scale])]
    if args.scale == "tiny":
        _, rows = _expected_lines(args.workload, args.seed, args.scale, args.reference_dir)
        argv += ["--curve", next(csv.reader([rows[0]]))[1]]
    attempted = nominal_ops(args.workload, args.scale)
    t0 = time.perf_counter()
    try:
        rc = agss.cli.main(argv)
    except Exception as exc:  # a crash fails every row; the benchmark keeps reporting
        rc = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if rc != 0:
        failures = [f"agss experiment failed: {rc}"] * attempted
    else:
        text = out.read_text(encoding="utf-8")
        failures = check_sweep(args.workload, text, args.seed, args.scale, args.reference_dir)
    return {"t0": t0, "t1": t1, "ops_ms": [1000 * (t1 - t0)],
            "attempted": attempted, "failures": failures}


# --- deal-g2 --------------------------------------------------------------------

def _deal_inputs(scheme, seed: int, rep: int, rounds: int) -> list[tuple]:
    """(secret, share seed, coalition S, complement A) per round."""
    import numpy as np

    rng = np.random.default_rng([seed, rep])
    p, n, m = scheme.field.p, scheme.n, scheme.m
    out = []
    for _ in range(rounds):
        secret = int(rng.integers(p))
        share_seed = int(rng.integers(2**31))
        a_size = m - DEAL_OFFSETS[int(rng.integers(len(DEAL_OFFSETS)))]
        perm = rng.permutation(n)
        out.append((secret, share_seed, sorted(int(i) for i in perm[a_size:]),
                    sorted(int(i) for i in perm[:a_size])))
    return out


def rep_deal(args, tracer) -> dict:
    import agss.scheme

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("bench.setup"):
        [scheme] = build(args.workload, args.scale)
    inputs = _deal_inputs(scheme, args.seed, args.rep, DEAL_ROUNDS[args.scale])
    zero_info = agss.scheme.PrivacyVerdict.ZERO_INFORMATION
    ops_ms, failures = [], []
    t0 = time.perf_counter()
    for secret, share_seed, s_idx, a_idx in inputs:
        try:
            with span("bench.round"):
                r0 = time.perf_counter()
                vec = agss.scheme.share(scheme, secret, share_seed)
                verdict = agss.scheme.is_qualified_dual(scheme, s_idx)
                try:
                    got = agss.scheme.reconstruct(scheme, s_idx, [vec.shares[i] for i in s_idx])
                except agss.scheme.NotQualifiedError:
                    got = None
                privacy = agss.scheme.privacy_check(scheme, a_idx)
                ops_ms.append(1000 * (time.perf_counter() - r0))
        except Exception as exc:  # an unexpected error fails the round, not the run
            failures.append(f"|A|={len(a_idx)}: {type(exc).__name__}: {exc}")
            continue
        if vec.secret.value != secret:
            failures.append(f"dealt secret {vec.secret.value} != {secret}")
        elif (got is None) == verdict.qualified:
            failures.append(f"|A|={len(a_idx)}: dual oracle says qualified={verdict.qualified} "
                            f"but reconstruct {'raised' if got is None else 'succeeded'}")
        elif got is not None and got.value != secret:
            failures.append(f"|A|={len(a_idx)}: reconstructed {got.value} != {secret}")
        elif privacy != zero_info:
            failures.append(f"|A|={len(a_idx)}: privacy_check(A) = {privacy}")
    t1 = time.perf_counter()
    return {"t0": t0, "t1": t1, "ops_ms": ops_ms, "attempted": len(inputs), "failures": failures}


def cmd_rep(args) -> dict:
    import agss  # noqa: F401  (imported before the timed phase)

    tracer = None
    if args.trace:
        import probes
        from tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-rep{args.rep}")
        probes.install(tracer)
    run = rep_cli if args.workload in CLI_CONFIG else rep_deal
    res = run(args, tracer)
    t0, t1 = res.pop("t0"), res.pop("t1")
    res.update(kind="rep", traced=bool(tracer), wall_s=t1 - t0, env=environment(),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        tracer.restore()
        res["layers"] = traced_layers(tracer, t0, t1, res["failures"])
    return res


def traced_layers(tracer, t0: float, t1: float, failures: list) -> dict:
    """Per-layer metrics of a traced repetition; writes its spans out once."""
    import probes
    from tracing import self_times

    spans = tracer.spans
    selfs = self_times(spans)
    for s, st in zip(spans, selfs):
        if not 0 <= st <= s.duration:
            failures.append(f"span {s.name}: self time {st} outside [0, {s.duration}]")
    top = sum(s.duration for s in spans if s.parent is None and t0 <= s.start <= t1)
    layers = probes.layer_metrics(spans, selfs)
    layers["trace.coverage"] = top / (t1 - t0)
    tracer.write_jsonl(OUT_DIR / f"spans-{tracer.run_id}.jsonl")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["setup", "rep"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--reference-dir", type=Path, default=BENCH_DIR / "reference")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    res = cmd_setup(args) if args.kind == "setup" else cmd_rep(args)
    failures = res.pop("failures", [])
    res["failed"] = len(failures)
    res["failures"] = failures[:10]
    print(json.dumps(res))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
