"""The agss benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload exact-g1 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 0    # every workload
    python3 bench/run.py --workload deal-g2 --seed 1 --trace 1

Each sample runs in a fresh process (bench/worker.py) with one worker and
BLAS thread pools capped at nproc:

1. ``--trace 0``: a few cold set-up processes (import agss, build the
   workload's curves, point lists, group tables and schemes), then untraced
   repetitions until ``--seconds`` is spent.  Prints wall_s, setup_s,
   op_ms.p50, op_ms.p99 and peak_rss_mb.
2. ``--trace 1``: untraced and traced repetitions alternate; prints the
   per-layer metrics of the traced ones and trace.overhead_ratio, their
   wall time over the untraced wall time, minus 1.

Every repetition checks the program's output.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full report,
with the environment and every sample, goes to .bench_out/.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

ROOT = worker.ROOT
WORKER = Path(worker.__file__)
# the whole invocation must end within 180 s; keep a margin for reporting
DEADLINE_S = 165
SETUPS = {"full": 5, "tiny": 1}
MIN_REPS = {"full": 3, "tiny": 1}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def missing_inputs(ref_dir: Path) -> list[Path]:
    need = [ROOT / "src" / "agss" / "__init__.py", ROOT / "BENCHMARK.json"]
    need += [ROOT / "configs" / c for c in worker.CLI_CONFIG.values()]
    need += [ref_dir / r for r in worker.REFERENCE.values()]
    return [p for p in need if not p.is_file()]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def commit() -> str | None:
    """HEAD of the checkout when it is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99, p95, p90 and p75 with at least ten samples beyond
    it.  With fewer than 40 samples no tail is measured and the median is
    reported instead; the maximum of a few samples is mostly noise."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "p50", statistics.median(values)


def run_child(args, deadline: float, kind: str, rep: int = 0, traced: bool = False) -> dict:
    """One worker process; a crash or timeout fails every operation it attempts."""
    cmd = [sys.executable, str(WORKER), kind, "--workload", args.workload, "--seed", str(args.seed),
           "--rep", str(rep), "--scale", args.scale, "--reference-dir", str(args.reference_dir)]
    if traced:
        cmd.append("--trace")
    nominal = worker.nominal_ops(args.workload, args.scale) if kind == "rep" else 1
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"kind": kind, "traced": traced, "attempted": nominal, "failed": nominal,
                "failures": [f"{kind} process timed out"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"kind": kind, "traced": traced, "attempted": nominal, "failed": nominal,
                "failures": [f"{kind} process exited {proc.returncode}: {proc.stderr[-2000:]}"]}


def collect(args) -> tuple[list, list]:
    """Set-up samples, then repetitions until --seconds is spent."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.trace else [run_child(args, deadline, "setup") for _ in range(SETUPS[args.scale])]
    reps = []
    start = time.monotonic()
    min_reps = max(MIN_REPS[args.scale], 2 if args.trace else 1)
    while True:
        reps.append(run_child(args, deadline, "rep", rep=len(reps),
                              traced=args.trace and len(reps) % 2 == 1))
        now = time.monotonic()
        per_rep = (now - start) / len(reps)
        if now + per_rep > deadline:
            break
        if len(reps) >= min_reps and now - start + per_rep > args.seconds:
            break
    return setups, reps


def median_of(samples: list[dict], key: str) -> float | None:
    vals = [s[key] for s in samples if key in s]
    return statistics.median(vals) if vals else None


def end_to_end(setups: list, reps: list) -> tuple[dict, dict]:
    ops = [v for r in reps for v in r.get("ops_ms", [])]
    label, tail = tail_percentile(ops) if ops else ("none", None)
    values = {
        "wall_s": median_of(reps, "wall_s"),
        "setup_s": median_of(setups, "setup_s"),
        "op_ms.p50": statistics.median(ops) if ops else None,
        "op_ms.p99": tail,
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
    }
    detail = {"op_samples": len(ops), "op_ms.p99_reported_as": label,
              "repetitions": len(reps), "setups": len(setups)}
    return values, detail


def per_layer(reps: list) -> tuple[dict, dict]:
    traced = [r for r in reps if r.get("traced") and "layers" in r]
    plain = [r for r in reps if not r.get("traced") and "wall_s" in r]
    values = {}
    if traced:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced)
    if traced and plain:
        values["trace.overhead_ratio"] = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1
    return values, {"traced_repetitions": len(traced), "untraced_repetitions": len(plain)}


def run_workload(args, bench: dict) -> int:
    setups, reps = collect(args)
    samples = setups + reps
    attempted = sum(r.get("attempted", 0) for r in reps)
    # a set-up process attempts one operation: building the workload
    failed = sum(min(r.get("failed", 0), r.get("attempted", 1)) for r in samples)
    failures = [f for r in samples for f in r.get("failures", [])]

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    values, detail = per_layer(reps) if args.trace else end_to_end(setups, reps)
    missing = [s["name"] for s in specs if values.get(s["name"]) is None]
    extra = sorted(set(values) - {s["name"] for s in specs})
    if missing or extra:
        failures.append(f"metrics missing {missing} or not declared {extra}")
        failed = max(failed, 1)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs if values.get(s["name"]) is not None}
    correct = failed == 0 and attempted > 0
    env = {**next((s["env"] for s in samples if "env" in s), {}),
           "nproc": nproc(), "blas_threads": child_env()["OPENBLAS_NUM_THREADS"], "workers": 1,
           "seed": args.seed, "commit": commit(), "source_sha256": source_sha256()}
    error_rate = failed / attempted if attempted else 1.0

    report = {"workload": args.workload, "trace": int(args.trace), "scale": args.scale,
              "seconds": args.seconds, "env": env, "correct": correct, "attempted": attempted,
              "failed": failed, "error_rate": error_rate, "failures": failures[:50],
              "metrics": metrics, "detail": detail, "samples": samples}
    worker.OUT_DIR.mkdir(exist_ok=True)
    path = worker.OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={int(args.trace)} scale={args.scale}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {error_rate:.6g} ({failed}/{attempted})")
    print("  " + " ".join(f"{k}={v}" for k, v in detail.items()))
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for f in failures[:10]:
        print(f"  FAILED: {f}")
    print(f"  report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*worker.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: smallest inputs, for the harness self-tests")
    parser.add_argument("--reference-dir", type=Path, default=worker.BENCH_DIR / "reference",
                        help="reference CSVs (the self-tests pass a corrupted copy)")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    args.reference_dir = args.reference_dir.resolve()
    missing = missing_inputs(args.reference_dir)
    if missing:
        print("error: the benchmark needs the agss sources and its inputs; missing: "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    bench = load_benchmark()
    rc = 0
    for name in worker.WORKLOADS if args.workload == "all" else [args.workload]:
        rc |= run_workload(argparse.Namespace(**{**vars(args), "workload": name}), bench)
    return rc


if __name__ == "__main__":
    sys.exit(main())
