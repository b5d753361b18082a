"""Benchmark of the cohscat figure pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload analytic --seed 12345 --seconds 40 --trace 0

Each operation is one `cohscat` CLI call (`fig <id>` or `sim rabi`) run by
bench/op.py in a fresh interpreter with `--threads 1` and `--seed <seed>`,
one at a time, the way a user runs a figure. Passes over the workload's
operations repeat, in alternating order, until `--seconds` is used up;
every output is checked against an oracle (bench/checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs each op untraced
and traced back to back and prints the per-layer metrics (bench/spans.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
Everything the run writes goes under .bench_out/, including a
BENCH_<workload>_<seed>_trace<k>.json record with the environment.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
OP_TIMEOUT_S = 150

# `sim rabi` is about half of this workload's compute and its time varies
# most from sample to sample, so each pass samples it three times.
ANALYTIC_OPS = [
    (name, ["sim", "rabi"] if name == "rabi" else ["fig", name])
    for name in ("fig1d", "fig2a", "rabi", "fig2b", "fig2c", "rabi", "fig2d", "fig2e", "rabi",
                 "fig3d", "fig3e")
]
PULSED_OPS = [("fig3b", ["fig", "fig3b"]), ("fig3c", ["fig", "fig3c"])]
# name -> (operations, scenario file or None)
WORKLOADS = {
    "analytic": (ANALYTIC_OPS, None),
    "pulsed": (PULSED_OPS, None),
    "pulsed_dense": (PULSED_OPS, "bench/dense.json"),
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "COHSCAT_THREADS",
)


def _git_sha(root: Path):
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cohscat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(oracle, name, argv, seed, config, trace, outdir: Path) -> dict:
    """Run one operation in a fresh interpreter; returns its record.

    A record holds the op's report (timings, counts, spans) and `problems`,
    empty when the op exited 0 and passed every output check.
    """
    cmd = [sys.executable, str(BENCH / "op.py"), "--out", str(outdir)]
    if trace:
        cmd.append("--trace")
    if config:
        cmd += ["--config", config]
    cmd += ["--", *argv, "--threads", "1", "--seed", str(seed)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"op": name, "traced": trace, "problems": [f"timed out after {OP_TIMEOUT_S} s"]}
    record = {"op": name, "traced": trace, "problems": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["problems"].append(f"runner exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return record
    report = json.loads(lines[-1])
    record.update(report)
    record["setup_s"] = report["ready"] - spawned
    if report["code"] != 0:
        record["problems"].append(f"cohscat exit {report['code']}: {proc.stderr.strip()[-400:]}")
        return record
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        record["problems"] += oracle.problems(name, manifest, report, seed)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        record["problems"].append(f"output check could not run: {exc!r}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return record


def reference_s() -> float:
    """Time of a fixed kernel that mixes the two kinds of work the ops do,
    Python bytecode and numpy passes over fresh 1e5-element arrays.

    Recorded with each result as a probe of the machine's speed, so that a
    slow machine can be told apart from a slow commit. Metrics are not
    scaled by it: its ratio to op times moves by tens of percent.
    """
    import numpy as np

    started = time.perf_counter()
    a = np.linspace(0.0, 1.0, 100_000) * (1.0 + 1.0j)
    for _ in range(20):
        a = np.exp(-0.001 * a) * a + 0.5
    x = 0.0
    for i in range(60_000):
        x += math.sin(i * 1e-3)
    return time.perf_counter() - started


def run_passes(args, oracle, workdir: Path) -> list[dict]:
    """Passes over the workload until the time is used.

    Each pass is {"complete": bool, "records": [...]}. The order reverses
    every other pair of passes, so each op samples early and late positions
    while the machine's speed drifts. With --trace 1 each op runs twice in a
    row, untraced and traced, first one way round and then the other, so
    the tracing overhead compares neighbours in time. The run stops before
    an op that would end past the deadline, once one pass is complete.
    """
    ops, config = WORKLOADS[args.workload]
    deadline = time.monotonic() + args.seconds
    took: dict[str, float] = {}
    passes: list[dict] = []
    count = 0
    while True:
        order = ops if len(passes) % 4 < 2 else ops[::-1]
        if not args.trace:
            modes = (False,)
        else:
            modes = (False, True) if len(passes) % 2 == 0 else (True, False)
        current = {"complete": False, "records": []}
        passes.append(current)
        for name, argv in order:
            if passes[0]["complete"] and time.monotonic() + took[name] > deadline:
                return passes
            started = time.monotonic()
            for traced in modes:
                count += 1
                current["records"].append(
                    run_op(oracle, name, argv, args.seed, config, traced, workdir / f"op{count}")
                )
            took[name] = time.monotonic() - started
        current["complete"] = True


def _timed(records):
    """Records of ops that ran to the end. An op whose output failed a
    check still did its work, so its times count; `failed` reports it."""
    return [r for r in records if r.get("code") == 0]


def _sum_of_op_medians(records, key) -> float:
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r[key])
    return sum(statistics.median(v) for v in by_op.values())


def end_to_end(passes) -> tuple[dict, dict]:
    records = [r for p in passes for r in _timed(p["records"])]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": _sum_of_op_medians(records, "wall_s"),
        "cpu_s": _sum_of_op_medians(records, "cpu_s"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    samples = {"complete_passes": sum(p["complete"] for p in passes), "ops": len(records)}
    return metrics, samples


def per_layer(passes) -> tuple[dict, dict]:
    from bench import spans

    per_pass = []
    for p in passes:
        if not p["complete"]:
            continue
        # An op sampled several times in a pass counts once, by its mean.
        by_op: dict[str, list[dict]] = {}
        for r in _timed(p["records"]):
            if r["traced"]:
                counts = spans.tally(r["spans"])
                counts.update({"wall_s": r["wall_s"], "cli.csv_rows": r["csv_rows"],
                               "cli.bytes_written": r["bytes_written"]})
                by_op.setdefault(r["op"], []).append(counts)
        totals = {key: sum(statistics.fmean(c[key] for c in cs) for cs in by_op.values())
                  for key in next(iter(by_op.values()))[0]}
        per_pass.append(spans.derive(totals))
    metrics = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
    records = [r for p in passes for r in _timed(p["records"])]
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics["trace.overhead_frac"] = (
        _sum_of_op_medians(traced, "wall_s") / _sum_of_op_medians(plain, "wall_s") - 1.0
    )
    return metrics, {"complete_passes": len(per_pass), "ops": len(records)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cohscat figure benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cohscat" / "cli.py").is_file():
        print(f"bench: no cohscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("bench: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.checks import Oracle

    env = environment(ROOT, args)
    workdir = OUT / f"ops-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Untimed warm-up: byte-compiles the package and fills the file cache.
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import cohscat.cli"],
            cwd=ROOT, check=True, timeout=OP_TIMEOUT_S,
        )
        probes = [reference_s() for _ in range(3)]
        passes = run_passes(args, Oracle(config=WORKLOADS[args.workload][1]), workdir)
        probes += [reference_s() for _ in range(3)]
        env["reference_kernel_s"] = statistics.median(probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAILED {r['op']}: {'; '.join(r['problems'])}")
    if not _timed(records):
        print("bench: no operation ran to the end; no metrics", file=sys.stderr)
        return 1
    computed, samples = (per_layer if args.trace else end_to_end)(passes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(records):.3g}); samples {samples}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "env": env,
        "samples": samples,
        "metrics": metrics,
        "ops": [{k: v for k, v in r.items() if k != "spans"} for r in records],
    }
    name = f"BENCH_{args.workload}_{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
