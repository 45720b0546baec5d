"""groupcover benchmark: run one workload through the real CLI and report
end-to-end metrics (or, with --trace 1, per-layer metrics).

    python3 bench/run.py --workload finite-lattice --seed 0 --seconds 30 --trace 0

The run repeats passes until --seconds are used up.  Each pass is a fresh
process (bench/worker.py) that sets up the workload, runs its op list once as
in-process calls of ``groupcover.cli.main`` with ``--format json`` and checks
every answer, so process-wide caches and peak RSS belong to one pass.  One
client, closed loop, one thread.

Times are in reference seconds (see worker.py): measured seconds scaled by
the speed of the machine at that moment relative to the machine the
baseline was taken on, as timed by a fixed reference loop between ops.
Run times are medians over passes: each op is first reduced to its median
time over passes, wall_s is the sum of those op times, and op_s_p50 and
op_s_tail are taken across them.  On a shared machine whose speed swings
within seconds, the median of several repeats is steadier than any one of
them, and steadier than the fastest, which catches rare fast moments.
setup_s is the median over the passes and over set-up-only passes (worker
processes that stop after set-up), which get a tenth of the run, and
peak_rss_mb the median over passes.  With --trace 1 the passes alternate untraced and traced;
trace.overhead compares their wall_s and the layer values are medians over
traced passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it name the machine, the sample counts and the tail
percentile.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

DIGESTS = BENCH_DIR / "digests.json"
WORKDIR = ROOT / ".bench_work"
DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps this many ops above it
SETUP_SHARE = 0.1  # of a run's time, for passes that stop after set-up

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    section: {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for section in ("end_to_end", "per_layer")
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test size: a few cheap ops per workload")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass at the default seed and store its output digests")
    return parser.parse_args(argv)


def source_id() -> str:
    """The git commit of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(job: dict, timeout: float) -> dict:
    job = dict(job, started=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_op_times(passes):
    """Each op's median time over the given passes."""
    return [statistics.median(ops) for ops in zip(*(p["op_s"] for p in passes))]


def tail_of(values):
    """(label, value): the order statistic with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return "max", ordered[-1]
    rank = n - TAIL_BEYOND - 1
    return f"p{100 * (rank + 1) // n}", ordered[rank]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "groupcover" / "cli.py").is_file():
        print(f"groupcover sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    digests = None
    if args.seed == workloads.DEFAULT_SEED and not args.small and not args.record_digests:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "small": args.small,
        "digests": digests,
        "workdir": str(WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"),
        "trace": False,
        "setup_only": False,
    }

    plain, traced = [], []
    setups = []  # set-up times of the passes and of the set-up-only passes
    setup_only_s = 0.0
    pass_times = []
    while True:
        elapsed = time.monotonic() - started
        want_trace = bool(args.trace) and len(traced) < len(plain)
        enough = plain and (traced or not args.trace)
        next_s = statistics.median(pass_times) if pass_times else 0.0
        if args.record_digests and plain:
            break
        if enough and elapsed + next_s > args.seconds:
            break
        remaining = DEADLINE_S - elapsed
        if remaining <= 0:
            print("run exceeded its deadline", file=sys.stderr)
            return 3
        pass_start = time.monotonic()
        try:
            # set-up is short and noisy: more samples of it, from passes
            # that stop after set-up, within SETUP_SHARE of the run
            while not want_trace and setup_only_s < SETUP_SHARE * elapsed:
                setup_start = time.monotonic()
                setups.append(run_pass(dict(job, setup_only=True), remaining)["setup_s"])
                setup_only_s += time.monotonic() - setup_start
            remaining = DEADLINE_S - (time.monotonic() - started)
            result = run_pass(dict(job, trace=want_trace), remaining)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            return 3
        pass_times.append(time.monotonic() - pass_start)
        (traced if want_trace else plain).append(result)
        if not want_trace:
            setups.append(result["setup_s"])

    if args.record_digests:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[args.workload] = plain[0]["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(plain[0]['digests'])} digests for {args.workload}")

    passes = plain + traced
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure['op']}: {failure['why']}")

    ops = len(plain[0]["op_s"])
    per_op = median_op_times(plain)
    tail_label, tail_value = tail_of(per_op)
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} passes x {ops} ops"
        f" (+{len(traced)} traced); machine speed"
        f" {statistics.median(p['speed'] for p in passes):.3f} x reference;"
        f" nproc {os.cpu_count()}; python {platform.python_version()}; source {source_id()}"
    )
    print(
        f"op_s_p50 and op_s_tail over {ops} per-op median times; op_s_tail is {tail_label};"
        f" error_frac {len(failures)}/{attempted}"
    )
    if args.trace:
        metrics = {}
        layers = [p["layers"] for p in traced]
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        metrics["trace.overhead"] = sum(median_op_times(traced)) / sum(per_op) - 1
        units = UNITS["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_op),
            "op_s_p50": statistics.median(per_op),
            "op_s_tail": tail_value,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = UNITS["end_to_end"]
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
