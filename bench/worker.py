"""One benchmark pass in a fresh process: set up, run the op list once,
check every answer, print one JSON result line.

Usage: python3 bench/worker.py '<json job>'  (run.py builds the job)

The job holds the workload, seed, size, whether to trace, whether to stop
after set-up, the directory for inputs and the monotonic time at which the
parent started this process, so that set-up time covers interpreter
start-up and imports as well.

Times are reported in reference seconds.  A shared machine's speed can
drift by 1.7 times within minutes, so a fixed reference loop that uses only the
standard library is timed after set-up and after every op, outside the op
timers.  Each op's time is scaled by REFERENCE_S over the mean of the two
reference times around it, and set-up time by REFERENCE_S over the first
one.  A change to groupcover moves its own times and not the reference loop,
so it shows in full; a slower or faster machine moves both and cancels.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from groupcover import cli  # noqa: E402
from groupcover import witness  # noqa: E402

# the reference loop's median time on the machine the baseline was taken on
REFERENCE_S = 0.0135
_PERMUTATION = tuple((5 * i + 3) % 61 for i in range(61))


def reference_loop(rounds=20):
    """Seconds taken by a fixed workload shaped like the library's own:
    products of permutations as tuples, dict inserts, sets of frozensets.
    The cyclic garbage collector is off meanwhile, so that the library's live
    objects cannot slow the loop down."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen = {}
    for r in range(rounds):
        p = tuple(range(61))
        for k in range(61):
            p = tuple(_PERMUTATION[x] for x in p)
            seen[r, p] = k
        {frozenset(key[1][:8]) for key in seen}
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def run_op(argv):
    """(exit code or error text, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = f"exit {exc.code}: {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # any traceback counts as a failed op
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc != 0 and not isinstance(rc, str):
        rc = f"exit {rc}: {err.getvalue().strip()[-200:]}"
    return rc, out.getvalue(), elapsed


def run_pass(job: dict) -> dict:
    work = workloads.build(job["workload"], job["seed"], small=job["small"])
    if job["digests"] is not None and len(job["digests"]) != len(work.ops):
        raise SystemExit(f"digests.json has {len(job['digests'])} digests for"
                         f" {len(work.ops)} ops; re-record them with --record-digests")
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in work.files.items():
            (workdir / name).write_text(text)
        argvs = [[a.replace("{dir}", str(workdir)) for a in op.argv] for op in work.ops]

        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        warm_start = time.perf_counter()
        for bound in work.bounds:
            witness.witness_targets(bound)
        warm_s = time.perf_counter() - warm_start
        setup_s = time.monotonic() - job["started"]
        reference = [reference_loop()]
        setup_s *= REFERENCE_S / reference[0]
        if job["setup_only"]:
            return {"setup_s": setup_s}

        # each op is checked and its digest taken as soon as it ends, outside
        # its timer, so only one op's output is alive at a time
        op_s, digests, failures = [], [], []
        out_bytes = 0
        for i, (op, argv) in enumerate(zip(work.ops, argvs)):
            rc, stdout, elapsed = run_op(argv)
            reference.append(reference_loop())
            op_s.append(elapsed * 2 * REFERENCE_S / (reference[-2] + reference[-1]))
            out_bytes += len(stdout.encode())
            digests.append(hashlib.sha256(stdout.encode()).hexdigest())
            why = rc if rc != 0 else checks.check(op.check, stdout)
            if why is None and job["digests"] is not None and digests[i] != job["digests"][i]:
                why = "output differs from the recorded digest"
            if why is not None:
                failures.append({"op": " ".join(op.argv), "why": why})
        if tracer is not None:
            tracer.uninstall()

        speed = REFERENCE_S / statistics.median(reference)
        result = {
            "setup_s": setup_s,
            "speed": speed,
            "op_s": op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failures": failures,
            "digests": digests,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics(warm_s * speed + sum(op_s), out_bytes, speed)
            tracer.write(workdir.parent / f"spans-{job['workload']}-{job['seed']}.json")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
