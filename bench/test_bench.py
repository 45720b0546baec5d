"""Tests of the benchmark itself: a smoke-size run of every workload, and
planted wrong answers that the answer checks must catch.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    result = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--small")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 3), workloads.build(name, 3)
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert a.files == b.files
        assert [op.argv for op in a.ops] != [op.argv for op in workloads.build(name, 4).ops]


def _output(argv, files=None, tmp_path=None):
    for name, text in (files or {}).items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    rc, stdout, _ = worker.run_op(argv)
    assert rc == 0
    return json.loads(stdout)


def _fails(op_check, payload):
    return checks.check(op_check, json.dumps(payload)) is not None


def test_planted_wrong_finite_verdicts():
    spec = {"kind": "finite", "spec": "prod(A 4, CxC 2 4)", "nfa": 2, "weight": True,
            "verify": True}
    out = _output(["finite", spec["spec"], "--verify", "--weight", "--nfa", "2",
                   "--format", "json"])
    assert checks.check(spec, json.dumps(out)) is None
    for index, key in ((0, "verdict"), (1, "verdict"), (3, "passed")):
        bad = json.loads(json.dumps(out))
        bad["reports"][index][key] = not bad["reports"][index][key]
        assert _fails(spec, bad)
    bad = json.loads(json.dumps(out))
    bad["reports"][2]["weight"] += 1
    assert _fails(spec, bad)


def test_planted_wrong_presentation_answers(tmp_path):
    work = workloads.build("fp-witness", 5, small=True)
    for op in work.ops:
        out = _output(op.argv, work.files, tmp_path)
        assert checks.check(op.check, json.dumps(out)) is None
        bad = json.loads(json.dumps(out))
        if op.check["kind"] == "analyze":
            bad["invariants"]["factors"] = bad["invariants"]["factors"] + [7]
        elif out["witness"] is None:
            if op.check["expect"] != "none":
                continue
            bad["witness"] = {"target": {"name": "C2", "order": 2}, "verified": True}
        else:
            bad["witness"]["target"]["order"] = op.check["bound"] + 1
            if op.check["expect"] == "ab-trivial":
                assert _fails(op.check, dict(out, witness=None)), op.argv
        assert _fails(op.check, bad), op.argv


def test_planted_wrong_scan_status(tmp_path):
    work = workloads.build("fp-scan", 5, small=True)
    op = work.ops[0]
    out = _output(op.argv, work.files, tmp_path)
    assert checks.check(op.check, json.dumps(out)) is None
    bad = json.loads(json.dumps(out))
    bad["words"][0]["status"] = "unwitnessed"  # the empty word dies everywhere
    assert _fails(op.check, bad)


def test_closed_forms():
    assert checks.spec_abelianisation("prod(S 3, prod(Q8, C 6))") == ([2, 2, 2, 6], 288)
    assert checks.generator_rank([2, 2, 2, 6]) == 4
    assert checks.generator_rank([4, 9]) == 1
    assert checks.catalog_count(8) == 17
    assert checks.reduced_word_count(3, 2) == 1 + 6 + 30


def test_tail_keeps_ten_values_above():
    label, value = run.tail_of(list(range(100)))
    assert (label, value) == ("p90", 89)
    assert run.tail_of(list(range(40))) == ("p75", 29)


def test_span_cost_leaves_parent_self_time():
    tracer = tracing.Tracer()
    tracer.span_cost = tracing.measure_span_cost(rounds=500, repeats=3)
    assert 0 < tracer.span_cost < 1e-3
    child = tracer._wrap("witness.evaluate", "evaluate_word", lambda: None)
    tracer.span("witness.scan", lambda: [child() for _ in range(1000)])
    # the parent keeps its loop, not 1000 spans of bookkeeping
    assert tracer.self_s["witness.scan"] < 500 * tracer.span_cost
