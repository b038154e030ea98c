"""Tests of the benchmark itself: op generation, failure accounting,
percentiles and tracing."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.checks import classify
from perfbench.tracing import self_times
from perfbench.workloads import GOLDEN_ARGV, WORKLOADS, Op, make_pass, make_run, passes

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = (ROOT / "tests" / "golden" / "table_e2_m32.csv").read_bytes()
GOLDEN_OP = Op("table", GOLDEN_ARGV, rows=32)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    for index in range(3):
        assert make_pass(workload, 7, index) == make_pass(workload, 7, index)
    assert make_pass(workload, 7, 0) != make_pass(workload, 8, 0)
    assert make_pass(workload, 7, 0) != make_pass(workload, 7, 1)
    assert make_run(workload, 7, 40) == make_run(workload, 7, 40)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_length_depends_on_seconds_only(workload):
    # The op count, and so `attempted`, never depends on how fast ops run.
    sizes = {len(make_run(workload, seed, 40)) for seed in range(10)}
    assert sizes == {passes(workload, 40) * len(make_pass(workload, 0, 0))}
    assert passes(workload, 1) == 1
    assert passes(workload, 60) >= passes(workload, 40)


def test_every_workload_runs_every_subcommand():
    for workload in WORKLOADS:
        kinds = {op.kind for op in make_pass(workload, 1, 0)}
        assert kinds == {"query", "derive", "table", "verify"}, workload
        assert any(op.golden for op in make_pass(workload, 1, 0)), workload


def test_deep_derives_have_a_fixed_share():
    # Stratified draws: 2 of the 10 derives in every cli-interactive pass
    # sit at m >= 1023, whatever the seed.
    for seed in range(20):
        ms = [int(op.argv[2]) for op in make_pass("cli-interactive", seed, 0)
              if op.kind == "derive"]
        assert len(ms) == 10
        assert sum(m >= 1023 for m in ms) == 2
        assert all(m % 2 == 1 and 3 <= m <= 4095 for m in ms)


def test_table_sweep_has_golden_and_4096():
    argvs = [op.argv for op in make_pass("table-sweep", 3, 0)]
    assert GOLDEN_ARGV in argvs
    assert any("4096" in argv for argv in argvs if argv[0] == "table")


def test_golden_output_passes():
    assert classify(GOLDEN_OP, 0, GOLDEN, b"", GOLDEN) == (None, False)


def test_changed_golden_byte_is_a_wrong_answer():
    corrupted = bytearray(GOLDEN)
    corrupted[-3] ^= 1
    reason, wrong = classify(GOLDEN_OP, 0, bytes(corrupted), b"", GOLDEN)
    assert reason is not None and wrong


def test_injected_traceback_is_a_failure():
    stderr = b'Traceback (most recent call last):\n  File "x", line 1\nRecursionError\n'
    reason, wrong = classify(GOLDEN_OP, 0, GOLDEN, stderr, GOLDEN)
    assert reason is not None and "traceback" in reason and not wrong


def test_usage_error_and_signal_are_crashes():
    for exit_code in (1, -9):
        reason, wrong = classify(GOLDEN_OP, exit_code, GOLDEN, b"", GOLDEN)
        assert reason is not None and not wrong


@pytest.mark.parametrize("exit_code,argv,text", [
    (0, ("table", "--e", "2", "--max-m", "2", "--format", "csv"),
     "m,dim,e,lower,lower_rule,upper,upper_rule,upper_category,gap,eff,exact\n"
     "1,3,2,5,low-dim,5,low-dim,smooth,0,1,true\n"
     "2,5,2,9,power-of-two-floor,9,hhmp,smooth,1,1,true\n"),   # gap wrong
    (0, ("query", "--m", "8", "--e", "3"),
     "L^17(8)  (m=8, e=3, odd factor 1, manifold dimension 17)\n"
     "  lower: emb >= 34  via x\n  upper: emb <= 33 (smooth)  via y\n"
     "  gap: 1\n"),                                             # lower > upper
    # What the CLI prints when report() finds lower > upper: nothing on
    # stdout, exit 3.
    (3, ("query", "--m", "8", "--e", "3"), ""),
    # A derivation whose side conditions fail to replay: exit 2.
    (2, ("derive", "--m", "7", "--e", "2", "--format", "human"),
     "best inductive upper bound for (m=7, e=2): R^26 (smooth)\n"),
    (2, ("verify", "lifting"), "davis-mahowald-gate: 4095 cases FAIL\nFAIL: 0/1\n"),
])
def test_wrong_output_is_caught(exit_code, argv, text):
    op = Op(argv[0], argv, rows=2 if argv[0] == "table" else 0)
    reason, wrong = classify(op, exit_code, text.encode(), b"", GOLDEN)
    assert reason is not None and wrong


def test_wrong_exit_with_good_output_is_a_wrong_answer():
    reason, wrong = classify(GOLDEN_OP, 3, GOLDEN, b"", GOLDEN)
    assert reason is not None and "internal inconsistency" in reason and wrong


def _record(kind, wall, failure=None):
    return {"kind": kind, "argv": [kind], "wall_s": wall, "failure": failure,
            "rows": 0, "rss_kb": 1024, "wrong_answer": False}


def test_failed_ops_are_infinite_latency():
    records = [_record("derive", 0.1 * i) for i in range(1, 8)]
    records += [_record("derive", 0.01, "traceback") for _ in range(3)]
    lat = run.latencies(records, "derive")
    assert sorted(lat)[-3:] == [math.inf] * 3
    assert run.percentile(lat, 0.7) == pytest.approx(0.7)
    assert run.percentile(lat, 0.8) == math.inf
    assert run.printable(run.percentile(lat, 0.8)) == run.OP_TIMEOUT_S


def test_fixing_a_crash_never_raises_a_percentile():
    before = [_record("query", 0.2 + 0.01 * i) for i in range(20)]
    before[5]["failure"] = "exit 1, documented 0"
    after = [dict(r, failure=None, wall_s=5.0) if r["failure"] else r
             for r in before]
    for p in (0.5, 0.75, 0.9, 0.95, 1.0):
        assert run.percentile(run.latencies(after, "query"), p) <= \
            run.percentile(run.latencies(before, "query"), p)


def test_result_counts_failures():
    records = [_record("query", 0.3), _record("query", 0.3, "traceback"),
               dict(_record("table", 0.3, "golden table differs"),
                    wrong_answer=True)]
    result = run.emit({"setup_s": (0.3, "s")}, records)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
    assert result["metrics"] == {"setup_s": {"value": 0.3, "unit": "s"}}


def test_table_rate_takes_each_commands_median_time():
    golden = [dict(_record("table", t), argv=list(GOLDEN_ARGV), rows=32)
              for t in (0.2, 0.2, 5.0)]
    big = dict(_record("table", 2.0), argv=["table", "--max-m", "64"], rows=64)
    setup = [{"wall_s": 0.2}]
    metrics, samples = run.end_to_end("verify-all", golden + [big], setup, "wall_s")
    assert metrics["table_rows_per_s"][0] == pytest.approx((32 + 64) / (0.2 + 2.0))
    assert samples["table"] == {"n": 4, "commands": 2, "rows": 96}
    # A command that fails in most of its runs has infinite time: rate 0.
    failed = [dict(_record("table", 0.2, "traceback"), argv=list(GOLDEN_ARGV))] * 2
    metrics, _ = run.end_to_end("verify-all", golden[:1] + failed + [big], setup, "wall_s")
    assert metrics["table_rows_per_s"][0] == 0.0


def test_reference_seconds_scale_every_time_and_nothing_else():
    records = [_record("query", 0.2), _record("derive", 0.3),
               dict(_record("table", 0.5), rows=10), _record("verify", 1.0)]
    setup = [{"wall_s": 0.25}]
    for r in records + setup:
        r["ref_s"] = 2 * r["wall_s"]
    plain, _ = run.end_to_end("verify-all", records, setup, "wall_s")
    scaled, _ = run.end_to_end("verify-all", records, setup)
    for name, (value, unit) in plain.items():
        if unit == "s":
            assert scaled[name][0] == pytest.approx(2 * value), name
    assert scaled["table_rows_per_s"][0] == pytest.approx(plain["table_rows_per_s"][0] / 2)
    assert scaled["ok_rate"] == plain["ok_rate"]
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"]


def test_every_timed_run_lies_between_two_reference_times():
    ref = run.Reference()
    ref.sample = lambda deadline: ref.times.append(0.1 * (len(ref.times) + 1))
    indexes = [ref.before_run(0.0) for _ in range(5)]
    ref.sample(0.0)
    assert indexes == [i // run.REF_EVERY_OPS for i in range(5)]
    for i in indexes:
        lo, hi = ref.times[i], ref.times[i + 1]
        assert ref.scale(i) == pytest.approx(run.REF_NOMINAL_S / ((lo + hi) / 2))


def test_only_the_start_up_share_of_an_op_is_scaled():
    ref = run.Reference()
    ref.times = [0.1, 0.3]  # mean 0.2
    factor = run.REF_NOMINAL_S / 0.2
    setup = [{"wall_s": w, "ref_index": 0} for w in (0.2, 0.2, 0.4)]
    ops = [{"wall_s": w, "ref_index": 0} for w in (0.1, 0.25, 10.0)]
    run.to_reference_seconds(setup, ops, ref)
    assert [r["ref_s"] for r in setup] == pytest.approx([0.2 * factor, 0.2 * factor,
                                                         0.4 * factor])
    assert [r["ref_s"] for r in ops] == pytest.approx(
        [0.1 * factor, 0.05 + 0.2 * factor, 9.8 + 0.2 * factor])


def test_self_time_subtracts_children():
    spans = [
        {"op": 0, "id": 0, "name": "process.query", "parent": None, "busy": 1.0},
        {"op": 0, "id": 1, "name": "cli.main", "parent": 0, "busy": 0.6},
        {"op": 0, "id": 2, "name": "catalog.report", "parent": 1, "busy": 0.4},
        {"op": 0, "id": 3, "name": "inductive.derive_rounds", "parent": 2, "busy": 0.3},
        {"op": 1, "id": 0, "name": "process.query", "parent": None, "busy": 0.5},
    ]
    selfs = self_times(spans)
    assert selfs["process"] == pytest.approx(0.4 + 0.5)
    assert selfs["cli"] == pytest.approx(0.2)
    assert selfs["catalog"] == pytest.approx(0.1)
    assert selfs["inductive"] == pytest.approx(0.3)


def _cli(module, *argv, trace_file=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if trace_file is not None:
        env["PERFBENCH_TRACE_FILE"] = str(trace_file)
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("m", ["1023", "1025"])
def test_traced_run_matches_untraced(tmp_path, m):
    argv = ("derive", "--m", m, "--e", "3", "--format", "jsonl")
    plain = _cli("lensbounds.cli", *argv)
    traced = _cli("perfbench.tracing", *argv, trace_file=tmp_path / "t.json")
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    assert (b"Traceback" in traced.stderr) == (b"Traceback" in plain.stderr)
    assert (tmp_path / "t.json").exists()


def test_spawn_kills_at_the_deadline():
    start = run.time.perf_counter()
    res = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                    dict(os.environ), deadline=start + 1.0)
    assert res["exit"] != 0
    assert res["wall"] < 30
