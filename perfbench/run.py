#!/usr/bin/env python3
"""End-to-end benchmark of the lensbounds CLI.

    python3 perfbench/run.py --workload cli-interactive --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout.  Every op is one fresh
`python -m lensbounds.cli ...` process with `src` on PYTHONPATH, run one at
a time by a single closed-loop client.  A run is a fixed number of passes
of the workload's seeded op list, set from --seconds alone
(workloads.passes), so the same seed and --seconds always run the same ops
and a faster program ends sooner.  Every op's output is checked
(perfbench/checks.py).

A host that shares its CPUs starts processes faster or slower from one
second to the next.  Between every REF_EVERY_OPS timed runs the benchmark
times a reference command that no commit of this repository can change (a
fresh interpreter importing numpy), and reports each timed run's start-up
share scaled by REF_NOMINAL_S over the mean of the two reference times
around it (`to_reference_seconds`).  The unscaled metrics and every
reference time are printed or kept in the full record.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pass
twice per op, untraced and then under perfbench/tracing.py, and prints the
per-layer metrics, the tracing overhead and the sweep-kernel timings.  The
last line of stdout is the JSON result; the full record (machine, every op
with its stdout digest, and for --trace 1 the spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import classify, digest  # noqa: E402
from perfbench.tracing import self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, make_pass, make_run, passes  # noqa: E402

SRC = ROOT / "src"
CLI = SRC / "lensbounds" / "cli.py"
GOLDEN = ROOT / "tests" / "golden" / "table_e2_m32.csv"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 9
# Start-up reference: a fresh interpreter importing numpy, code that no
# commit of this repository changes and most of a query's start-up.
REF_ARGV = [sys.executable, "-c", "import numpy"]
REF_NOMINAL_S = 0.17  # about its wall time on the 2-CPU tuning machine
REF_EVERY_OPS = 2
# A failed op counts as +inf latency; a percentile that lands on one is
# printed as the op time-out, the most any op can take.
OP_TIMEOUT_S = 100.0
# No op runs past this many seconds after the start, whatever --seconds
# says, so that a run always ends within three minutes.
RUN_LIMIT_S = 160.0
SWEEPS = (
    ("kummer_legendre", "sweep_kummer_legendre", (1024,)),
    ("alpha_identity", "sweep_alpha_identity", (1 << 20,)),
    ("alpha_symbolic", "sweep_alpha_symbolic", (40, 1 << 16)),
    ("nu_binom_symbolic", "sweep_nu_binom_symbolic", (40, 4096)),
)
VERIFY_SCOPES = ("dyadic", "cohomology", "lifting", "rounds", "bounds")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, deadline: float) -> dict:
    """Run argv to completion, killing it at the time-out or the deadline;
    wall time, exit code (-9 when killed) and output."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                              cwd=ROOT, env=env,
                              timeout=min(OP_TIMEOUT_S, max(0.0, deadline - start)))
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        exit_code, stdout, stderr = -signal.SIGKILL, exc.stdout or b"", exc.stderr or b""
    end = time.perf_counter()
    return {"exit": exit_code, "wall": end - start, "start": start, "end": end,
            "stdout": stdout, "stderr": stderr}


def run_op(op: Op, index: int, golden: bytes, traced: bool,
           deadline: float) -> dict:
    env = child_env()
    if traced:
        env["PERFBENCH_TRACE_FILE"] = str(OUT / f"trace-{index}.json")
        argv = [sys.executable, "-m", "perfbench.tracing", *op.argv]
    else:
        argv = [sys.executable, "-m", "lensbounds.cli", *op.argv]
    res = spawn(argv, env, deadline)
    failure, wrong = classify(op, res["exit"], res["stdout"], res["stderr"],
                              golden)
    if failure is not None:
        print(f"  op {index}{' traced' if traced else ''} FAILED ({failure}): "
              f"lensbounds {' '.join(op.argv)}")
    record = {"index": index, "kind": op.kind, "argv": list(op.argv),
              "exit": res["exit"], "wall_s": res["wall"],
              "stdout_bytes": len(res["stdout"]),
              "digest": digest(res["stdout"]), "failure": failure,
              "wrong_answer": wrong, "traced": traced,
              "rows": op.rows if failure is None else 0,
              "start": res["start"], "end": res["end"]}
    if traced:
        trace_file = Path(env["PERFBENCH_TRACE_FILE"])
        if trace_file.exists():
            record["trace"] = json.loads(trace_file.read_text())
            trace_file.unlink()
    return record


class Reference:
    """Wall times of REF_ARGV: one before every REF_EVERY_OPS timed runs and
    one after the last (`sample`), so that every timed run lies between two."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.runs = 0

    def sample(self, deadline: float) -> None:
        res = spawn(REF_ARGV, dict(os.environ), deadline)
        if res["exit"] != 0:
            sys.stderr.write(res["stderr"].decode(errors="replace"))
            raise SystemExit("perfbench: the reference command failed")
        self.times.append(res["wall"])

    def before_run(self, deadline: float) -> int:
        """Index of the reference time just before the next timed run."""
        if self.runs % REF_EVERY_OPS == 0:
            self.sample(deadline)
        self.runs += 1
        return len(self.times) - 1

    def scale(self, index: int) -> float:
        """Factor to reference seconds for a run after reference `index`."""
        return 2 * REF_NOMINAL_S / (self.times[index] + self.times[index + 1])


def measure_setup(reps: int, deadline: float,
                  ref: Reference | None = None) -> list[dict]:
    """Wall times (and reference indexes) of `reps` fresh interpreters
    importing the CLI, after one untimed import that compiles the bytecode."""
    argv = [sys.executable, "-c", "import lensbounds.cli"]
    times = []
    for i in range(reps + 1):
        ref_index = ref.before_run(deadline) if ref is not None and i else None
        res = spawn(argv, child_env(), deadline)
        if res["exit"] != 0:
            sys.stderr.write(res["stderr"].decode(errors="replace"))
            raise SystemExit("perfbench: importing lensbounds.cli failed")
        times.append({"wall_s": res["wall"], "ref_index": ref_index,
                      "start": res["start"], "end": res["end"]})
    return times[1:]


def machine(seed: int) -> dict:
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "numba_imports": numba_imports,
            "platform": platform.platform(), "seed": seed}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with a share p of the
    values at or below it; +inf when there are none."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)] if ordered else math.inf


def printable(x: float) -> float:
    return x if math.isfinite(x) else OP_TIMEOUT_S


def latencies(records: list[dict], kind: str, key: str = "wall_s") -> list[float]:
    return [math.inf if r["failure"] else r[key]
            for r in records if r["kind"] == kind]


def end_to_end(workload: str, records: list[dict], setup: list[dict],
               key: str = "ref_s") -> tuple[dict, dict]:
    """The end-to-end metrics from each timed run's time under `key`:
    "ref_s" for reference seconds, "wall_s" for unscaled wall time."""
    tails = WORKLOADS[workload].tails
    metrics = {"setup_s": (statistics.median(r[key] for r in setup), "s")}
    samples = {}
    for kind in ("query", "derive"):
        lat = latencies(records, kind, key)
        metrics[f"{kind}_p50_s"] = (printable(percentile(lat, 0.5)), "s")
        metrics[f"{kind}_tail_s"] = (printable(percentile(lat, tails[kind])), "s")
        samples[kind] = {"n": len(lat), "tail_percentile": tails[kind],
                         "failed": sum(math.isinf(x) for x in lat)}
    # Rows of each distinct table command over its median time, so that one
    # slow start among the repeats of a short command does not move the rate.
    tables = [r for r in records if r["kind"] == "table"]
    commands: dict = {}
    for r in tables:
        commands.setdefault(tuple(r["argv"]), []).append(r)
    rows = sum(max(r["rows"] for r in runs) for runs in commands.values())
    table_s = sum(statistics.median(math.inf if r["failure"] else r[key] for r in runs)
                  for runs in commands.values())
    metrics["table_rows_per_s"] = (rows / table_s if tables else 0.0, "rows/s")
    verify = latencies(records, "verify", key)
    metrics["verify_s"] = (printable(percentile(verify, 0.5)), "s")
    # Largest max-RSS of any child so far: the set-up imports and the ops.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    failed = sum(r["failure"] is not None for r in records)
    metrics["ok_rate"] = (1 - failed / len(records), "ratio")
    samples.update({"table": {"n": len(tables), "commands": len(commands),
                              "rows": rows},
                    "verify": {"n": len(verify)}})
    return metrics, samples


def sweep_kernels() -> tuple[dict, str]:
    """The four sweep kernels at the sizes benchmarks/bench_sweeps.py uses:
    one warm-up, then the best of three."""
    sys.path.insert(0, str(SRC))
    from lensbounds import sweeps
    backend = getattr(sweeps, "active_backend", lambda: "numpy")()
    metrics = {}
    for name, fn_name, args in SWEEPS:
        fn = getattr(sweeps, fn_name)
        outcome = fn(*args)
        if not outcome.ok:
            raise SystemExit(f"perfbench: sweep {name} failed: {outcome}")
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
        metrics[f"sweeps.{name}_s"] = (best, "s")
        metrics[f"sweeps.{name}_cases_per_s"] = (outcome.cases / best, "cases/s")
    return metrics, backend


def merge_spans(traced: list[dict], t0: float) -> list[dict]:
    """One root span per op process, then the spans the child recorded,
    all on the benchmark's clock (both read CLOCK_MONOTONIC)."""
    spans = []
    for r in traced:
        spans.append({"op": r["index"], "id": 0, "name": f"process.{r['kind']}",
                      "parent": None, "start": r["start"] - t0,
                      "end": r["end"] - t0, "calls": 1, "busy": r["wall_s"]})
        for s in r.get("trace", {}).get("spans", []):
            spans.append({**s, "op": r["index"], "start": s["start"] - t0,
                          "end": s["end"] - t0})
    return spans


def per_layer(traced: list[dict], untraced: list[dict], spans: list[dict],
              sweep_metrics: dict) -> dict:
    counts: dict = {}
    for r in traced:
        for key, value in r.get("trace", {}).get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value

    def count(key: str) -> int:
        return counts.get(key, 0)

    def busy(*names: str) -> float:
        return sum(s["busy"] for s in spans if s["name"] in names)

    def top_calls(name: str) -> int:
        return sum(s["calls"] for s in spans if s["name"] == name)

    imports = [s["busy"] for s in spans if s["name"] == "cli.import"]
    numpy_loaded = max((r.get("trace", {}).get("counts", {})
                        .get("cli.numpy_loaded", 0) for r in traced), default=0)
    visited, unique = count("records.replay.calls"), count("records.nodes_unique")
    derive_bytes = sum(r["stdout_bytes"] for r in traced if r["kind"] == "derive")
    selfs = self_times(spans)
    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    outcome = [(a["failure"] is None, b["failure"] is None)
               for a, b in zip(untraced, traced)]
    m = {
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
        "cli.numpy_loaded": (numpy_loaded, "bool"),
        "cli.render_busy_s": (busy("cli.render_csv", "cli.render_jsonl",
                                   "cli.render_markdown", "cli.render_human"), "s"),
        "catalog.report_calls": (count("catalog.report.calls"), "count"),
        "catalog.report_busy_s": (busy("catalog.report"), "s"),
        "catalog.euler_scan_busy_s": (busy("catalog.euler_class_lower_bounds",
                                           "catalog.conjectural_lower_bounds"), "s"),
        "catalog.spin_upper_busy_s": (busy("catalog.spin_upper"), "s"),
        "inductive.derive_rounds_calls": (count("inductive.derive_rounds.calls"), "count"),
        "inductive.cache_hits": (count("inductive.cache_hits"), "count"),
        "inductive.cache_misses": (count("inductive.cache_misses"), "count"),
        "inductive.build_busy_s": (busy("inductive.derive_rounds"), "s"),
        "inductive.bounds_built": (count("inductive.bounds_built"), "count"),
        "records.replay_calls": (top_calls("records.replay"), "count"),
        "records.replay_busy_s": (busy("records.replay"), "s"),
        "records.nodes_visited": (visited, "count"),
        "records.nodes_unique": (unique, "count"),
        "records.replay_useful_ratio": (unique / visited if visited else 0.0, "ratio"),
        "records.serialize_busy_s": (busy("records.to_lines", "records.to_dict"), "s"),
        "records.output_bytes": (derive_bytes, "bytes"),
        "lifting.gate_calls": (count("lifting.embedding_gate.calls")
                               + count("lifting.davis_mahowald_check.calls"), "count"),
        "lifting.gate_busy_s": (busy("lifting.embedding_gate",
                                     "lifting.davis_mahowald_check"), "s"),
        "cohomology.is_spin_calls": (count("cohomology.is_spin.calls"), "count"),
        "cohomology.is_spin_busy_s": (busy("cohomology.is_spin"), "s"),
        "cohomology.steenrod_square_calls": (count("cohomology.steenrod_square.calls"), "count"),
        "cohomology.multiply_calls": (count("cohomology.multiply.calls"), "count"),
    }
    m.update(sweep_metrics)
    for scope in VERIFY_SCOPES:
        m[f"verify.{scope}_s"] = (busy(f"verify.{scope}"), "s")
        m[f"verify.{scope}_cases"] = (count(f"verify.{scope}_cases"), "count")
    for layer in ("process", "cli", "catalog", "inductive", "records",
                  "lifting", "cohomology", "sweeps", "verify"):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall
                                 if untraced_wall else 0.0, "ratio")
    m["trace.outcome_mismatches"] = (sum(a != b for a, b in outcome), "count")
    return m


def to_reference_seconds(setup: list[dict], records: list[dict],
                         ref: Reference) -> None:
    """Set each timed run's "ref_s".  A set-up import is start-up alone and
    scales with the reference times around it; so does an op's first
    `startup` seconds (the run's median set-up time), and the rest of the op
    counts as measured.  A reference taken seconds away says little about
    the host's speed during a long op, so the long ops (verify all, the
    large tables) keep their wall time."""
    startup = statistics.median(r["wall_s"] for r in setup)
    for r in setup:
        r["ref_s"] = r["wall_s"] * ref.scale(r["ref_index"])
    for r in records:
        head = min(r["wall_s"], startup)
        r["ref_s"] = r["wall_s"] - head + head * ref.scale(r["ref_index"])


def run_ops(workload: str, seed: int, seconds: float, golden: bytes,
            deadline: float, ref: Reference) -> list[dict]:
    records: list[dict] = []
    for op in make_run(workload, seed, seconds):
        if time.perf_counter() >= deadline:
            break
        ref_index = ref.before_run(deadline)
        records.append({**run_op(op, len(records), golden, False, deadline),
                        "ref_index": ref_index})
    return records


def run_traced(workload: str, seed: int, golden: bytes,
               deadline: float) -> tuple[list[dict], list[dict]]:
    untraced, traced = [], []
    for op in make_pass(workload, seed, 0):
        if time.perf_counter() >= deadline:
            break
        index = len(untraced)
        untraced.append(run_op(op, index, golden, False, deadline))
        traced.append(run_op(op, index, golden, True, deadline))
    return untraced, traced


def emit(metrics: dict, records: list[dict]) -> dict:
    return {"correct": not any(r["wrong_answer"] for r in records),
            "attempted": len(records),
            "failed": sum(r["failure"] is not None for r in records),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    for needed in (CLI, GOLDEN):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from "
                  "the root of a lensbounds source checkout", file=sys.stderr)
            return 2
    golden = GOLDEN.read_bytes()
    OUT.mkdir(parents=True, exist_ok=True)
    info = machine(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(info)}")

    t0 = time.perf_counter()
    if args.trace:
        measure_setup(0, deadline)  # compile bytecode before the first op
        untraced, traced = run_traced(args.workload, args.seed, golden, deadline)
        spans = merge_spans(traced, t0)
        sweep_metrics, info["sweeps_backend"] = sweep_kernels()
        metrics = per_layer(traced, untraced, spans, sweep_metrics)
        records = untraced + traced
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        detail = {"passes": 1, "sweeps_backend": info["sweeps_backend"]}
    else:
        ref = Reference()
        setup = measure_setup(SETUP_REPS, deadline, ref)
        records = run_ops(args.workload, args.seed, args.seconds, golden,
                          deadline, ref)
        # The reference after the last run; a few seconds of grace, so that
        # a run cut at the deadline still reports.
        ref.sample(deadline + 5.0)
        to_reference_seconds(setup, records, ref)
        metrics, samples = end_to_end(args.workload, records, setup)
        unscaled, _ = end_to_end(args.workload, records, setup, "wall_s")
        n_passes = passes(args.workload, args.seconds)
        detail = {"passes": n_passes, "samples": samples, "setup": setup,
                  "reference_times": ref.times,
                  "unscaled": {k: v for k, (v, _) in unscaled.items()}}
        print(f"reference: median {statistics.median(ref.times):.4f} s of "
              f"{len(ref.times)}; unscaled "
              + json.dumps({k: round(v, 6) for k, (v, _) in unscaled.items()}))
        failed = sum(r["failure"] is not None for r in records)
        print(f"passes={n_passes} ops={len(records)} failed={failed} "
              f"error_rate={failed / len(records):.4f} (base {len(records)} ops) "
              f"samples={json.dumps(samples)}")

    result = emit(metrics, records)
    for r in records:
        r.pop("trace", None)
    run_digest = digest("".join(r["digest"] for r in records).encode())
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": info, "run_digest": run_digest,
                   "wall_s": time.perf_counter() - t0, **detail,
                   "result": result, "ops": records}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:>16.6g} {unit}")
    print(f"stdout digest {run_digest}; full record in "
          f"{(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
