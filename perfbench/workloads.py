"""Seeded op lists for the three workloads.

An op is one `lensbounds` command line, run as its own process.  A run is
a fixed number of passes, set by --seconds alone (`passes`); pass i is
drawn from a random.Random seeded with (workload, seed, i).  The same seed
and --seconds therefore always yield the same ops, however fast the machine
is, and the program sees nothing but the generated argv lists.

Every workload runs all four subcommands so that every end-to-end metric
exists on every workload, but each is dominated by the subcommand it was
chosen for.  The minor ones ("probes") are small, fixed-cost commands: the
golden table, a cheap verify scope, and query/derive at m <= 255.

Continuous parameters are drawn by stratified sampling: n draws of a
log-uniform m use one draw from each of n equal slices of [0, 1), then the
ops are shuffled.  Every pass therefore covers the whole range in the same
proportions (two derives in ten at m >= 1023, one query per doubling of
m + 1), and percentiles move less between seeds.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

GOLDEN_ARGV = ("table", "--e", "2", "--max-m", "32", "--format", "csv")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv after the program name, the exit code the
    CLI documents for this input, and the rows a table must emit."""

    kind: str
    argv: tuple[str, ...]
    expect_exit: int = 0
    rows: int = 0

    @property
    def golden(self) -> bool:
        return self.argv == GOLDEN_ARGV


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[random.Random], list[Op]]
    # The share of --seconds one pass stands for: a run of --seconds S makes
    # S // pass_seconds passes, at least one (3, 2 and 1 at S = 36, which
    # take 25 to 40 s in all on the 2-CPU machine it was tuned on).
    pass_seconds: float
    # Fixed tail percentile per subcommand, chosen for the sample counts at
    # the default run length (see README.md).  Subcommands run as probes
    # have too few samples for a percentile above the median with ten
    # samples beyond it; their tail is read at the median.
    tails: dict


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one from each slice [i/n, (i+1)/n)."""
    return [(i + rng.random()) / n for i in range(n)]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) to an integer in [lo, hi] whose successor is
    log-uniform in [lo + 1, hi + 2)."""
    span = math.log(hi + 2) - math.log(lo + 1)
    return min(hi, int(math.exp(math.log(lo + 1) + u * span)) - 1)


def query_op(rng: random.Random, u: float, max_m: int) -> Op:
    m = _log_uniform(u, 0, max_m)
    argv = ["query", "--m", str(m), "--e", str(rng.randint(1, 10)),
            "--k", str(rng.choice((1, 3, 5)))]
    for flag in ("--all", "--external", "--conjectural"):
        if rng.random() < 0.5:
            argv.append(flag)
    return Op("query", tuple(argv))


def derive_op(rng: random.Random, u: float, max_m: int) -> Op:
    m = _log_uniform(u, 3, max_m) | 1
    argv = ("derive", "--m", str(min(m, max_m)), "--e", str(rng.randint(1, 8)),
            "--format", rng.choice(("human", "jsonl")))
    return Op("derive", argv)


def table_op(e: int, max_m: int, fmt: str, *flags: str) -> Op:
    return Op("table", ("table", "--e", str(e), "--max-m", str(max_m),
                        "--format", fmt) + flags, rows=max_m)


def verify_op(scope: str) -> Op:
    return Op("verify", ("verify", scope))


def _probes(rng: random.Random, queries: int, derives: int) -> list[Op]:
    return ([query_op(rng, u, 255) for u in _strata(rng, queries)]
            + [derive_op(rng, u, 255) for u in _strata(rng, derives)])


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    rng.shuffle(ops)
    return ops


def cli_interactive_pass(rng: random.Random) -> list[Op]:
    # 13 strata: one query per doubling of m + 1 in [1, 8192], so one per
    # rounds cap (256 and below, 512, ..., 8192) in the top five.
    ops = [query_op(rng, u, 8191) for u in _strata(rng, 13)]
    ops += [derive_op(rng, u, 4095) for u in _strata(rng, 10)]
    ops += [table_op(2, 32, "csv")] * 2 + [verify_op("lifting")] * 3
    return _shuffled(rng, ops)


TABLES = (
    table_op(2, 32, "csv"),
    table_op(3, 4096, "csv"),
    table_op(1, 256, "human"),
    table_op(4, 1024, "jsonl"),
    table_op(2, 512, "md", "--k", "3"),
    table_op(5, 1024, "csv", "--conjectural", "--external"),
    table_op(1, 2048, "jsonl", "--external"),
    table_op(8, 256, "md", "--conjectural"),
)


def table_sweep_pass(rng: random.Random) -> list[Op]:
    return _shuffled(rng, list(TABLES) + _probes(rng, 8, 8)
                     + [verify_op("lifting")] * 4)


def verify_all_pass(rng: random.Random) -> list[Op]:
    return _shuffled(rng, [verify_op("all")] + [table_op(2, 32, "csv")] * 6
                     + _probes(rng, 12, 12))


WORKLOADS = {w.name: w for w in (
    Workload("cli-interactive", cli_interactive_pass, 10.0,
             {"query": 0.74, "derive": 0.6}),
    Workload("table-sweep", table_sweep_pass, 15.0, {"query": 0.5, "derive": 0.5}),
    Workload("verify-all", verify_all_pass, 30.0, {"query": 0.5, "derive": 0.5}),
)}


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """Pass `index` of `workload` under `seed`; deterministic."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return WORKLOADS[workload].make_pass(rng)


def passes(workload: str, seconds: float) -> int:
    """Passes in a run of `seconds`: a function of the arguments only."""
    return max(1, int(seconds // WORKLOADS[workload].pass_seconds))


def make_run(workload: str, seed: int, seconds: float) -> list[Op]:
    """Every op of a run, pass after pass; deterministic."""
    return [op for index in range(passes(workload, seconds))
            for op in make_pass(workload, seed, index)]
