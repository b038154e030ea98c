"""Output checks: decide whether one CLI run failed, and why.

A run fails when its exit code is not the one the CLI documents for the
input, when stderr carries a Python traceback, or when stdout fails the
check for its subcommand.  A wrong answer is a failed check, or an exit
with one of the codes the CLI uses to report a wrong result: 2 (a
verification failed) or 3 (the engine found its own bounds inconsistent).
A traceback, a usage error (exit 1) or a signal is a crash.  The checks
are written against the documented output formats, independently of the
program's own parsers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

from .workloads import Op

TRACEBACK = b"Traceback (most recent call last)"
# The CLI's exit codes for a result it found wrong (cli.EXIT_VERIFY and
# cli.EXIT_INTERNAL).
WRONG_EXITS = {2: "verification failed", 3: "internal inconsistency"}
COLUMNS = ("m", "dim", "e", "lower", "lower_rule", "upper", "upper_rule",
           "upper_category", "gap", "eff", "exact")
_INT_COLUMNS = ("m", "dim", "e", "lower", "upper", "gap", "eff")

_QUERY_HEAD = re.compile(r"^L\^(\d+)\(\d+\)  \(m=(\d+), e=(\d+), odd factor (\d+), "
                         r"manifold dimension (\d+)\)$")
_QUERY_LOWER = re.compile(r"^  lower: emb >= (\d+)  via ")
_QUERY_UPPER = re.compile(r"^  upper: emb <= (\d+) \((smooth|topological)\)  via ")
_QUERY_EXACT = re.compile(r"^  exact: embedding dimension = (\d+)$")
_QUERY_GAP = re.compile(r"^  gap: (\d+)$")
_DERIVE_TAIL = re.compile(r"^side conditions: \d+ replayed OK$")


def digest(data: bytes) -> str:
    """Stable digest of one run's stdout, for byte-for-byte comparison."""
    return hashlib.sha256(data).hexdigest()[:16]


def _arg(op: Op, flag: str, default: str | None = None) -> str | None:
    argv = list(op.argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def _table_rows(text: str, fmt: str) -> list[dict]:
    lines = text.splitlines()
    if fmt == "jsonl":
        return [json.loads(line) for line in lines]
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
    elif fmt == "md":
        records = [[c.strip() for c in line.strip().strip("|").split("|")]
                   for line in lines]
        del records[1]  # the | --- | separator
    else:
        records = [line.split() for line in lines]
    if tuple(records[0]) != COLUMNS:
        raise ValueError(f"header {records[0]}")
    return [dict(zip(COLUMNS, r, strict=True)) for r in records[1:]]


def check_table(op: Op, text: str) -> str | None:
    rows = _table_rows(text, _arg(op, "--format", "human"))
    if len(rows) != op.rows:
        return f"{len(rows)} rows, expected {op.rows}"
    for i, row in enumerate(rows, start=1):
        v = {c: int(row[c]) for c in _INT_COLUMNS}
        if v["m"] != i or v["dim"] != 2 * i + 1:
            return f"row {i}: m={v['m']} dim={v['dim']}"
        if v["lower"] > v["upper"]:
            return f"row {i}: lower {v['lower']} > upper {v['upper']}"
        if v["gap"] != v["upper"] - v["lower"]:
            return f"row {i}: gap {v['gap']} != upper - lower"
        if v["eff"] != 2 * v["dim"] - v["upper"]:
            return f"row {i}: eff {v['eff']} != 2*dim - upper"
    return None


def check_query(op: Op, text: str) -> str | None:
    lines = text.splitlines()
    head = _QUERY_HEAD.match(lines[0]) if lines else None
    if head is None or len(lines) < 4:
        return "malformed query output"
    if head.group(2) != _arg(op, "--m") or head.group(3) != _arg(op, "--e"):
        return f"query answered for {lines[0]!r}"
    lower, upper = _QUERY_LOWER.match(lines[1]), _QUERY_UPPER.match(lines[2])
    if lower is None or upper is None:
        return "malformed bound lines"
    lo, up = int(lower.group(1)), int(upper.group(1))
    if lo > up:
        return f"lower {lo} > upper {up}"
    exact, gap = _QUERY_EXACT.match(lines[3]), _QUERY_GAP.match(lines[3])
    if exact is not None and not lo == up == int(exact.group(1)):
        return f"exact {exact.group(1)} with bounds {lo}..{up}"
    if gap is not None and int(gap.group(1)) != up - lo:
        return f"gap {gap.group(1)} with bounds {lo}..{up}"
    if exact is None and gap is None:
        return "no exact/gap line"
    return None


def check_derive(op: Op, text: str) -> str | None:
    lines = text.splitlines()
    if not lines or not _DERIVE_TAIL.match(lines[-1]):
        return "no 'side conditions: N replayed OK' line"
    want = f"(m={_arg(op, '--m')}, e={_arg(op, '--e')})"
    first = (json.loads(lines[0])["conclusion"]
             if _arg(op, "--format") == "jsonl" else lines[0])
    if want not in first:
        return f"derivation is not for {want}"
    return None


def check_verify(op: Op, text: str) -> str | None:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("PASS"):
        return "verify did not end in PASS"
    return None


_CHECKS = {"table": check_table, "query": check_query,
           "derive": check_derive, "verify": check_verify}


def classify(op: Op, exit_code: int, stdout: bytes, stderr: bytes,
             golden: bytes) -> tuple[str | None, bool]:
    """(failure reason or None, whether the failure is a wrong answer)."""
    if TRACEBACK in stderr:
        return f"traceback (exit {exit_code})", False
    if exit_code != op.expect_exit and exit_code not in WRONG_EXITS:
        return f"exit {exit_code}, documented {op.expect_exit}", False
    if op.golden and stdout != golden:
        reason = "golden table differs"
    else:
        try:
            reason = _CHECKS[op.kind](op, stdout.decode())
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            reason = f"unparseable output: {exc!r}"
    if exit_code != op.expect_exit:
        reason = (f"exit {exit_code} ({WRONG_EXITS[exit_code]}), "
                  f"documented {op.expect_exit}; {reason or 'output passes its check'}")
    return reason, reason is not None
