import argparse
import ast
import csv
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from lensbounds import (catalog, cli, cohomology, inductive, lifting, proofs,
                        records, verify)
from lensbounds.records import (Bound, Category, DerivationNode, Direction,
                                InconsistentBoundsError, LensSpace,
                                SideCondition, unique_nodes)

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_INT_COLUMNS = {"m", "dim", "e", "lower", "upper", "gap", "eff"}


def parse_csv(text: str) -> list[dict]:
    """The rows of a `table --format csv`, typed as `cli.table_rows` makes
    them."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != cli.COLUMNS:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        row: dict = dict(zip(cli.COLUMNS, record))
        for key in _INT_COLUMNS:
            row[key] = int(row[key])
        row["exact"] = row["exact"] == "true"
        rows.append(row)
    return rows


def parse_jsonl(text: str) -> list[dict]:
    """The rows of a `table --format jsonl`."""
    return [json.loads(line) for line in text.splitlines() if line]


def text(lines: list[str]) -> str:
    """The stdout `cli.main` writes for a command's lines."""
    return "".join(f"{line}\n" for line in lines)


def test_table_csv_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--e", "2", "--max-m", "32",
                           "--format", "csv")
    assert code == 0
    golden = (GOLDEN / "table_e2_m32.csv").read_text()
    assert out == golden


def test_csv_round_trip(capsys):
    _, out, _ = run_cli(capsys, "table", "--e", "3", "--max-m", "20",
                        "--format", "csv")
    assert text(cli.render_csv(parse_csv(out))) == out


def test_jsonl_round_trip(capsys):
    _, out, _ = run_cli(capsys, "table", "--e", "1", "--max-m", "16",
                        "--format", "jsonl")
    rows = parse_jsonl(out)
    assert text(cli.render_jsonl(rows)) == out
    assert all(isinstance(r["exact"], bool) for r in rows)


def test_formats_share_rows(capsys):
    _, csv_out, _ = run_cli(capsys, "table", "--e", "2", "--max-m", "8",
                            "--format", "csv")
    _, jsonl_out, _ = run_cli(capsys, "table", "--e", "2", "--max-m", "8",
                              "--format", "jsonl")
    csv_rows = parse_csv(csv_out)
    assert csv_rows == parse_jsonl(jsonl_out)
    _, md_out, _ = run_cli(capsys, "table", "--e", "2", "--max-m", "8",
                           "--format", "md")
    assert md_out.count("\n") == 8 + 2


def test_query_exact(capsys):
    code, out, _ = run_cli(capsys, "query", "--m", "8", "--e", "3")
    assert code == 0
    assert "exact: embedding dimension = 33" in out
    assert "manifold dimension 17" in out


def test_query_bounds_pair(capsys):
    code, out, _ = run_cli(capsys, "query", "--m", "7", "--e", "3")
    assert code == 0
    assert "emb >= 24" in out and "emb <= 27" in out


def test_query_default_never_flagged(capsys):
    for argv in (("query", "--m", "11", "--e", "1", "--all"),
                 ("query", "--m", "262", "--e", "1", "--all")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "external" not in out and "conjectural" not in out


def test_query_external_flagged(capsys):
    code, out, _ = run_cli(capsys, "query", "--m", "11", "--e", "1",
                           "--external", "--all")
    assert code == 0
    assert "[external]" in out


def test_query_and_derive_agree_on_the_pl_seed(capsys):
    # the e = 1 second round rests on the external PL seed: without
    # --external both take round 1's R^43, with it both take R^39, flagged
    for flags, dim, rule in (((), 43, "round1"),
                             (("--external",), 39, "round2")):
        code, out, _ = run_cli(capsys, "query", "--m", "11", "--e", "1",
                               *flags)
        upper = out.splitlines()[2]
        assert code == 0 and upper.startswith(
            f"  upper: emb <= {dim} (smooth)  via {rule}: "), flags
        assert upper.endswith("  [external]") == bool(flags), flags
        code, out, _ = run_cli(capsys, "derive", "--m", "11", "--e", "1",
                               *flags)
        assert code == 0 and out.splitlines()[0] == (
            f"best inductive upper bound for (m=11, e=1): R^{dim} (smooth)"
            + "  [external]" * bool(flags)), flags


def test_query_odd_torsion(capsys):
    code, out, _ = run_cli(capsys, "query", "--m", "9", "--e", "2",
                           "--k", "3", "--all")
    assert code == 0
    assert "L^19(12)" in out and "[transferred]" in out


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "query", "--m", "not-an-int", "--e", "1")[0] == 1
    assert run_cli(capsys, "query", "--e", "1")[0] == 1          # missing --m
    assert run_cli(capsys, "table", "--e", "0", "--max-m", "4")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1


# Fixed extreme inputs, with the exit code each gives:
# 0 with output, or 1 with a message and no traceback.  A query gates only
# the steps at its own m, so m = 10^12 and 10^12 + 3 (where both rounds
# have a step and the spin rule applies) cost what m = 2 does.
_EXTREME_INPUTS = (
    [(0, ("query", "--m", str(m), "--e", "3"))
     for m in (0, 1, 2, 10**12, 10**12 + 3)]
    + [(0, ("query", "--m", str(1 << t), "--e", "3")) for t in range(15)]
    # 2^e past the int-to-str digit limit is printed as 2^e, not formed
    + [(0, ("query", "--m", "3", "--e", str(e))) for e in (14285, 10**11)]
    # a number past the digit limit leaves stdout empty: the dimension of
    # the query and the BO level of the lift, after lines that print
    + [(1, ("query", "--m", str(3 * 10**4299), "--e", "3")),
       (1, ("lift", "--ell", "9" * 4300))]
    + [(0, ("table", "--e", "2", "--max-m", "0")),
       (0, ("table", "--e", "2", "--max-m", "-5")),
       (1, ("query", "--m", "-1", "--e", "3")),
       (1, ("query", "--m", "5", "--e", "-1")),
       (1, ("table", "--e", "-1", "--max-m", "4")),
       (1, ("lift", "--ell", "-1")),
       (1, ("query", "--m", "5", "--e", "3", "--k", "0")),
       (1, ("query", "--m", "5", "--e", "3", "--k", "2")),
       (1, ("query", "--m", "5", "--e", "3", "--k", "-1")),
       (1, ("derive", "--m", "0", "--e", "2")),
       (1, ("derive", "--m", "1", "--e", "2")),
       (1, ("derive", "--m", "2", "--e", "2")),
       (1, ("derive", "--m", "4", "--e", "2"))])


def test_extreme_inputs_exit_cleanly(capsys):
    for expected, argv in _EXTREME_INPUTS:
        code, out, err = run_cli(capsys, *argv)
        assert code == expected, argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert not out, argv
            assert err.startswith("no inductive derivation"
                                  if argv[0] == "derive" else "error: "), argv
        elif argv[0] == "table":
            assert not err and out.split() == list(cli.COLUMNS), argv
        else:
            m, e = int(argv[2]), int(argv[4])
            torsion = 8 if e == 3 else f"2^{e}"
            assert not err, argv
            head = f"L^{2 * m + 1}({torsion})  (m={m}, e={e},"
            assert out.startswith(head), argv


def test_derive_replays(capsys):
    code, out, _ = run_cli(capsys, "derive", "--m", "7", "--e", "2")
    assert code == 0
    assert "R^26" in out
    assert "replayed OK" in out
    assert "round2:special" in out


def test_derive_jsonl(capsys):
    code, out, _ = run_cli(capsys, "derive", "--m", "3", "--e", "5",
                           "--format", "jsonl")
    assert code == 0
    tree = json.loads(out.splitlines()[0])
    assert tree["rule"] == "round1:base"
    rules = {p["rule"] for p in tree["premises"]}
    assert "feeding" in rules and "axiom:dim3-embedding" in rules


def test_derive_without_bound_fails(capsys):
    code, _, err = run_cli(capsys, "derive", "--m", "8", "--e", "1")
    assert code == 1
    assert "no inductive derivation" in err


def test_lift_output(capsys):
    code, out, _ = run_cli(capsys, "lift", "--ell", "6")
    assert code == 0
    assert "lambda=1" in out and "pass" in out
    code, out, _ = run_cli(capsys, "lift", "--ell", "4", "--mu", "2")
    assert code == 0
    assert "fail" in out and "mu=1" not in out


def test_lift_matches_golden(capsys):
    outs = []
    for ell in (1, 2, 3, 6, 4096, 10**21):
        code, out, err = run_cli(capsys, "lift", "--ell", str(ell))
        assert (code, err) == (0, "")
        outs.append(out)
    assert "".join(outs) == (GOLDEN / "lift.txt").read_text()


def test_lift_qualifies_a_feed_by_the_torsions_it_admits(capsys,
                                                        monkeypatch):
    # the qualifier reads `inductive._feed_admissible` at e = 1, 2 and 3
    # (e >= 3 is one class), and a feed every torsion admits has none
    for admitted, qualifier in (
            (lambda mu, ell, e: True, ""),
            (lambda mu, ell, e: e >= 3, " for e >= 3"),
            (lambda mu, ell, e: e != 2, " for e = 1 or e >= 3"),
            (lambda mu, ell, e: False, " for no e")):
        monkeypatch.setattr(inductive, "_feed_admissible", admitted)
        code, out, _ = run_cli(capsys, "lift", "--ell", "1", "--mu", "2")
        assert (code, out.splitlines()[-1]) == (
            0, "feeding mu=2: (n, m, d) = (3, 7, 0) -> 4*eta over L(3, e) "
               f"embeds in R^15{qualifier}")


def test_verify_scope_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "lifting")
    assert code == 0
    assert out.strip().endswith("cases")
    assert "PASS" in out


def test_verify_timings_go_to_stderr(capsys, monkeypatch):
    plain = run_cli(capsys, "verify", "lifting")
    code, out, err = run_cli(capsys, "verify", "lifting", "--timings")
    assert plain == (code, out, "") and code == 0
    assert re.fullmatch(
        r"timing lifting: \d+\.\d{3} s, 5868 cases, \d+ cases/s\n", err)

    # "all" times each scope in order, and the flag leaves a FAIL alone
    for name in verify.SCOPES:
        monkeypatch.setitem(verify.SCOPES, name, lambda name=name: [
            verify.CheckResult(f"{name}-check", 3, name != "rounds")])
    plain = run_cli(capsys, "verify", "all")
    code, out, err = run_cli(capsys, "verify", "all", "--timings")
    assert plain == (code, out, "") and code == 2
    assert [line.split(":")[0] for line in err.splitlines()] == [
        f"timing {name}" for name in verify.SCOPES]


_TIMING_LINE = re.compile(
    r"timing (?P<command>query|table|derive): import \d+\.\d{3} s"
    r"(?P<laps>(, [a-z]+ \d+\.\d{3} s)*), total \d+\.\d{3} s; "
    r"(?P<nodes>\d+) nodes, (?P<conditions>\d+) side conditions\n")


def test_query_table_derive_timings_go_to_stderr(capsys):
    table = ("table", "--e", "3", "--max-m", "4096", "--format", "csv")
    code, out, err = run_cli(capsys, *table, "--timings")
    assert (code, out, "") == run_cli(capsys, *table) and code == 0
    match = _TIMING_LINE.fullmatch(err)
    assert match and err.startswith("timing table: import ")
    assert [lap.split()[0] for lap in match["laps"].split(", ")[1:]] == [
        "report", "render"]
    assert err.endswith("; 0 nodes, 0 side conditions\n")
    for argv in (("query", "--m", "5000", "--e", "3", "--all"),
                 ("query", "--m", "1", "--e", "2"),
                 ("derive", "--m", "1023", "--e", "3", "--format", "jsonl"),
                 ("derive", "--m", "51", "--e", "2"),
                 ("derive", "--m", "8", "--e", "1"),
                 ("derive", "--m", "2", "--e", "1")):
        plain = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, *argv, "--timings")
        assert (code, out) == plain[:2], argv
        assert err.startswith(plain[2]), argv
        match = _TIMING_LINE.fullmatch(err[len(plain[2]):])
        assert match and match["command"] == argv[0], argv
        if argv[0] == "query":
            assert (match["nodes"], match["conditions"]) == ("0", "0"), argv
    # a derive counts the nodes of the one derivation it prints (here round
    # 2's sharpened output)
    code, _, err = run_cli(capsys, "derive", "--m", "51", "--e", "2",
                           "--timings")
    pairs = proofs.pairs(2, 51)
    best = min((b for m, b in pairs if m == 51), key=lambda b: b.dim)
    assert best.derivation.rule_id == "round2:sharp"
    nodes = unique_nodes([best.derivation])
    assert len(nodes) < len(unique_nodes(b.derivation for _, b in pairs))
    assert code == 0 and err.endswith(
        f"s; {len(nodes)} nodes, "
        f"{sum(len(n.side_conditions) for n in nodes)} side conditions\n")


def test_a_plain_derive_walks_its_derivation_once(capsys, monkeypatch):
    # the count of replayed conditions walks the derivation's nodes; only
    # --timings walks them again, to count them
    calls = []

    def counted(roots):
        calls.append(roots)
        return unique_nodes(roots)
    monkeypatch.setattr(cli, "unique_nodes", counted)
    monkeypatch.setattr(records, "unique_nodes", counted)
    argv = ("derive", "--m", "51", "--e", "2")
    for extra, walks in (((), 1), (("--timings",), 2)):
        calls.clear()
        assert run_cli(capsys, *argv, *extra)[0] == 0
        assert len(calls) == walks, extra


# Runs one command in a fresh interpreter, with `-S` so that no module
# `site` imports can hide one the command imports, and reports which of
# these modules it loaded.  The report is a repr: printing json would load
# json.
_PROOFS_PROBE = """
import sys
import lensbounds.cli as cli
code = cli.main(sys.argv[1:])
print((code, sorted(name for name in sys.modules if name in (
    "lensbounds.proofs", "dataclasses", "inspect", "csv", "json",
    "shutil"))),
    file=sys.stderr)
"""


def test_only_derive_loads_the_proof_layer():
    # and each command imports only what it uses: the dataclass machinery
    # nowhere, csv never (only the tests parse csv), json only for jsonl,
    # and shutil never (argparse reads the terminal's width through it,
    # only to print help or usage)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = {}
    for argv, jsonl in ((("query", "--m", "5000", "--e", "3", "--all"), False),
                        (("table", "--e", "2", "--max-m", "64", "--format",
                          "csv"), False),
                        (("table", "--e", "2", "--max-m", "64", "--format",
                          "jsonl"), True),
                        (("derive", "--m", "7", "--e", "2"), False),
                        (("derive", "--m", "7", "--e", "2", "--format",
                          "jsonl"), True),
                        (("verify", "lifting"), False)):
        proc = subprocess.run([sys.executable, "-S", "-c", _PROOFS_PROBE,
                               *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, modules = ast.literal_eval(proc.stderr.splitlines()[-1])
        loaded[argv[0]] = loaded.get(argv[0], False) or (
            "lensbounds.proofs" in modules)
        assert code == 0, argv
        assert set(modules) - {"lensbounds.proofs"} == (
            {"json"} if jsonl else set()), argv
    assert loaded == {"query": False, "table": False, "derive": True,
                      "verify": False}


_HELP_ARGVS = (("--help",), ("query", "--help"), ("table", "--help"),
               ("derive", "--help"), ("lift", "--help"), ("verify", "--help"),
               (), ("query",),
               ("table", "--e", "3", "--max-m", "2", "--format", "xx"),
               ("bogus",))


def test_help_and_usage_keep_their_bytes(capsys, monkeypatch):
    # help and usage errors print the bytes of parsers built by argparse's
    # own constructor, whose formatter reads the terminal's width at every
    # argument it adds, at 80 and at 132 columns alike
    printed = {}
    for columns in ("80", "132"):
        monkeypatch.setenv("COLUMNS", columns)
        got = [run_cli(capsys, *argv) for argv in _HELP_ARGVS]
        with monkeypatch.context() as patch:
            patch.setattr(cli._Parser, "__init__",
                          argparse.ArgumentParser.__init__)
            assert got == [run_cli(capsys, *argv) for argv in _HELP_ARGVS]
        assert [code for code, _, _ in got] == [0] * 6 + [1] * 4
        printed[columns] = got
    assert printed["80"] != printed["132"]


def test_query_and_table_make_no_proof_nodes(capsys, monkeypatch):
    made = []
    for cls in (DerivationNode, SideCondition):
        def counted(this, *args, cls=cls, new=cls.__new__, **kwargs):
            made.append(cls)
            return new(this, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", counted)
    assert run_cli(capsys, "query", "--m", "5000", "--e", "3")[0] == 0
    assert run_cli(capsys, "table", "--e", "2", "--max-m", "300")[0] == 0
    assert made == []
    assert run_cli(capsys, "derive", "--m", "7", "--e", "2")[0] == 0
    assert DerivationNode in made and SideCondition in made


def test_derive_replays_before_it_prints(capsys, monkeypatch):
    # a replay that cannot finish (as a chain too deep for the recursion
    # limit cannot) leaves stdout empty instead of half a derivation
    def fail(self):
        raise RecursionError("too deep")
    monkeypatch.setattr(DerivationNode, "replay", fail)
    for fmt in ("human", "jsonl"):
        with pytest.raises(RecursionError):
            cli.main(["derive", "--m", "51", "--e", "2", "--format", fmt])
        assert capsys.readouterr().out == ""


# The environments of a CLI run with block-buffered stdout, and with
# PYTHONUNBUFFERED set, where stdout's binary layer is the raw file, whose
# write to a pipe whose reader has left may return short without an error.
_BUFFERED_ENV = {name: value for name, value in os.environ.items()
                 if name != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(SRC)}
_ENVS = (_BUFFERED_ENV, _BUFFERED_ENV | {"PYTHONUNBUFFERED": "1"})


def test_reader_leaving_exits_141():
    # as `derive --m 401 --e 3 | head -n 1`: 552 KB of stdout, far past what
    # a pipe holds, so the write fails once the reader has gone
    for env in _ENVS:
        proc = subprocess.Popen(
            [sys.executable, "-m", "lensbounds.cli", "derive", "--m", "401",
             "--e", "3"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (cli.EXIT_PIPE, b""), \
            env.get("PYTHONUNBUFFERED")
        assert first == b"best inductive upper bound for (m=401, e=3): " \
                        b"R^1602 (smooth)\n"


def _shell_run(redirect: str, argv, env, **kwargs):
    """Run the CLI under `sh` with `redirect` applied to it alone."""
    return subprocess.run(
        ["sh", "-c", f'"$0" -m lensbounds.cli "$@" {redirect}',
         sys.executable, *argv], env=env, timeout=120, **kwargs)


def test_closed_stdout_exits_141():
    # as `query --m 3 --e 3 >&-`; a command with no stdout keeps its code
    for env in _ENVS:
        for argv, want in (
                (("query", "--m", "3", "--e", "3"), (cli.EXIT_PIPE, "")),
                (("derive", "--m", "2", "--e", "3"),
                 (1, "no inductive derivation exists for m=2 "
                     "(the rounds start at m=3)\n"))):
            proc = _shell_run(">&-", argv, env, capture_output=True,
                              text=True)
            assert (proc.returncode, proc.stderr) == want, \
                (argv, env.get("PYTHONUNBUFFERED"))


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="no /dev/full")


@_NO_DEV_FULL
def test_stderr_that_cannot_be_written_costs_no_stdout():
    # as `query --m 5 --e 3 --timings 2>/dev/full` and `... 2>&-`: the
    # diagnostics are lost, and the exit code and stdout are a plain run's
    for argv, code in ((("query", "--m", "5", "--e", "3"), 0),
                       (("derive", "--m", "7", "--e", "2"), 0),
                       (("verify", "lifting"), 0),
                       (("derive", "--m", "2", "--e", "3"), 1),
                       (("query", "--m", "5"), 1)):  # a usage error
        plain = subprocess.run(
            [sys.executable, "-m", "lensbounds.cli", *argv], env=_BUFFERED_ENV,
            capture_output=True, timeout=120)
        assert (plain.returncode, bool(plain.stdout)) == (code, not code)
        for redirect in ("2>/dev/full", "2>&-"):
            proc = _shell_run(redirect, (*argv, "--timings"), _BUFFERED_ENV,
                              stdout=subprocess.PIPE)
            assert (proc.returncode, proc.stdout) == (
                plain.returncode, plain.stdout), (argv, redirect)


@_NO_DEV_FULL
def test_stdout_that_cannot_be_written_exits_74():
    # as `table --e 2 --max-m 32 --format csv > /dev/full`: one line on
    # stderr and no traceback
    argv = ("table", "--e", "2", "--max-m", "32", "--format", "csv")
    for env in _ENVS:
        proc = _shell_run(">/dev/full", argv, env, capture_output=True,
                          text=True)
        assert (proc.returncode, proc.stderr) == (
            cli.EXIT_IOERR,
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"), \
            env.get("PYTHONUNBUFFERED")


def test_help_prints_the_parsers_own_help(capsys):
    # `--help` prints through `main`'s one write of stdout: the bytes of the
    # parser's own help, for the root parser and for a subcommand
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    for argv, helped in ((("--help",), parser),
                         (("derive", "--help"), sub.choices["derive"])):
        assert run_cli(capsys, *argv) == (0, helped.format_help(), ""), argv


@_NO_DEV_FULL
def test_help_that_cannot_be_written_exits_as_a_command_does():
    # `--help > /dev/full` exits 74 with one line on stderr, and
    # `query --help >&-` exits 141 with nothing on stderr
    for env in _ENVS:
        for argv in (("--help",), ("query", "--help")):
            full = _shell_run(">/dev/full", argv, env, capture_output=True,
                              text=True)
            assert (full.returncode, full.stderr) == (
                cli.EXIT_IOERR,
                f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
            ), (argv, env.get("PYTHONUNBUFFERED"))
            closed = _shell_run(">&-", argv, env, capture_output=True,
                                text=True)
            assert (closed.returncode, closed.stderr) == (cli.EXIT_PIPE, ""), \
                (argv, env.get("PYTHONUNBUFFERED"))


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    def explode(*a, **k):
        space = LensSpace(1, 1)
        lo = Bound(Direction.LOWER, 9, Category.SMOOTH, "x", "c")
        up = Bound(Direction.UPPER, 5, Category.SMOOTH, "y", "c")
        raise InconsistentBoundsError(space, lo, up)
    monkeypatch.setattr(cli, "report", explode)
    code, _, err = run_cli(capsys, "query", "--m", "1", "--e", "1")
    assert code == 3
    assert "internal inconsistency" in err


# sha256(stdout)[:16] of each table the benchmark's table-sweep workload
# runs, in its order, as printed before the rounds were built incrementally,
# but for `table --e 1 --max-m 256`, whose default rows now leave the e = 1
# second round out (it rests on the external PL seed)
TABLE_DIGESTS = ("70684a2e6f39d8eb", "69d7d6bd7ee9db67", "1a1c7cf208be33ac",
                 "98a81c72084cdc07", "8f3d8d86f95c9a19", "cad46721563caf3b",
                 "d4045ef2ac2a98f2", "8dba970e5042cec0")


def test_large_tables_keep_their_bytes(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import TABLES
    tables = [op.argv for op in TABLES]
    assert len(tables) == len(TABLE_DIGESTS)
    for argv, digest in zip(tables, TABLE_DIGESTS):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv


# sha256(stdout)[:16] of `query --m m --e e --all` with each flag set, for m
# in QUERY_MS, as printed when `inductive.at` became the one source of the
# round uppers: each round bound is listed once, under its catalog name, and
# at e = 1 the second round's carry [external]
QUERY_MS = (0, 1, 2, 3, 5, 7, 11, 15, 23, 25, 101, 257, 1023, 4095)
QUERY_DIGESTS = {
    ((), 1): (
        "b8a8ab072281b6f5", "90b73993d1f2f992", "fbf899522afb9d8b",
        "11236c4e9756472e", "36bdd15d64fc15ed", "ccffe63ef1fc36fe",
        "fa5ce73be37f78e2", "882bd6e0cce9b91c", "8123fd3887bf0c0f",
        "7e9fc900cc74d758", "44ed1072f841f51e", "1c5ff94bf2c2a463",
        "ec50df270fa8a86a", "a7771021f6aaef17"),
    ((), 2): (
        "3b1416ffcf61cfea", "262f277d40b533a3", "ad19f932e59deecc",
        "012b42f03fa41e77", "c379d6113fb5cef9", "268c60fdce5e5f6d",
        "2fa4c2219a1e49b2", "e1d9f01e07f43230", "5dc9cd70b1e005b1",
        "b1918716d75fe507", "01a57dbcd1d5ee63", "965b34d9b92cadb4",
        "6fb706394224eb9b", "3efb6c237b196ce0"),
    ((), 3): (
        "00356c5c29baf7c5", "fde456d2d3fe7545", "3fec4f143cf31df7",
        "a60371e8133a3fbd", "7c925548b69fed4a", "cca471b2feeb6aa9",
        "fa38d17cda88a310", "aa2a30a3e851be65", "3a50b86c0d2c094c",
        "0b89591a930c1b62", "5a6772b4343bd436", "750155c83a3161cf",
        "6dbc72527e9014e5", "527bb8d6aa0cd97f"),
    ((), 8): (
        "25211b1ee147ed16", "bad3e1c1c7110307", "34012336441be9a0",
        "01126c9c9105dc5a", "95bd8089b2b75242", "767955206a9ab71c",
        "0642c34964a39d1c", "1707b803db7481cf", "3d5204f796f9b00d",
        "4d7c145f7e98df27", "e5e84e665b71c26b", "8a75be14d39983a3",
        "5e645906dadabca6", "a1dc50f807a93ffe"),
    (('--external',), 1): (
        "b8a8ab072281b6f5", "90b73993d1f2f992", "fbf899522afb9d8b",
        "11236c4e9756472e", "36bdd15d64fc15ed", "d2dbcc6a05a07458",
        "1c5719b8a812268c", "00cb99a7fcb4fe85", "f78bb4cb86fd5741",
        "7e9fc900cc74d758", "44ed1072f841f51e", "1c5ff94bf2c2a463",
        "208297a082e2e87e", "5747d3916b931a41"),
    (('--external',), 2): (
        "3b1416ffcf61cfea", "262f277d40b533a3", "ad19f932e59deecc",
        "012b42f03fa41e77", "c379d6113fb5cef9", "268c60fdce5e5f6d",
        "2fa4c2219a1e49b2", "e1d9f01e07f43230", "5dc9cd70b1e005b1",
        "b1918716d75fe507", "01a57dbcd1d5ee63", "965b34d9b92cadb4",
        "6fb706394224eb9b", "3efb6c237b196ce0"),
    (('--external',), 3): (
        "00356c5c29baf7c5", "fde456d2d3fe7545", "3fec4f143cf31df7",
        "a60371e8133a3fbd", "7c925548b69fed4a", "cca471b2feeb6aa9",
        "fa38d17cda88a310", "aa2a30a3e851be65", "3a50b86c0d2c094c",
        "0b89591a930c1b62", "5a6772b4343bd436", "750155c83a3161cf",
        "6dbc72527e9014e5", "527bb8d6aa0cd97f"),
    (('--external',), 8): (
        "25211b1ee147ed16", "bad3e1c1c7110307", "34012336441be9a0",
        "01126c9c9105dc5a", "95bd8089b2b75242", "767955206a9ab71c",
        "0642c34964a39d1c", "1707b803db7481cf", "3d5204f796f9b00d",
        "4d7c145f7e98df27", "e5e84e665b71c26b", "8a75be14d39983a3",
        "5e645906dadabca6", "a1dc50f807a93ffe"),
    (('--conjectural',), 1): (
        "b8a8ab072281b6f5", "90b73993d1f2f992", "fbf899522afb9d8b",
        "11236c4e9756472e", "36bdd15d64fc15ed", "ccffe63ef1fc36fe",
        "fa5ce73be37f78e2", "882bd6e0cce9b91c", "8123fd3887bf0c0f",
        "7e9fc900cc74d758", "44ed1072f841f51e", "1c5ff94bf2c2a463",
        "6ada6a961e7472d4", "0baf8adc66e1f587"),
    (('--conjectural',), 2): (
        "3b1416ffcf61cfea", "262f277d40b533a3", "ad19f932e59deecc",
        "012b42f03fa41e77", "c379d6113fb5cef9", "268c60fdce5e5f6d",
        "2fa4c2219a1e49b2", "e1d9f01e07f43230", "5dc9cd70b1e005b1",
        "b1918716d75fe507", "01a57dbcd1d5ee63", "965b34d9b92cadb4",
        "6fb706394224eb9b", "3efb6c237b196ce0"),
    (('--conjectural',), 3): (
        "00356c5c29baf7c5", "fde456d2d3fe7545", "3fec4f143cf31df7",
        "a60371e8133a3fbd", "7c925548b69fed4a", "cca471b2feeb6aa9",
        "fa38d17cda88a310", "aa2a30a3e851be65", "3a50b86c0d2c094c",
        "0b89591a930c1b62", "5a6772b4343bd436", "750155c83a3161cf",
        "6dbc72527e9014e5", "399185e575eba5de"),
    (('--conjectural',), 8): (
        "25211b1ee147ed16", "bad3e1c1c7110307", "34012336441be9a0",
        "01126c9c9105dc5a", "95bd8089b2b75242", "767955206a9ab71c",
        "0642c34964a39d1c", "1707b803db7481cf", "3d5204f796f9b00d",
        "4d7c145f7e98df27", "e5e84e665b71c26b", "8a75be14d39983a3",
        "5e645906dadabca6", "a1dc50f807a93ffe"),
    (('--k', '3'), 1): (
        "e38f2e70a10776fe", "8b9244bdff738835", "4777d0dcd77a4f57",
        "5f1ea5882cf95892", "4c0f6ee12442b348", "dde120d0f9626d4d",
        "0c423eb178220548", "836d1b5b6cd2784c", "673b73099c7bd331",
        "ec8bc841f6ff1b0c", "a360160eeb46c6f2", "904b72947a890e18",
        "51e26c01644852ff", "d2bfa41f91fb1fe0"),
    (('--k', '3'), 2): (
        "b9e04081039f26a5", "66faa5f27b247bc3", "ac6e9a50de81e601",
        "6e57fa4d209ea5fd", "216572f160b10637", "9d0c5691762c9181",
        "a02493bd8435ab5a", "aa11e6d2ed30dc97", "099b71635657e83c",
        "9a43d446007dce30", "2f1d744cadaa68b3", "65abe64ecf765e66",
        "e6bd44f254bb66ba", "1be90b9523298186"),
    (('--k', '3'), 3): (
        "e5dd65a08906e4e4", "1cd2c42fd7b0eefd", "90484de0da012ba1",
        "fe042ddfb55932d9", "cdeafd792d0f0a45", "2e16c587c71a2d8c",
        "bf71fd52e0864bb1", "1299246579f525eb", "0301aafcf33d02f6",
        "757e1d8a6ecdef68", "06736806dced3c30", "2f9350bbdcfb42e5",
        "1c17dbab64ddf3e9", "6a6cfd066fdd7380"),
    (('--k', '3'), 8): (
        "e1ce1e4878a70f1e", "1919663eee9ee845", "061f43815c17e4a2",
        "c8f9080ade609c48", "21f9bbab42170fba", "58e14fd46fc95c14",
        "60a3cccd1b069ad6", "7d94636f63b208bb", "be2731601abc8a23",
        "e764195fcb033840", "3d2df5384fe64058", "fc702d5322d9c850",
        "a7fbcd1b41ab552e", "05ad7e3995fc5960"),
}


@pytest.mark.parametrize("flags, e", list(QUERY_DIGESTS), ids=[
    f"{' '.join(flags) or 'plain'} e={e}" for flags, e in QUERY_DIGESTS])
def test_queries_keep_their_bytes(capsys, flags, e):
    for m, digest in zip(QUERY_MS, QUERY_DIGESTS[flags, e]):
        argv = ("query", "--m", str(m), "--e", str(e), "--all", *flags)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv


def test_query_torsion_past_the_digit_limit(capsys):
    # 2^e*k is printed in decimal while the interpreter's int-to-str limit
    # (4300 digits by default) allows it, and as a power past it, where it
    # raised a ValueError that exited 1 as a usage error
    for e, k, torsion in ((14284, 1, str(2**14284)),
                          (14285, 1, "2^14285"),
                          (14282, 3, str(2**14282 * 3)),
                          (14283, 3, "2^14283*3"),
                          (14284, 3, "2^14284*3")):
        code, out, err = run_cli(capsys, "query", "--m", "3", "--e", str(e),
                                 "--k", str(k), "--all")
        assert (code, err) == (0, ""), (e, k)
        assert out.startswith(
            f"L^7({torsion})  (m=3, e={e}, odd factor {k},"), (e, k)


# exit code, and stderr or its end, of edge inputs whose e is checked where
# the rounds are first asked for, or, for a table, before its first row (so
# a table with no rows checks e and k too)
_EDGE_EXITS = (
    (("derive", "--m", "5", "--e", "0"), 1, "error: need e >= 1, got 0\n"),
    (("derive", "--m", "2", "--e", "0"), 1,
     "no inductive derivation exists for m=2 (the rounds start at m=3)\n"),
    (("table", "--e", "0", "--max-m", "0"), 1, "error: need e >= 1, got 0\n"),
    (("table", "--e", "0", "--max-m", "1"), 1, "error: need e >= 1, got 0\n"),
    (("query", "--m", "1", "--e", "3", "--timings"), 0,
     " s; 0 nodes, 0 side conditions\n"),
    (("query", "--m", "0", "--e", "3", "--timings"), 0,
     " s; 0 nodes, 0 side conditions\n"),
    (("table", "--e", "3", "--max-m", "0", "--k", "4"), 1,
     "error: odd_factor must be odd >= 1, got 4\n"),
)


@pytest.mark.parametrize("argv, want_code, want_err", _EDGE_EXITS)
def test_edge_exits(capsys, argv, want_code, want_err):
    code, out, err = run_cli(capsys, *argv)
    assert code == want_code
    assert err.endswith(want_err)
    if argv[0] == "table":
        assert out.split() == (list(cli.COLUMNS) if code == 0 else [])
    if "--timings" not in argv:
        assert err == want_err


# sha256(stdout)[:16] of `derive` in human and jsonl format, as printed
# before the two rounds shared one loop; m = 25 (e = 3) and m = 51 (e = 2)
# are sharpened outputs
DERIVE_DIGESTS = (
    (("3", "5"), "673f6db9ce00ab95", "69a069454d067160"),
    (("7", "1"), "899e74231ce225d1", "8a4d3ff6d883b89f"),
    (("7", "2"), "431decfdf8b06b5b", "326f8aa4afbadf50"),
    (("7", "3"), "759653799bcd40b7", "95746c95d86bcd5f"),
    (("11", "1", "--external"), "7947a01e0a690df4", "c8e2f1b2b81a6c1c"),
    (("25", "3"), "131a0fb35cac8f87", "e117570cbb82fd80"),
    (("51", "2"), "8b2a149e0fbe23ee", "67360db40cb89adf"),
    (("699", "8"), "580316a5291251a7", "951129f5369a01de"),
    (("1023", "3"), "e7a034c19adbd262", "2723dfee052a704f"),
)


def test_derives_keep_their_bytes(capsys):
    for (m, e, *flags), human, jsonl in DERIVE_DIGESTS:
        for fmt, digest in (("human", human), ("jsonl", jsonl)):
            code, out, _ = run_cli(capsys, "derive", "--m", m, "--e", e,
                                   "--format", fmt, *flags)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, \
                (m, e, fmt)


# (exit code, sha256(stdout)[:16] in human format, in jsonl) of `derive` at
# each (m, e), as printed when every side condition stored its witness as
# sorted (name, value) pairs and its text formatted; (699, 1) is too deep to
# replay and exits 1 with no stdout, as an uncaught RecursionError does
DERIVE_GRID = {
    (3, 1): (0, "c044b22f7cb76965", "74f4bce9f95aa0fe"),
    (3, 2): (0, "484a945725132df7", "dc3a8c19074d0611"),
    (3, 3): (0, "e1b5d50c0b23a803", "5f69f3f81f57078d"),
    (3, 4): (0, "92438e4cb36b6769", "25605b8f89c5e5b9"),
    (3, 5): (0, "673f6db9ce00ab95", "69a069454d067160"),
    (3, 6): (0, "43869f83efefc07e", "9b39367051a2208e"),
    (3, 7): (0, "b4b8396277bf09f9", "3461c29e0e0c0b84"),
    (3, 8): (0, "784e648d0f0a22af", "2c6666fca17abe1d"),
    (7, 1): (0, "899e74231ce225d1", "8a4d3ff6d883b89f"),
    (7, 2): (0, "431decfdf8b06b5b", "326f8aa4afbadf50"),
    (7, 3): (0, "759653799bcd40b7", "95746c95d86bcd5f"),
    (7, 4): (0, "6ce9bed306e65d35", "e6a5bfaafc52b860"),
    (7, 5): (0, "1cf1fa166b54c4de", "da89796c0e6c0286"),
    (7, 6): (0, "57a097a2998c9417", "c9b39a104c98a4a1"),
    (7, 7): (0, "5b3e681bcacc5405", "414098f231324c9c"),
    (7, 8): (0, "26e74aae6b56a707", "ed0fb9e1ce0028e9"),
    (11, 1): (0, "c133ffe30f22f391", "850aa88bb10d4362"),
    (11, 2): (0, "d3ef8aa932972e0e", "a98cbad76154e61c"),
    (11, 3): (0, "a7c45a8f25c72fa2", "cd806c1fe2e1d98e"),
    (11, 4): (0, "e029384b284fbc21", "da0f6bfe0bcfa58e"),
    (11, 5): (0, "3dcd41da5a3c4973", "edb659d4ab527b7c"),
    (11, 6): (0, "244a987b62fc0214", "f14032b39b78eb0c"),
    (11, 7): (0, "41b12685809ee5ca", "aae9ce4235f39530"),
    (11, 8): (0, "cad1fe42adcff57a", "6b924fecbbadeab7"),
    (101, 1): (0, "1eafca7f0d3ab51b", "fe11c3bef24823ca"),
    (101, 2): (0, "ec81028031ce8f73", "6f43eed03607a8eb"),
    (101, 3): (0, "153f3d6dc21dd440", "aed4172d8576bc17"),
    (101, 4): (0, "a0d4d7f631d377c8", "824ef58bc5e63eef"),
    (101, 5): (0, "3d079e21ad84ba5a", "49e029f4df130474"),
    (101, 6): (0, "8c07e047c6aec0c0", "2169421fce090153"),
    (101, 7): (0, "22cae328748e48a0", "acc6c6f9770dad3e"),
    (101, 8): (0, "f0e36365d630ea74", "4bcee15d166561e3"),
    (401, 1): (0, "99a7b7b7bc6f0c6c", "3b2aeddf7d55d576"),
    (401, 2): (0, "f7495bb8cd9d8bf1", "cffaf4a276cabdc7"),
    (401, 3): (0, "dd27c291e98f5b79", "f7f79f646db233f5"),
    (401, 4): (0, "920d5f6066450a90", "cf36f8bf825e811c"),
    (401, 5): (0, "a75a39cdab79fbd6", "dd5d7e58237cdc37"),
    (401, 6): (0, "da9f87a3e2bd3740", "4184d5cd30dd9f2d"),
    (401, 7): (0, "a85edc7cbfc9b0db", "e068a88ee0e29e56"),
    (401, 8): (0, "ac9e6967a8273483", "a56cedd6e604499c"),
    (699, 1): (1, "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (699, 2): (0, "2ce5a014eaa54094", "be0c5656e177429d"),
    (699, 3): (0, "6cc94a99d511103f", "8cf8b899aae83fa6"),
    (699, 4): (0, "f569602443944154", "9054a58f40ceb551"),
    (699, 5): (0, "01cca2abc680552e", "5bf472adfb509cea"),
    (699, 6): (0, "79b1f64213e2d208", "0f97899ba3985bd1"),
    (699, 7): (0, "0ddb72e10329fd16", "9ee6b62e47bdff16"),
    (699, 8): (0, "580316a5291251a7", "951129f5369a01de"),
}


def test_derive_grid_keeps_its_bytes_and_exit_codes(capsys):
    for (m, e), (want_code, *digests) in DERIVE_GRID.items():
        for fmt, digest in zip(("human", "jsonl"), digests):
            argv = ["derive", "--m", str(m), "--e", str(e), "--format", fmt]
            try:
                code = cli.main(argv)
            except RecursionError:
                code = 1
            out = capsys.readouterr().out
            assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) \
                == (want_code, digest), argv


def test_derive_gates_each_step_once(capsys, monkeypatch):
    # a derive gates only the chain it proves (round 1 here, from its
    # ground to m = 401: 200 mains and 93 sharpened outputs), each step
    # once, and prints the bytes it printed when it also gated round 2's
    # steps below m (434 gates)
    calls = []
    real = inductive.radon_gate
    monkeypatch.setattr(inductive, "radon_gate",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, "derive", "--m", "401", "--e", "3")
    assert code == 0 and len(calls) == len(set(calls)) == 293
    assert {r for _, r, _ in calls} == {2}  # r = k + 1, k = 1
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "dd27c291e98f5b79"


def _nu_binom_sym_off_at(bottom: int):
    """nu_binom_sym, one too high at C(*, bottom)."""
    real = lifting.nu_binom_sym
    return lambda a, b: real(a, b) + 1 if b == bottom else real(a, b)


@pytest.mark.parametrize("target, patches, argv, message", [
    (catalog, {"is_spin": lambda m, e: False},
     ("query", "--m", "7", "--e", "2"), "spin prerequisite failed"),
    (cohomology, {"tangential_sw_class": lambda ring: ring.one() + ring.y(1)},
     ("table", "--e", "3", "--max-m", "8"), "spin criteria disagree"),
    # at ell = 6 the Davis-Mahowald valuations are of C(p, 20) and C(p, 22)
    (lifting, {"nu_binom_sym": _nu_binom_sym_off_at(20)},
     ("lift", "--ell", "6"), "nu(C(p, 4l-4)) = 2 off its closed form"),
    (lifting, {"nu_binom_sym": _nu_binom_sym_off_at(22)},
     ("lift", "--ell", "6"), "nu(C(p, 4l-2)) = 5 off its closed form"),
    (lifting, {"nu": lambda n: 99},
     ("lift", "--ell", "6"), "disagrees with alpha(ell) + 1 + nu(ell)"),
    (inductive, {"sections_table": lambda k, e: None},
     ("derive", "--m", "5", "--e", "3"), "no tabulated igniting embedding"),
    (inductive, {"sections_table": lambda k, e: None},
     ("query", "--m", "5", "--e", "3"), "no tabulated igniting embedding"),
    # where no step reaches m, or only round 1's ground, whose sigma is not
    # tabulated: both sigmas are looked up at every lookup
    *[(inductive, {"sections_table": lambda k, e: None},
       argv, "no tabulated igniting embedding")
      for argv in (("query", "--m", "1", "--e", "3"),
                   ("query", "--m", "3", "--e", "3"),
                   ("table", "--e", "3", "--max-m", "3"),
                   ("derive", "--m", "3", "--e", "3"))],
])
def test_engine_failures_exit_3(capsys, monkeypatch, target, patches, argv,
                                message):
    for name, patched in patches.items():
        monkeypatch.setattr(target, name, patched)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("internal inconsistency: ")
    assert message in err


# Runs in a fresh interpreter: the pytest process has numpy loaded
# already.  Prints, after each step, whether numpy and the digit-identity
# automata have been imported; every step must leave numpy unloaded, and
# the automata load with the dyadic scope, which runs after the others.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import lensbounds.cli as cli
def loaded():
    return ["numpy" in sys.modules, "lensbounds.automata" in sys.modules]
steps = [("import", 0, "", loaded())]
for argv in (["query", "--m", "8", "--e", "3"],
             ["table", "--e", "2", "--max-m", "8", "--format", "csv"],
             ["derive", "--m", "7", "--e", "2"],
             ["lift", "--ell", "6"],
             ["verify", "lifting"],
             ["verify", "cohomology"],
             ["verify", "rounds"],
             ["verify", "bounds"],
             ["verify", "dyadic"],
             ["verify", "all"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    steps.append((" ".join(argv[:2]) if argv[0] == "verify" else argv[0],
                  code, out.getvalue(), loaded()))
print(json.dumps(steps))
"""


def test_no_subcommand_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    loaded = {name: modules for name, _, _, modules in steps}
    assert loaded == {"import": [False, False], "query": [False, False],
                      "table": [False, False], "derive": [False, False],
                      "lift": [False, False],
                      "verify lifting": [False, False],
                      "verify cohomology": [False, False],
                      "verify rounds": [False, False],
                      "verify bounds": [False, False],
                      "verify dyadic": [False, True],
                      "verify all": [False, True]}
    assert all(code == 0 for _, code, _, _ in steps)
    assert all("PASS" in out for name, _, out, _ in steps
               if name.startswith("verify"))
