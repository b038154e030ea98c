"""Property tests over (m, e, k) and over CLI command lines, with
Hypothesis.

Derandomized with bounded example counts, so every run checks the same
cases in about two seconds.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensbounds import cli, inductive, proofs
from lensbounds.catalog import report
from lensbounds.records import LensSpace
from test_cli import parse_csv, parse_jsonl, text


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None,
                    database=None)


ms = st.integers(0, 5000)
es = st.integers(1, 12)
ks = st.sampled_from((1, 3, 5, 7))


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@_settings(100)
@given(m=ms, e=es, k=ks)
def test_query_lower_is_at_most_upper(m, e, k):
    code, out, err = _main("query", "--m", str(m), "--e", str(e),
                           "--k", str(k))
    assert (code, err) == (0, "")
    lower = int(re.search(r"lower: emb >= (\d+)", out)[1])
    upper = int(re.search(r"upper: emb <= (\d+)", out)[1])
    assert lower <= upper


@_settings(100)
@given(m=ms, e=es, k=ks)
def test_flags_never_worsen_a_bound(m, e, k):
    space = LensSpace(m, e, k)
    default = report(space)
    for flags in ({"external": True}, {"conjectural": True},
                  {"external": True, "conjectural": True}):
        flagged = report(space, **flags)
        assert flagged.lower.dim >= default.lower.dim, flags
        assert flagged.upper.dim <= default.upper.dim, flags


@_settings(20)
@given(e=es, max_m=st.integers(0, 200), k=ks, conjectural=st.booleans(),
       external=st.booleans())
def test_table_formats_round_trip(e, max_m, k, conjectural, external):
    rows = cli.table_rows(e, max_m, k, conjectural=conjectural,
                          external=external)
    for render, parse in ((cli.render_csv, parse_csv),
                          (cli.render_jsonl, parse_jsonl)):
        lines = render(rows)
        assert parse(text(lines)) == rows
        assert render(parse(text(lines))) == lines


@_settings(25)
@given(e=st.integers(1, 10), m=st.integers(0, 4096))
def test_integer_pass_equals_proof_layer(e, m):
    plain = inductive.at(m, e)
    proved = proofs.pairs(e, max(m, 3))
    assert plain == tuple(b._replace(derivation=None)
                          for mm, b in proved if mm == m)


# The integers the CLI contract draws: small values, each side of a power
# of two up to 2^12, 10^12 + 3 (both rounds have a step there and the spin
# rule applies) and a 4,300-digit value, at the interpreter's int-to-str
# digit limit.  "x" is not an integer.
_INTS = sorted({*range(-2, 4), *(2**k + d for k in range(13) for d in (-1, 1)),
                10**12 + 3, 10**4299 + 1})
_ARG = st.sampled_from([*map(str, _INTS), "x"])
_FLAG = st.booleans()


def _argv(name, *args, **flags):
    """`name`, the tokens drawn from each of `args`, and the true flags."""
    return st.tuples(*args, *flags.values()).map(lambda drawn: [
        name, *(token for tokens in drawn[:len(args)] for token in tokens),
        *(f"--{flag}" for flag, on in zip(flags, drawn[len(args):]) if on)])


def _opt(option, values):
    return st.tuples(st.just(option), values)


def _maybe(option, values):
    return st.just(()) | _opt(option, values)


# the slow arguments bounded: a table of at most 64 rows, a derive at
# m <= 699, and only the `lifting` scope of verify
_SMALL = st.sampled_from([*(str(n) for n in _INTS if n <= 64), "x"])
_SMALL_M = st.sampled_from([*(str(n) for n in _INTS if n <= 699), "x"])
_COMMANDS = st.one_of(
    _argv("query", _opt("--m", _ARG), _opt("--e", _ARG),
          _maybe("--k", _ARG), conjectural=_FLAG, external=_FLAG,
          all=_FLAG, timings=_FLAG),
    _argv("table", _opt("--e", _ARG), _opt("--max-m", _SMALL),
          _maybe("--k", _ARG),
          _maybe("--format", st.sampled_from(sorted(cli._RENDERERS))),
          conjectural=_FLAG, external=_FLAG, timings=_FLAG),
    _argv("derive", _opt("--m", _SMALL_M), _opt("--e", _ARG),
          _maybe("--format", st.sampled_from(("human", "jsonl"))),
          external=_FLAG, timings=_FLAG),
    _argv("lift", _opt("--ell", _ARG),
          _maybe("--mu", st.sampled_from(("1", "2")))),
    _argv("verify", st.just(("lifting",)), timings=_FLAG))


def _table_rows(out, fmt):
    """The rows of a table's stdout in any of its formats."""
    if fmt == "csv":
        return parse_csv(out)
    if fmt == "jsonl":
        return parse_jsonl(out)
    lines = out.splitlines()
    if fmt == "md":
        lines = [line.strip("| ").split(" | ") for line in lines]
        assert lines.pop(1) == ["---"] * len(cli.COLUMNS)
    else:
        lines = [line.split() for line in lines]
    assert tuple(lines[0]) == cli.COLUMNS
    return [{c: int(v) if c in ("lower", "upper") else v
             for c, v in zip(cli.COLUMNS, line)} for line in lines[1:]]


@settings(derandomize=True, max_examples=150, deadline=5000, database=None)
@given(argv=_COMMANDS)
def test_cli_contract(argv):
    """Every drawn command line ends in a documented exit code, with no
    traceback, nothing on stdout at exit 1, and stdout that parses in its
    format with lower <= upper.

    `derive --m 1000000000003 --e 3` (ROADMAP item 14) is not drawn: it
    builds a chain of about m/2 nodes, far past this test's budget.
    """
    code, out, err = _main(*argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
    if code != 0:
        return
    value = dict(zip(argv, argv[1:]))  # each option's value
    if "--e" in value:
        assert int(value["--e"]) >= 1
    k = int(value.get("--k", "1"))
    assert k >= 1 and k % 2 == 1
    if argv[0] == "query":
        lines = out.splitlines()
        assert len(lines) >= 4 and lines[0].startswith("L^")
        lower = int(re.fullmatch(r"  lower: emb >= (\d+) .*", lines[1])[1])
        upper = int(re.fullmatch(r"  upper: emb <= (\d+) .*", lines[2])[1])
        assert lower <= upper
        assert re.fullmatch(r"  (exact: embedding dimension = \d+|gap: \d+)",
                            lines[3])
    elif argv[0] == "table":
        rows = _table_rows(out, value.get("--format", "human"))
        assert [int(r["m"]) for r in rows] == list(
            range(1, int(value["--max-m"]) + 1))
        assert all(r["lower"] <= r["upper"] for r in rows)
    elif argv[0] == "derive":
        assert re.fullmatch(r"side conditions: \d+ replayed OK",
                            out.splitlines()[-1])
    elif argv[0] == "lift":
        assert out.startswith(f"ell={value['--ell']}: ")
    else:
        assert re.fullmatch(r"PASS: (\d+)/\1 checks, \d+ cases",
                            out.splitlines()[-1])


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="replay recurses once per round step "
                          "(ROADMAP item 2)")
@pytest.mark.parametrize("m, e", [(2047, 3), (4095, 4)])
def test_deep_derive_exits_cleanly(m, e):
    code, out, err = _main("derive", "--m", str(m), "--e", str(e))
    assert code == 0 and "Traceback" not in err
