"""Property tests over (m, e, k) with Hypothesis.

Derandomized with bounded example counts, so every run checks the same
cases in about a second.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from lensbounds import cli, inductive, proofs
from lensbounds.catalog import report
from lensbounds.records import LensSpace
from test_cli import parse_csv, parse_jsonl


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
        text = render(rows)
        assert parse(text) == rows
        assert render(parse(text)) == text


@_settings(25)
@given(e=st.integers(1, 10), m=st.integers(0, 4096))
def test_integer_pass_equals_proof_layer(e, m):
    plain = inductive.at(m, e)
    proved = proofs.pairs(e, max(m, 3))
    assert plain == tuple(b._replace(derivation=None)
                          for mm, b in proved if mm == m)
