import ast
import contextlib
import gc
import pathlib
import sys
import tracemalloc

import pytest

from lensbounds import cli, inductive, proofs, verify
from lensbounds.dyadic import alpha
from lensbounds.inductive import (_feed_ambient, _sections, at, delta_e,
                                  milgram_condition, sections_table)
from lensbounds.lifting import radon_gate
from lensbounds.proofs import (AMBIENT_SUM, BETA_FROM_PRIOR, BETA_ONE_HIGHER,
                               BETA_REUSE, BOUNDARY_RADON, FEEDING_ADMISSIBLE,
                               SECTIONS_EXCEED, feed_node, igniting_node,
                               pairs, prove, step_node)
from lensbounds.records import (Category, ConditionKind, DerivationNode,
                                RoundsDivergenceError, SideCondition,
                                unique_nodes, upper_category)


def test_sections_table():
    assert sections_table(3, 1) == 7
    assert sections_table(3, 2) == 5
    for e in (3, 4, 9):
        assert sections_table(3, e) == 4
    for e in (1, 2, 9):
        assert sections_table(1, e) == 3
    assert sections_table(7, 2) is None    # third round deliberately absent
    assert sections_table(0, 1) is None
    with pytest.raises(ValueError):
        sections_table(3, 0)


def test_igniting_embedding():
    assert igniting_node(3, 2, _sections(3, 2)).conclusion == (
        "L(3, e=2) embeds smoothly in R^14 with 5 independent normal sections")
    assert "in R^6 with 3 " in igniting_node(1, 9, _sections(1, 9)).conclusion
    with pytest.raises(RoundsDivergenceError, match="no tabulated igniting"):
        _sections(5, 1)


def test_inductive_step_gate_strict():
    # a step (k, j) is gated as radon_gate(j, k + 1, sigma + beta)
    # base of the first round: k=j=1, alpha=beta=5, sigma=2 -> R^11
    assert radon_gate(1, 1 + 1, 2 + 5) == ()
    record, = inductive.records(1, 1, 5)
    node = step_node(record, 5, (), ())
    assert node.conclusion == "L(m=3, e=5) embeds (topological) in R^11"
    assert upper_category(7, 11) is Category.TOPOLOGICAL  # not smoothable
    assert [c.kind for c in node.side_conditions] == [SECTIONS_EXCEED,
                                                       AMBIENT_SUM]
    assert node.replay()
    # the conclusion and the ambient-sum witness are the record's dim, so
    # a dim off alpha + beta + 1 fails the replay
    bent = step_node(record._replace(dim=12), 5, (), ())
    assert bent.conclusion.endswith("in R^12") and not bent.replay()
    # special (k, j) = (3, 3) at e = 2: sigma = 5, beta = 11 -> R^26
    assert radon_gate(3, 3 + 1, 5 + 11) == ()
    assert upper_category(15, 26) is Category.SMOOTH
    # no gate: sigma + beta < 4j + 2
    assert radon_gate(3, 1 + 1, 3 + 10) is None


def test_inductive_step_gate_boundary():
    # sigma + beta = 4j + 2 with nu(2j+2) = 3 = 4*0 + 3: need 2k + 3 <= 8
    j = 3  # nu(8) = 3
    assert radon_gate(j, 2 + 1, 3 + 11) == (0, 3)  # 2k+3 = 7 <= 8
    assert radon_gate(j, 3 + 1, 3 + 11) is None    # 2k+3 = 9 > 8
    # round 1's sharpened step at ell = 6 (j = 11): sigma + beta = 3 + 43
    # = 4j + 2 with nu(2j+2) = nu(24) = 3, and 2k + 3 = 5 <= 8
    record = inductive.records(1, 6, 1)[1]
    assert (record.rule_id, record.radon) == ("round1:sharp", (0, 3))
    node = step_node(record, 1, (), ())
    assert node.conclusion == "L(m=13, e=1) embeds (smooth) in R^50"
    assert [c.kind for c in node.side_conditions] == [BOUNDARY_RADON,
                                                       AMBIENT_SUM]
    assert node.replay()


def _best(e, max_m):
    """The best derived upper bound per m <= max_m."""
    best = {}
    for m, bound in pairs(e, max_m):
        if m not in best or bound.dim < best[m].dim:
            best[m] = bound
    return best


def _feed(mu, ell, e, lam):
    """The derivation and ambient of the feed of output lam of step ell of
    round mu, as `proofs` and `records` make them."""
    record = next(r for r in inductive.records(mu, ell, e)
                  if r.lam == lam and r.feed is not None)
    return feed_node(record, e), record.feed


def test_feeding_embedding_examples():
    node, ambient = _feed(1, 1, 3, 0)
    assert ambient == 7 and node.conclusion.startswith("2*eta over L(1, e=3)")
    with pytest.raises(ValueError):                # no sharpening at ell = 1
        _feed_ambient(1, 1, 3, 1)
    with pytest.raises(RoundsDivergenceError, match="no feeding embedding"):
        _feed_ambient(2, 1, 3, 0)                  # the excluded combination
    assert _feed_ambient(2, 1, 2, 0) == 15         # allowed at e <= 2
    node, ambient = _feed(2, 6, 2, 0)
    assert node.conclusion == "4*eta over L(23, e=2) embeds in R^95"
    assert ambient == 95
    assert _feed_ambient(2, 6, 2, 1) == 94
    for node, _ in (_feed(2, 6, 2, 0), _feed(2, 6, 2, 1)):
        assert node.replay()
    with pytest.raises(ValueError):
        _feed_ambient(3, 2, 1, 0)


def test_inadmissible_feed_fails_its_replay(monkeypatch):
    # (mu=2, ell=1, e=3) is refused by _feed_ambient (above) and by the
    # replay of its admissibility condition, through the same predicate
    ok = _feed(2, 1, 2, 0)[0].side_conditions[0]
    assert ok.kind is FEEDING_ADMISSIBLE and ok.replay()
    assert not ok._replace(args=(2, 1, 3)).replay()
    monkeypatch.setattr(inductive, "_feed_admissible", lambda mu, ell, e: False)
    assert not ok.replay()
    with pytest.raises(RoundsDivergenceError, match="no feeding embedding"):
        _feed_ambient(2, 1, 2, 0)


def test_milgram_condition():
    for ell in (1, 2, 3, 100, 4096):
        assert milgram_condition(1, ell)
        assert milgram_condition(2, ell)
    assert milgram_condition(2, 1)          # 7 <= 1 + 2 + 4
    assert not milgram_condition(3, 7)      # 15 > 3 + 3 + 4
    assert milgram_condition(3, 255)        # alpha = 8 reaches 15
    hits = sum(milgram_condition(3, ell) for ell in range(1, 4097))
    # "rarely holds" for mu = 3: exact density 794/4096 = 19.4%; the
    # documented qualitative threshold is 20% (mu <= 2 sits at 100%).
    assert hits == 794
    assert hits / 4096 < 0.20


def test_delta_e():
    assert [delta_e(e) for e in (1, 2, 3, 4, 8)] == [7, 9, 10, 10, 10]


def test_run_rounds_examples():
    assert _best(3, 11)[11].dim == 42   # 16*2 + 10
    assert _best(2, 7)[7].dim == 26     # the special triple
    assert _best(1, 5)[5].dim == 19     # 8*2 + 3
    assert _best(5, 7)[7].dim == 27     # 8*3 + 3 doubles as the ground
    assert pairs(2, 2) == ()            # the rounds start at m = 3


def test_run_rounds_closed_forms():
    for e in (1, 2, 3, 4):
        dlt = delta_e(e)
        produced = {}
        for m, b in pairs(e, 103):
            produced.setdefault((b.derivation.rule_id, m), b.dim)
        for ell in range(1, 52):
            m = 2 * ell + 1
            if m > 103:
                break
            rule = "round1:base" if ell == 1 else "round1:step"
            assert produced[(rule, m)] == 8 * ell + 3
            if ell % 2 == 0 and alpha(ell) >= 2:
                assert produced[("round1:sharp", m)] == 8 * ell + 2
        assert produced[("round2:base", 7)] == 17 + dlt
        if e <= 2:
            assert produced[("round2:special", 7)] == 26
        for ell in range(2, 26):
            m = 4 * ell + 3
            assert produced[("round2:step", m)] == 16 * ell + dlt
            if ell % 2 == 0 and alpha(ell) >= 2:
                assert produced[("round2:sharp", m)] == 16 * ell + dlt - 1


def test_external_flagging():
    # the e=1 second round rests on the external PL seed; round 1 does not
    for m, b in pairs(1, 47):
        rule_id = b.derivation.rule_id
        if rule_id.startswith("round2:") and rule_id != "round2:special":
            assert b.external
        else:
            assert not b.external
    for m, b in pairs(2, 47):
        assert not b.external


def test_derivations_replay_and_audit():
    for e in (1, 2, 3):
        for m, b in pairs(e, 103):
            assert b.derivation.replay()
            for node in unique_nodes([b.derivation]):
                for cond in node.side_conditions:
                    if cond.kind is BOUNDARY_RADON:
                        v = cond.values
                        assert 2 * v["k"] + 3 <= 8 * v["a"] + 2 ** v["b"]


def test_beta_bookkeeping():
    # every step records beta within one of the prior round's output; the
    # conditions are picked by name, so each of the kind's three texts is
    # checked
    texts = set()
    for m, b in pairs(3, 103):
        for node in unique_nodes([b.derivation]):
            for cond in node.side_conditions:
                if cond.kind.name == "beta-from-prior":
                    v = cond.values
                    assert v["prior"] <= v["beta"] <= v["prior"] + 1
                    texts.add(cond.kind.text)
    assert texts == {BETA_REUSE.text, BETA_ONE_HIGHER.text,
                     BETA_FROM_PRIOR.text}


def test_each_kind_is_declared_once_with_its_text():
    # a kind's text takes the values its check does, in the same order
    kinds = [value for value in vars(proofs).values()
             if isinstance(value, ConditionKind)]
    for kind in kinds:
        code = kind.text.__code__
        assert code.co_varnames[:code.co_argcount] == kind.fields, kind.name


def test_beta_kinds_share_one_name_and_check():
    beta = (BETA_REUSE, BETA_ONE_HIGHER, BETA_FROM_PRIOR)
    assert {kind.name for kind in beta} == {"beta-from-prior"}
    assert len({kind.check for kind in beta}) == 1
    assert len({kind.text(26, 25) for kind in beta}) == 3
    assert all(SideCondition(kind, (26, 25)).replay() for kind in beta)


def test_smoothability_flags():
    best = _best(4, 103)
    assert best[3].category is Category.TOPOLOGICAL   # L(3) in R^11
    assert best[5].category is Category.SMOOTH        # (11, 19) is in range
    # a round rule does not embed smoothly itself: its bounds are smooth
    # exactly in the metastable range
    for m, b in best.items():
        assert (b.category is Category.SMOOTH) == (2 * b.dim >= 3 * (2 * m + 2))


def test_feeding_gate_off_its_closed_form_raises(monkeypatch):
    monkeypatch.setattr(inductive, "embedding_gate", lambda inst: 0)
    with pytest.raises(RoundsDivergenceError, match="not R\\^7"):
        _feed_ambient(1, 1, 3, 0)
    monkeypatch.setattr(inductive, "embedding_gate",
                        lambda inst: 4 * inst.n + 3 if inst.d % 2 == 0 else 0)
    assert _feed_ambient(1, 5, 3, 0) == 39
    assert _feed_ambient(1, 6, 3, 0) == 47
    with pytest.raises(RoundsDivergenceError, match="sharpened"):
        _feed_ambient(1, 6, 3, 1)


def _shapes():
    """A function mapping (m, bound) pairs to comparable values in which a
    derivation becomes an id shared exactly by equal trees.  Iterative:
    comparing deep trees with == would recurse once per round step."""
    sigs: dict[tuple, int] = {}

    def tree_id(root: DerivationNode,
                ids: dict[int, tuple[DerivationNode, int]]) -> int:
        stack = [root]
        while stack:
            node = stack[-1]
            todo = [p for p in node.premises if id(p) not in ids]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            key = (node.rule_id, node.conclusion, node.side_conditions,
                   tuple(ids[id(p)][1] for p in node.premises))
            ids[id(node)] = (node, sigs.setdefault(key, len(sigs)))
        return ids[id(root)][1]

    def shape(pairs):
        # id(node) -> (node, tree id), for the nodes of these pairs only:
        # holding the node keeps its id unique
        ids: dict[int, tuple[DerivationNode, int]] = {}
        return [(m, b._replace(derivation=None), tree_id(b.derivation, ids))
                for m, b in pairs]
    return shape


def _state():
    """Every lensbounds module's names, with the id and repr of each value,
    but the builtins: a module that kept state between calls would show a
    new name, a rebound one, or a container whose repr changed."""
    return {name: {key: (id(value), repr(value))
                   for key, value in vars(module).items()
                   if key != "__builtins__"}
            for name, module in sorted(sys.modules.items())
            if name == "lensbounds" or name.startswith("lensbounds.")}


@pytest.mark.parametrize("a, b", [(3, 7), (7, 300), (300, 301), (5, 1023)])
def test_extended_builder_equals_fresh_builder(a, b):
    # lookups at a, then at b, give the lookups and proofs of lookups at b
    # alone, and of none at all, and leave no state behind
    shape = _shapes()
    ms = sorted({3, a, b - 1, b} - {2})
    state = _state()
    for e in range(1, 5):
        cold = [shape(pairs(e, max_m)) for max_m in ms]
        got = []
        for moves in ((a, b), (b,)):
            for m in moves:
                at(m, e)
            got.append(([at(m, e) for m in ms],
                        [shape(pairs(e, max_m)) for max_m in ms]))
        assert got[0] == got[1]
        assert got[0][1] == cold
    assert _state() == state


def test_engine_bounds_are_the_pairs_at_m():
    # the integer pass gives the proof layer's bounds, without derivations
    for e in (1, 2, 3, 6):
        proved = pairs(e, 300)
        for m in range(0, 301):
            want = [b._replace(derivation=None) for mm, b in proved if mm == m]
            got = at(m, e)
            assert list(got) == want, (m, e)
            assert all(b.derivation is None for b in got)


@contextlib.contextmanager
def _no_nodes(monkeypatch):
    """A context in which making a DerivationNode fails the test."""
    def made(*args, **kwargs):
        raise AssertionError("a DerivationNode was made")
    with monkeypatch.context() as patch:
        patch.setattr(DerivationNode, "__new__", made)
        yield


def _counted_records(monkeypatch):
    """Count `inductive.records` calls, as (mu, ell) pairs."""
    calls = []
    real = inductive.records
    monkeypatch.setattr(inductive, "records",
                        lambda mu, ell, e: calls.append((mu, ell))
                        or real(mu, ell, e))
    return calls


def test_lookup_builds_to_m_without_proofs(monkeypatch):
    shape = _shapes()
    state = _state()
    for m in (0, 2, 3, 5, 257, 512, 1025):
        with _no_nodes(monkeypatch):
            found = at(m, 2)
        assert found == tuple(b._replace(derivation=None)
                              for mm, b in pairs(2, max(m, 3)) if mm == m)
    assert _state() == state
    cold = shape(pairs(5, 512))
    with _no_nodes(monkeypatch):
        at(300, 5)
    # a lookup leaves the proofs as they were
    assert shape(pairs(5, 512)) == cold
    assert at(400, 5) == tuple(b._replace(derivation=None)
                               for m, b in pairs(5, 400) if m == 400)
    assert _state() == state


def test_lookup_gates_only_the_steps_at_m(monkeypatch):
    calls = _counted_records(monkeypatch)
    # 10^12 + 1 is odd: no step reaches 10^12; both rounds reach 10^12 + 3
    for m, steps in ((10**12, []),
                     (10**12 + 3, [(1, (10**12 + 4) // 2 - 1),
                                   (2, (10**12 + 4) // 4 - 1)]),
                     (401, [(1, 200)]), (403, [(1, 201), (2, 100)])):
        calls[:] = []
        found = at(m, 3)
        assert calls == steps, m
        assert len(found) >= len(steps), m


def test_prove_builds_one_step_and_the_mains_below_it(monkeypatch):
    # at every m, `prove` gives the least bound of `at(m, e)` that its
    # filter leaves, the first of equal dims, with the derivation `pairs`
    # gives it, and None exactly where the filter leaves none; m = 7 is
    # round 2's ground, which weakens the PL seed (e = 1), the special
    # output (e = 2) or round 1's main at m = 7 (e >= 3)
    for e in range(1, 9):
        shape = _shapes()
        want = {(m, b): tree for m, b, tree in shape(pairs(e, 403))}
        for external in (False, True):
            for m in range(3, 404):
                least = min((b for b in at(m, e)
                             if external or not b.external),
                            key=lambda b: b.dim, default=None)
                got = prove(m, e, external)
                assert (got is None) == (least is None), (m, e, external)
                if got is not None:
                    [(_, bound, tree)] = shape([(m, got)])
                    assert bound == least, (m, e, external)
                    assert tree == want[m, least], (m, e, external)
    # at e = 1 the filter decides: round 2 rests on the external seed
    assert (prove(11, 1).dim, prove(11, 1, external=True).dim) == (43, 39)
    for e in (1, 2, 3):
        # where no step reaches m, nothing is proved and nothing gated
        with monkeypatch.context() as patch:
            calls = _counted_records(patch)
            assert prove(202, e, external=True) is None
        assert calls == []
        # m = 201 is reached by round 1 alone: its proof makes no round-2
        # node and well under half of the nodes of every pair up to 203
        full = pairs(e, 203)
        made = unique_nodes([prove(201, e).derivation])
        assert not any(n.rule_id.startswith("round2") for n in made)
        assert len(made) < len(unique_nodes(b.derivation for _, b in full)) / 2


def test_every_record_stands_on_a_record_it_names():
    # each record's prior names a record that `records` returns at that
    # step, whose dim its beta comes from; only round 1's ground and the
    # seeded weakening (e = 1) stand on no output
    for e in range(1, 11):
        named = {(r.mu, r.ell, r.rule_id): r for mu in (1, 2)
                 for ell in range(1, 1025)
                 for r in inductive.records(mu, ell, e)}
        unlinked = set()
        for key, record in named.items():
            if record.prior is None:
                unlinked.add(key)
            else:
                assert BETA_FROM_PRIOR.check(
                    record.beta, named[record.prior].dim), (e, key)
        assert unlinked == {(1, 1, "round1:base")} | (
            {(2, 1, "round2:base")} if e == 1 else set()), e


def test_round2_ground_is_stated_once(monkeypatch):
    # the weakening at e = 2 moved onto the seed, by the one statement of
    # what it stands on: the round-2 bounds turn external, and their proof
    # rests on the seed
    real = inductive._weakened
    monkeypatch.setattr(inductive, "_weakened",
                        lambda e: None if e == 2 else real(e))
    found = at(11, 2)
    assert [(b.rule_id, b.external) for b in found] == [
        ("round1", False), ("round2", True)]
    assert prove(11, 2).rule_id == "round1"
    proved = prove(11, 2, external=True)
    assert (proved.rule_id, proved.external) == ("round2", True)
    assert "axiom:pl-seed" in {n.rule_id
                               for n in unique_nodes([proved.derivation])}


def _bend(monkeypatch, at_e, key, **fields):
    """Wrap `records`, in `inductive` and in `proofs`, so that at e = at_e
    the record keyed (mu, ell, rule_id) = key has `fields` replaced."""
    real = inductive.records

    def bent(mu, ell, e):
        return tuple(r._replace(**fields)
                     if (e, mu, ell, r.rule_id) == (at_e, *key) else r
                     for r in real(mu, ell, e))
    monkeypatch.setattr(inductive, "records", bent)
    monkeypatch.setattr(proofs, "records", bent)


def test_a_weakening_weakens_the_output_it_stands_on(monkeypatch, capsys):
    # round 2's ground at e = 2 weakens the special output, R^26; a record
    # that says it weakens R^25 stops the proof at that link
    _bend(monkeypatch, 2, (2, 1, "round2:base"), beta=25)
    table = {r.name: r for r in verify.verify_rounds()}["table-regeneration"]
    assert not table.ok and table.detail.startswith(
        "first counterexample (2, 'round2:base weakens R^25"), table.line()
    assert cli.main(["derive", "--m", "11", "--e", "2"]) == 3
    assert capsys.readouterr().out == ""


def test_a_step_concludes_the_dim_of_its_record(monkeypatch, capsys):
    # round 1's main at m = 11 bent to R^44: the proof concludes R^44, and
    # the replay of its ambient sum 6 + 36 + 1 = 43 fails
    _bend(monkeypatch, 1, (1, 5, "round1:step"), dim=44)
    assert cli.main(["derive", "--m", "11", "--e", "1"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[:2] == [
        "best inductive upper bound for (m=11, e=1): R^44 (smooth)",
        "round1:step: L(m=11, e=1) embeds (smooth) in R^44"]
    assert "side-condition replay FAILED" in err


def test_package_has_no_global_statement():
    src = pathlib.Path(inductive.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global)
                       for node in ast.walk(tree)), path.name


def test_a_builder_keeps_no_derivation(capsys):
    # no lensbounds module keeps state: proofs, query, table, derive and
    # verify all leave every module's names and values as they were
    from lensbounds import automata, verify  # noqa: F401  imported lazily
    state = _state()
    pairs(3, 403)
    prove(403, 3)
    for argv in (("query", "--m", "403", "--e", "3", "--all"),
                 ("table", "--e", "3", "--max-m", "64", "--format", "jsonl"),
                 ("derive", "--m", "403", "--e", "3"),
                 ("verify", "all")):
        assert cli.main(list(argv)) == 0, argv
    capsys.readouterr()
    assert _state() == state
    # dropping the pairs frees their nodes
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        held_pairs = pairs(3, 803)
        held, _ = tracemalloc.get_traced_memory()
        del held_pairs
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - base > 512 * 1024, held - base
    assert left - base < 16 * 1024, left - base


def _diverge_at_25(monkeypatch):
    """Make the sharpened round-1 output at m = 25 (ell = 12) diverge from
    its closed form; returns the real check."""
    real = inductive._check_form

    def diverge(bound, expected, m, e):
        if (m, expected) == (25, 8 * 12 + 2):
            return real(bound, expected + 1, m, e)  # raises, naming m = 25
        return real(bound, expected, m, e)
    monkeypatch.setattr(inductive, "_check_form", diverge)
    return real


def test_builder_keeps_its_state_when_a_round_diverges(monkeypatch):
    # the sharpened round-1 output at m = 25 (ell = 12) diverges: the
    # lookup at 25 raises and leaves no state behind, and every other
    # lookup and proof is as it is without the divergence
    state = _state()
    shape = _shapes()
    real = _diverge_at_25(monkeypatch)
    with pytest.raises(RoundsDivergenceError, match=r"\(m=25, e=3\)"):
        at(25, 3)
    with pytest.raises(RoundsDivergenceError, match=r"\(m=25, e=3\)"):
        pairs(3, 40)
    diverged = at(23, 3), shape(pairs(3, 23)), at(41, 3)
    monkeypatch.setattr(inductive, "_check_form", real)
    assert _state() == state
    assert diverged == (at(23, 3), shape(pairs(3, 23)), at(41, 3))
    assert at(25, 3) == tuple(b._replace(derivation=None)
                              for m, b in pairs(3, 25) if m == 25)


def test_proof_layer_keeps_its_state_when_it_fails(monkeypatch):
    # building the feed of the sharpened output at m = 25 (ell = 12) fails:
    # neither `pairs` nor `prove` leaves state behind, and the proofs made
    # once the failure is gone are those made without it
    state = _state()

    def fail(record, e):
        if (record.mu, record.ell, record.lam) == (1, 12, 1):
            raise RuntimeError("off")
        return feed_node(record, e)
    monkeypatch.setattr(proofs, "feed_node", fail)
    with pytest.raises(RuntimeError):
        pairs(3, 40)
    with pytest.raises(RuntimeError):
        prove(25, 3)  # the sharpened output, the least at m = 25
    shape = _shapes()
    below = shape(pairs(3, 23))
    monkeypatch.setattr(proofs, "feed_node", feed_node)
    assert _state() == state
    assert below == shape(pairs(3, 23))
    assert shape([(25, prove(25, 3))]) == shape(
        (m, b) for m, b in pairs(3, 40)
        if (m, b.derivation.rule_id) == (25, "round1:sharp"))


def test_verify_rounds_checks_the_chain_below_m(monkeypatch):
    # m = 41 is reached by steps that read m = 25 only through its closed
    # form, so `at(41, 3)` gates no step at m = 25 and is unchanged by a
    # divergence there; `verify rounds`, on which the lookups rest, fails
    # and names it, and `at(25, 3)` itself raises
    want = at(41, 3)
    _diverge_at_25(monkeypatch)
    assert at(41, 3) == want
    with pytest.raises(RoundsDivergenceError):
        at(25, 3)
    results = {r.name: r for r in verify.verify_rounds()}
    table = results["table-regeneration"]
    assert not table.ok and "(m=25, e=1)" in table.detail, table.line()
    assert results["round-schema"].ok


def test_integer_pass_keeps_no_per_m_state():
    tracemalloc.start()
    try:
        for m in (50_000, 10**12 + 3):
            at(m, 3)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 64 * 1024, size
