"""Every verify scope must pass at its documented desk scale."""

from collections import Counter

import pytest

from lensbounds import cli, records, verify
from lensbounds.cohomology import steenrod_square
from lensbounds.inductive import derive_rounds
from lensbounds.records import DerivationNode, SideCondition, unique_nodes


@pytest.mark.parametrize("scope", sorted(verify.SCOPES))
def test_scope_passes(scope):
    results = verify.run_scope(scope)
    assert results
    for r in results:
        assert r.ok, r.line()


def test_unknown_scope():
    with pytest.raises(KeyError):
        verify.run_scope("everything")


def test_result_lines_have_counts():
    for r in verify.run_scope("lifting"):
        line = r.line()
        assert str(r.cases) in line and line.endswith("OK")


def test_rounds_output_is_pinned(capsys):
    assert cli.main(["verify", "rounds"]) == 0
    assert capsys.readouterr().out == (
        "table-regeneration: 3506 cases OK\n"
        "derivation-replay: 3506 cases OK\n"
        "boundary-gate-audit: 1096 cases OK\n"
        "milgram-small-mu: 8192 cases OK\n"
        "milgram-mu3-rarity: 4096 cases OK\n"
        "PASS: 5/5 checks, 20396 cases\n")


def test_cohomology_output_is_pinned(capsys):
    assert cli.main(["verify", "cohomology"]) == 0
    assert capsys.readouterr().out == (
        "ring-commutative-associative: 18912 cases OK\n"
        "cartan-formula: 374528 cases OK\n"
        "instability-and-top-square: 8048 cases OK\n"
        "sw-class-inverse: 3168 cases OK\n"
        "spin-double-derivation: 1539 cases OK\n"
        "PASS: 5/5 checks, 406195 cases\n")


def test_cartan_failure_names_the_first_counterexample(monkeypatch):
    # bend Sq^3(x*y^2) in the n=5, eps=1 ring; the first pair (u, v) in
    # basis order whose Cartan sum disagrees is x * y^2, whose own squares
    # are unbent.  The tuple is the one the per-(u, v, i) check reported.
    def bent(i, u):
        sq = steenrod_square(i, u)
        ring = u.ring
        if (ring.n, ring.epsilon, i) == (5, 1, 3) and u == ring.monomial(1, 2):
            return sq + ring.y(4)
        return sq

    monkeypatch.setattr(verify, "steenrod_square", bent)
    by_name = {r.name: r for r in verify.verify_cohomology()}
    assert by_name["cartan-formula"].line() == (
        "cartan-formula: 374528 cases FAIL  "
        "[first counterexample (5, 1, 'x', 'y^2', 3)]")
    assert all(r.ok for name, r in by_name.items() if name != "cartan-formula")


def test_cartan_squares_each_class_once_per_degree(monkeypatch):
    calls = Counter()

    def counted(i, u):
        calls[u, i] += 1  # a class hashes by its ring and its masks
        return steenrod_square(i, u)

    monkeypatch.setattr(verify, "steenrod_square", counted)
    assert verify._cartan_formula().ok
    (key, most), = calls.most_common(1)
    assert most == 1, (key, most)
    # 32 rings, at most 2n+3 distinct classes (the basis and zero) each
    assert len(calls) <= sum((2 * n + 3) * (2 * n + 2)
                             for n in range(1, 17) for _ in (0, 1))


def _rounds_roots(max_e=8, max_m=403):
    for e in range(1, max_e + 1):
        yield e, derive_rounds(e, max_m)


def test_replay_facts_count_a_shared_premise_on_every_path():
    for k, ok in ((0, True), (1, False)):
        # nu(2j+2) = nu(4) = 4*0 + 2, and the gate needs 2k+3 <= 8*0 + 2^2
        gate = SideCondition.make("boundary-radon", "gate",
                                  sigma=3, beta=3, j=1, k=k, a=0, b=2)
        shared = DerivationNode("shared", "shared", (), (gate,))
        top = DerivationNode("top", "top", (
            DerivationNode("left", "left", (shared,)),
            DerivationNode("right", "right", (shared,))))
        assert verify._replay_facts([top])[id(top)] == (ok, 2, ok)


def test_replay_failure_names_the_first_bound(monkeypatch):
    # fail one witness of a feeding premise in the middle of a chain: the
    # failure has to reach every conclusion above it, and the counterexample
    # is the first bound in derivation order that rests on it
    pairs = derive_rounds(1, 403)
    step = pairs[len(pairs) // 3][1].derivation
    node = next(p for p in step.premises if p.rule_id == "feeding")
    cond = next(c for c in node.side_conditions if c.kind == "feeding-ambient")
    predicate = records._REPLAY[cond.kind]
    monkeypatch.setitem(
        records._REPLAY, cond.kind,
        lambda v: v != cond.values and predicate(v))

    want = next((e, m, b.rule_id)
                for e, pairs in _rounds_roots() for m, b in pairs
                if not b.derivation.replay())

    by_name = {r.name: r for r in verify.verify_rounds()}
    replay = by_name["derivation-replay"]
    assert replay.line() == (
        f"derivation-replay: 3506 cases FAIL  [first counterexample {want}]")
    assert not by_name["boundary-gate-audit"].ok


def test_each_unique_node_is_replayed_once(monkeypatch):
    calls = 0

    def counted(predicate):
        def call(v):
            nonlocal calls
            calls += 1
            return predicate(v)
        return call

    for kind, predicate in list(records._REPLAY.items()):
        monkeypatch.setitem(records._REPLAY, kind, counted(predicate))
    assert all(r.ok for r in verify.verify_rounds())
    want = sum(len(n.side_conditions)
               for _, pairs in _rounds_roots()
               for n in unique_nodes(b.derivation for _, b in pairs))
    assert calls == want
