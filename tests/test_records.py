import copy
from collections import Counter

import pytest

from lensbounds.proofs import (AMBIENT_SUM, BOUNDARY_RADON, FEED_WITHIN,
                               SECTIONS_EXCEED)
from lensbounds.records import (Bound, Category, ConditionKind,
                                DerivationNode, Direction, LensSpace,
                                SideCondition, metastable_smoothable,
                                unique_nodes)


def test_side_condition_replay():
    good = SideCondition(SECTIONS_EXCEED, (2, 5, 1))
    assert good.replay()
    bad = SideCondition(SECTIONS_EXCEED, (1, 5, 1))
    assert not bad.replay()


def test_hand_made_side_condition_keeps_its_fields():
    # a kind's fields are its check's parameters, in order, and its text is
    # formatted from the values in that order
    assert FEED_WITHIN.fields == ("feed", "sigma", "beta")
    kind = ConditionKind("any", lambda y, x: True, lambda y, x: f"{y} {x}")
    assert kind.fields == ("y", "x")
    assert SideCondition(kind, (1, 2)).text == "1 2"
    assert copy.deepcopy(kind) == kind
    cond = SideCondition(FEED_WITHIN, (21, 10, 15))
    assert cond.text == "feeding ambient 21 fits inside R^(sigma+beta) = R^25"
    assert cond.values == {"feed": 21, "sigma": 10, "beta": 15}
    assert list(cond.values) == ["feed", "sigma", "beta"]
    assert cond.replay()
    assert cond == SideCondition(FEED_WITHIN, (21, 10, 15))
    assert copy.deepcopy(cond) == cond


def test_replay_catches_tampered_witness():
    cond = SideCondition(BOUNDARY_RADON, (3, 11, 3, 1, 1, 1))
    # nu(8) = 3 decomposes as (0, 3), not (1, 1)
    assert not cond.replay()


def test_derivation_tree_serialization():
    leaf = DerivationNode("axiom:igniting", "base case")
    cond = SideCondition(AMBIENT_SUM, (5, 5, 11))
    root = DerivationNode("round1:base", "conclusion", (leaf,), (cond,))
    lines = root.to_lines()
    assert lines[0].startswith("round1:base")
    assert any(line.strip().startswith("|") for line in lines)
    assert lines[-1].strip().startswith("axiom:igniting")
    d = root.to_dict()
    assert d["rule"] == "round1:base"
    assert d["premises"][0]["rule"] == "axiom:igniting"
    assert d["side_conditions"][0] == {
        "kind": "ambient-sum", "witness": {"alpha": 5, "beta": 5, "dim": 11},
        "text": "ambient = alpha + beta + 1 = 5+5+1 = 11"}
    assert root.replay()
    assert [n.rule_id for n in unique_nodes([root])] == [
        "axiom:igniting", "round1:base"]


def test_roots_sharing_a_memo_replay_each_node_once():
    checks = Counter()

    def check(name):
        checks[name] += 1
        return True
    kind = ConditionKind("counted", check, str)
    base = DerivationNode("base", "base", (),
                          (SideCondition(kind, ("base",)),))
    mid = DerivationNode("mid", "mid", (base,),
                         (SideCondition(kind, ("mid",)),))
    left = DerivationNode("left", "left", (mid, base))
    right = DerivationNode("right", "right", (mid,))
    memo = {}
    assert left.replay(memo) and right.replay(memo)
    assert checks == {"base": 1, "mid": 1}
    assert set(memo) == {id(n) for n in (base, mid, left, right)}
    # a replay given no memo also checks each shared node once
    checks.clear()
    assert DerivationNode("top", "top", (left, right)).replay()
    assert checks == {"base": 1, "mid": 1}


def test_unique_nodes_lists_a_shared_premise_once():
    base = DerivationNode("axiom:base", "base")
    left = DerivationNode("left", "left", (base,))
    right = DerivationNode("right", "right", (base,))
    top = DerivationNode("top", "top", (left, right))
    order = unique_nodes([top, right])
    assert [n.rule_id for n in order] == ["axiom:base", "left", "right", "top"]
    position = {id(n): i for i, n in enumerate(order)}
    for n in order:
        assert all(position[id(p)] < position[id(n)] for p in n.premises)
    assert unique_nodes([]) == []


def test_unique_nodes_walks_deep_chains():
    node = DerivationNode("axiom:base", "base")
    chain = [node]
    for i in range(20_000):
        node = DerivationNode("step", f"step {i}", (node,))
        chain.append(node)
    assert [id(n) for n in unique_nodes([node])] == [id(n) for n in chain]


def test_bound_display_and_validation():
    b = Bound(Direction.LOWER, 10, Category.SMOOTH, "euler-class", "cite")
    assert "emb >= 10" in str(b)
    b = Bound(Direction.UPPER, 26, Category.TOPOLOGICAL, "round2", "cite",
              external=True)
    assert "emb <= 26" in str(b) and "[external]" in str(b)
    with pytest.raises(ValueError):
        Bound(Direction.LOWER, -1, Category.SMOOTH, "x", "y")


def test_metastable_boundary():
    # boundary case 2a = 3(d+1) counts as inside
    assert metastable_smoothable(15, 24)
    assert not metastable_smoothable(15, 23)


def test_lens_space_str():
    assert str(LensSpace(0, 1)) == "L^1(2)"
    assert str(LensSpace(7, 2, 3)) == "L^15(12)"
