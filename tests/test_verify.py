"""Every verify scope must pass at its documented desk scale."""

import pathlib
import tracemalloc
from collections import Counter

import pytest

from lensbounds import (automata, catalog, cli, cohomology, inductive,
                        lifting, proofs, verify)
from lensbounds.cohomology import Mod2Class, multiply, steenrod_square
from lensbounds.dyadic import nu, radon_pair
from lensbounds.lifting import (davis_mahowald_check, feed_forms,
                               sharpening_drop)
from lensbounds.proofs import BOUNDARY_RADON, pairs
from lensbounds.records import (ConditionKind, DerivationNode,
                                RoundsDivergenceError, SideCondition,
                                on_paths, unique_nodes)
from test_inductive import _state

# the stdout of `verify all`: each scope's check lines, in scope order, then
# the PASS line
GOLDEN = (pathlib.Path(__file__).parent / "golden" / "verify_all.txt"
          ).read_text().splitlines()
# the number of checks in each scope, so each scope has its own slice
CHECKS = {"dyadic": 8, "cohomology": 5, "lifting": 4, "rounds": 6,
          "bounds": 6}


def _golden_lines(scope):
    """The golden lines of `scope`'s checks."""
    start = sum(CHECKS[s] for s in list(CHECKS)[:list(CHECKS).index(scope)])
    return GOLDEN[start:start + CHECKS[scope]]


def test_golden_has_every_scope_and_the_pass_line():
    assert list(CHECKS) == list(verify.SCOPES)
    assert len(GOLDEN) == sum(CHECKS.values()) + 1
    assert GOLDEN[-1] == "PASS: 29/29 checks, 484379 cases"


@pytest.mark.parametrize("scope", sorted(verify.SCOPES))
def test_scope_passes(scope):
    results = verify.run_scope(scope)
    assert results
    for r in results:
        assert r.ok, r.line()
    assert [r.line() for r in results] == _golden_lines(scope)


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
        "round-schema: 264 cases OK\n"
        "milgram-small-mu: 8192 cases OK\n"
        "milgram-mu3-rarity: 4096 cases OK\n"
        "PASS: 6/6 checks, 20660 cases\n")


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


def _bend_radon_pair(c):
    # b out of 0..3 at c = 5 and c = 9
    a, b = radon_pair(c)
    return (a, b + 4) if c in (5, 9) else (a, b)


def _bend_davis_mahowald_gate(ell):
    ok, nu1, nu2 = davis_mahowald_check(ell)
    return (not ok if ell in (10, 12) else ok), nu1, nu2


def _bend_davis_mahowald_gate_and_form(ell):
    # ell = 300, past the concrete N = 64 check, fails both conditions
    ok, nu1, nu2 = davis_mahowald_check(ell)
    if ell == 300:
        return not ok, nu1 + 1, nu2
    return ok, nu1, nu2


@pytest.mark.parametrize("scope, name, bent, line", [
    ("dyadic", "radon_pair", _bend_radon_pair,
     "radon-pair-roundtrip: 4097 cases FAIL  [first counterexample (5,)]"),
    ("lifting", "davis_mahowald_check", _bend_davis_mahowald_gate,
     "davis-mahowald-gate: 4095 cases FAIL  "
     "[first counterexample (10, 'gate')]"),
    ("lifting", "davis_mahowald_check", _bend_davis_mahowald_gate_and_form,
     "davis-mahowald-gate: 4095 cases FAIL  "
     "[first counterexample (300, 'closed-form')]"),
], ids=["radon-pair", "davis-mahowald-gate", "davis-mahowald-closed-form"])
def test_a_failing_check_counts_every_case_and_names_the_first(
        monkeypatch, scope, name, bent, line):
    # the line counts every case, also after a failure, and names the first
    # failing case by the first condition it fails
    monkeypatch.setattr(verify, name, bent)
    by_name = {r.name: r for r in verify.run_scope(scope)}
    check = line.split(":")[0]
    assert by_name[check].line() == line
    assert all(r.ok for r in by_name.values() if r.name != check)


def _bend_codim2(real):
    # the codim2 lower bound of L^81(8) far above its upper bounds
    def bent(space, conjectural=False):
        for b in real(space, conjectural):
            yield (b._replace(dim=10**6) if b.rule_id == "codim2"
                   and (space.m, space.e) == (40, 3) else b)
    return bent


def _bend_nu_binom_sym(real):
    # one too high at a = 4(ell + 1) for ell = 300, off the Davis-Mahowald
    # closed form
    return lambda a, b: real(a, b) + 1 if a == 4 * 301 else real(a, b)


@pytest.mark.parametrize("scope, target, name, bend, failed", [
    ("bounds", catalog, "lower_bounds", _bend_codim2, {
        "soundness-sweep": "soundness-sweep: 554 cases FAIL  [first "
        "counterexample internal inconsistency for L^81(8): lower 1000000 "
        "(codim2) > upper 161 (hhmp)]"}),
    ("lifting", lifting, "nu_binom_sym", _bend_nu_binom_sym, {
        name: f"{name}: 298 cases FAIL  [first counterexample "
        "nu(C(p, 4l-4)) = 4 off its closed form at ell=300]"
        for name in ("davis-mahowald-gate", "sharper-lifting-levels")}),
    # verify holds its own tangential_sw_class, so only is_spin sees the
    # bend, and the other cohomology checks still pass
    ("cohomology", cohomology, "tangential_sw_class",
     lambda real: lambda ring: ring.one() + ring.y(1), {
         "spin-double-derivation": "spin-double-derivation: 3 cases FAIL  "
         "[first counterexample spin criteria disagree at m=1, e=1: w2 "
         "route False, Sq^2 route True]"}),
], ids=["inconsistent-bounds", "rounds-divergence", "spin-criteria"])
def test_an_engine_error_fails_its_check_not_the_command(
        capsys, monkeypatch, scope, target, name, bend, failed):
    # the engine raises before the check can compare what it checks; the
    # check fails with the error's message, counts the cases before it, and
    # every other check still runs
    monkeypatch.setattr(target, name, bend(getattr(target, name)))
    assert cli.main(["verify", scope]) == cli.EXIT_VERIFY
    *lines, summary = capsys.readouterr().out.splitlines()
    want = [failed.get(line.split(":")[0], line)
            for line in _golden_lines(scope)]
    assert lines == want
    assert summary.startswith(
        f"FAIL: {len(want) - len(failed)}/{len(want)} checks, ")


def _bent_edge(identity, at, to=None):
    """`identity` with the edge `at` (state, digits) sent to state `to`, or,
    without `to`, with its first term, and so its weight, one higher."""
    def step(state, digits):
        nxt, terms = identity.step(state, digits)
        if (state, digits) == at:
            if to is None:
                return nxt, (terms[0] + 1, *terms[1:])
            return to, terms
        return nxt, terms
    return identity._replace(step=step)


# each automaton's check
_PROOFS = {"KUMMER": "kummer-digit-form-all-N",
           "ALPHA_PRED": "alpha-digit-identity-all-N",
           "POW_MINUS": "alpha-symbolic-all-N",
           "BINOM_POW_MINUS": "nu-binom-symbolic-all-N"}


@pytest.mark.parametrize("attr, at, to, detail", [
    # the start's all-zero edge one higher: it is a loop, so its own check
    # fails
    ("KUMMER", (0, (0, 0)), None,
     "134 cases FAIL  [first failing edge 0 -(0, 0)-> 0: "
     "potential 0 + weight 1 != 0]"),
    ("ALPHA_PRED", ((1, 1), (0,)), None,
     "130 cases FAIL  [first failing edge (1, 1) -(0,)-> (1, 1): "
     "potential 0 + weight 1 != 0]"),
    ("POW_MINUS", ((0, 1), (0,)), None,
     "130 cases FAIL  [first failing edge (0, 1) -(0,)-> (0, 1): "
     "potential 0 + weight 1 != 0]"),
    ("BINOM_POW_MINUS", ((0, 0, 0, 1, 0), (0, 0)), None,
     "142 cases FAIL  [first failing edge (0, 0, 0, 1, 0) -(0, 0)-> "
     "(0, 0, 0, 1, 0): potential 0 + weight 1 != 0]"),
    # the same edge sent elsewhere: a spurious carry, a - 1's borrow
    # dropped at its first digit, a spurious borrow in 0 - a, and a - 1's
    # borrow dropped in the binomial's automaton
    ("KUMMER", (0, (0, 0)), 1,
     "134 cases FAIL  [first failing edge 0 -(1, 1)-> 1: "
     "potential 0 + weight -1 != 0]"),
    ("ALPHA_PRED", ((1, 1), (0,)), (0, 0),
     "130 cases FAIL  [first failing edge (1, 1) -(1,)-> (0, 0): "
     "potential 0 + weight -1 != 0]"),
    ("POW_MINUS", ((0, 1), (0,)), (1, 1),
     "132 cases FAIL  [first failing edge (1, 1) -(0,)-> (1, 1): "
     "potential 0 + weight 1 != 0]"),
    ("BINOM_POW_MINUS", ((0, 0, 0, 1, 0), (0, 0)), (0, 0, 0, 0, 0),
     "154 cases FAIL  [first failing edge (0, 1, 1, 0, 0) -(0, 0)-> "
     "(0, 1, 1, 0, 0): potential 1 + weight 1 != 1]"),
    # the constant one higher
    ("KUMMER", None, None,
     "134 cases FAIL  [first failing accepting state 0: "
     "potential 0 != constant 1]"),
    ("ALPHA_PRED", None, None,
     "130 cases FAIL  [first failing accepting state (0, 0): "
     "potential -1 != constant 0]"),
    ("POW_MINUS", None, None,
     "130 cases FAIL  [first failing accepting state (1, 0): "
     "potential 0 != constant 1]"),
    ("BINOM_POW_MINUS", None, None,
     "142 cases FAIL  [first failing accepting state (1, 0, 0, 0, 0): "
     "potential 0 != constant 1]"),
])
def test_a_bent_automaton_fails_its_proof(monkeypatch, attr, at, to, detail):
    # the edge `at` (state, digits) one higher, or sent to state `to`; with
    # no edge, the constant one higher
    identity = getattr(automata, attr)
    if at is None:
        bent = identity._replace(constant=identity.constant + 1)
    else:
        bent = _bent_edge(identity, at, to)
    monkeypatch.setattr(automata, attr, bent)
    check = _PROOFS[attr]
    by_name = {r.name: r for r in verify.run_scope("dyadic")}
    assert by_name[check].line() == f"{check}: {detail}"
    assert all(r.ok for r in by_name.values() if r.name != check)


def test_a_proof_with_no_reachable_accepting_state_fails(monkeypatch):
    # an automaton that accepts no word proves nothing; its inputs are
    # counted, and no edge is
    monkeypatch.setattr(automata, "KUMMER",
                        automata.KUMMER._replace(accepting=(2,)))
    (kummer,) = [r for r in verify.verify_dyadic()
                 if r.name == "kummer-digit-form-all-N"]
    assert kummer.line() == ("kummer-digit-form-all-N: 126 cases FAIL  "
                             "[no accepting state is reachable]")


def test_a_proof_is_tied_to_the_package(monkeypatch):
    # a bend the proof cannot see (every weight of the 2^N - a automaton is
    # 0, so any transition between its live states keeps the identity) is
    # caught by the inputs: a = 2 at N = 2 now counts alpha(2^2 - 2) = 1 as
    # 0 and alpha(a - 1) = 1 as 2
    monkeypatch.setattr(automata, "POW_MINUS", _bent_edge(
        automata.POW_MINUS, ((0, 1), (0,)), (1, 0)))
    (line,) = [r.line() for r in verify.verify_dyadic()
               if r.name == "alpha-symbolic-all-N"]
    assert line == ("alpha-symbolic-all-N: 130 cases FAIL  [first failing "
                    "input N=2 (2,): automaton (1, 0) (0, 2, 2), "
                    "package ({1}, {2}, {1})]")


def _cartan_line(monkeypatch, name, bent) -> str:
    """The cartan-formula line with verify's `name` function bent."""
    monkeypatch.setattr(verify, name, bent)
    return verify._cartan_formula(list(verify._rings())).line()


def test_cartan_catches_an_off_degree_square(monkeypatch):
    # Sq^3 returns Sq^2's value, one degree low; Sq^3(y) = y^2 is the first
    # nonzero one, in the n = 2 ring
    assert _cartan_line(
        monkeypatch, "steenrod_square",
        lambda i, u: steenrod_square(2 if i == 3 else i, u)) == (
        "cartan-formula: 374528 cases FAIL  "
        "[first counterexample (2, 0, 'y', 3, 'off-degree')]")


def test_cartan_catches_a_product_without_x_squared(monkeypatch):
    # drop the epsilon * x^2 = y term of the product for n >= 9: then
    # x * x = 0, but Sq^1(x) Sq^1(x) = y^2 = Sq^2(x * x) should hold
    def dropped(u, v):
        ring = u.ring
        uv = multiply(u, v)
        if ring.n < 9 or not ring.epsilon:
            return uv
        # x*y^j times x*y^k adds y^(j+k+1); take those terms back out
        x_terms = multiply(Mod2Class(ring, u.odd, 0), Mod2Class(ring, v.odd, 0))
        return uv + multiply(x_terms, ring.y())

    assert _cartan_line(monkeypatch, "multiply", dropped) == (
        "cartan-formula: 374528 cases FAIL  "
        "[first counterexample (9, 1, 'x', 'x', 2)]")


def test_cartan_names_a_product_off_its_degree(monkeypatch):
    # x * y = y^2 in the n = 2, eps = 0 ring: degree 4, not 3
    def bent(u, v):
        ring = u.ring
        if (ring.n, ring.epsilon) == (2, 0) and (u, v) == (ring.x(), ring.y()):
            return ring.y(2)
        return multiply(u, v)

    assert _cartan_line(monkeypatch, "multiply", bent) == (
        "cartan-formula: 374528 cases FAIL  "
        "[first counterexample (2, 0, 'x', 'y', 'off-degree')]")


def test_cartan_catches_an_inhomogeneous_square_that_cancels(monkeypatch):
    # add y^4 to Sq^1(x*y^2) (degree 6 only) and to Sq^3(x*y^2) (which is
    # zero, and degree 8) in the n = 5, eps = 1 ring: the total square of
    # x*y^2 = x * y^2 is unchanged, so only the degree check sees it
    def bent(i, u):
        sq = steenrod_square(i, u)
        ring = u.ring
        if ((ring.n, ring.epsilon) == (5, 1) and i in (1, 3)
                and u == ring.monomial(1, 2)):
            return sq + ring.y(4)
        return sq

    assert _cartan_line(monkeypatch, "steenrod_square", bent) == (
        "cartan-formula: 374528 cases FAIL  "
        "[first counterexample (5, 1, 'x*y^2', 1, 'off-degree')]")


def test_cartan_squares_each_class_once_per_degree(monkeypatch):
    calls = Counter()
    products = 0

    def counted(i, u):
        calls[u, i] += 1  # a class hashes by its ring and its masks
        return steenrod_square(i, u)

    def counted_multiply(u, v):
        nonlocal products
        products += 1
        return multiply(u, v)

    monkeypatch.setattr(verify, "steenrod_square", counted)
    monkeypatch.setattr(verify, "multiply", counted_multiply)
    assert all(r.ok for r in verify.verify_cohomology())
    (key, most), = calls.most_common(1)
    assert most == 1, (key, most)
    # 32 rings, 2n+3 classes (the basis and zero) each, each squared in
    # degrees 0..2n+2 once, for the three checks that read them
    assert sum(calls.values()) == sum((2 * n + 3) ** 2
                                      for n in range(1, 17) for _ in (0, 1))
    # each ring's products are formed once, not once per check
    assert products < 35000, products


def _rounds_roots(max_e=8, max_m=403):
    for e in range(1, max_e + 1):
        yield e, pairs(e, max_m)


def test_replay_facts_count_a_shared_premise_on_every_path():
    for k, ok in ((0, True), (1, False)):
        # nu(2j+2) = nu(4) = 4*0 + 2, and the gate needs 2k+3 <= 8*0 + 2^2
        gate = SideCondition(BOUNDARY_RADON, (3, 3, 1, k, 0, 2))
        shared = DerivationNode("shared", "shared", (), (gate,))
        top = DerivationNode("top", "top", (
            DerivationNode("left", "left", (shared,)),
            DerivationNode("right", "right", (shared,))))
        assert top.replay({}) is ok
        hits = on_paths([top], lambda c: c.kind is BOUNDARY_RADON)
        assert hits[id(top)] == 2


def test_replay_failure_names_the_first_bound(monkeypatch):
    # fail one witness of a feeding premise in the middle of a chain: the
    # failure has to reach every conclusion above it, and the counterexample
    # is the first bound in derivation order that rests on it
    proved = pairs(1, 403)
    step = proved[len(proved) // 3][1].derivation
    node = next(p for p in step.premises if p.rule_id == "feeding")
    cond = next(c for c in node.side_conditions
                if c.kind is proofs.FEEDING_AMBIENT)
    predicate = cond.kind.check
    monkeypatch.setattr(proofs, "FEEDING_AMBIENT", cond.kind._replace(
        check=lambda *args: args != cond.args and predicate(*args)))

    want = next((e, m, b.derivation.rule_id)
                for e, proved in _rounds_roots() for m, b in proved
                if not b.derivation.replay())

    by_name = {r.name: r for r in verify.verify_rounds()}
    replay = by_name["derivation-replay"]
    assert replay.line() == (
        f"derivation-replay: 3506 cases FAIL  [first counterexample {want}]")
    assert not by_name["boundary-gate-audit"].ok


# the names of the side-condition kinds `proofs` defines
KINDS = sorted(name for name, value in vars(proofs).items()
               if isinstance(value, ConditionKind))


@pytest.mark.parametrize("name", KINDS)
def test_every_kind_is_replayed(monkeypatch, name):
    # a kind whose check always fails fails the replay of the rounds; the
    # ten names are twelve kinds, beta-from-prior having three texts
    assert len(KINDS) == 12
    assert len({getattr(proofs, kind).name for kind in KINDS}) == 10
    monkeypatch.setattr(proofs, name, getattr(proofs, name)._replace(
        check=lambda *args: False))
    by_name = {r.name: r for r in verify.verify_rounds()}
    assert not by_name["derivation-replay"].ok
    assert by_name["table-regeneration"].ok


def test_each_unique_node_is_replayed_once(monkeypatch):
    calls = 0

    def counted(predicate):
        def call(*args):
            nonlocal calls
            calls += 1
            return predicate(*args)
        return call

    for name in KINDS:
        kind = getattr(proofs, name)
        monkeypatch.setattr(proofs, name,
                            kind._replace(check=counted(kind.check)))
    assert all(r.ok for r in verify.verify_rounds())
    want = sum(len(n.side_conditions)
               for _, proved in _rounds_roots()
               for n in unique_nodes(b.derivation for _, b in proved))
    assert calls == want


def test_rounds_gate_each_step_once(monkeypatch):
    calls = 0
    gate = inductive.radon_gate

    def counted(*args):
        nonlocal calls
        calls += 1
        return gate(*args)

    monkeypatch.setattr(inductive, "radon_gate", counted)
    assert all(r.ok for r in verify.verify_rounds())
    # the walks gate each of the 3,498 steps up to m = 403 once, and
    # round-schema gates the grounds once more: round 1's for each e = 1..10,
    # and round 2's special step for e = 1, 2
    assert calls == 3498 + 10 + 2


def test_rounds_keep_one_e_alive_at_a_time():
    state = _state()
    tracemalloc.start()
    try:
        assert all(r.ok for r in verify.verify_rounds())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one e's derivations take about 1.7 MB; all eight took about 14 MB
    assert peak < 4 * 1024 * 1024, peak
    # and every module is left as it was
    assert _state() == state


def test_round_schema_is_the_records_of_every_step():
    # the engine's forms, which round-schema proves, evaluated at ell are the
    # named fields of each record `inductive.records` gives, for e = 1..10,
    # both rounds and ell = 2..4096; each stands on the main at ell - 1
    def at(form, ell):
        return form[0] * ell + form[1]
    for e in range(1, 11):
        for mu in (1, 2):
            forms = [(inductive.step_forms(mu, lam, e), feed_forms(mu, lam))
                     for lam in (0, 1)]
            for ell in range(2, 4097):
                want = []
                for lam in range(1 + sharpening_drop(ell)):
                    (sigma, j, beta, dim), (n, m, d) = forms[lam]
                    j, beta = at(j, ell), at(beta, ell)
                    assert at(n, ell) == j == 2**mu * ell - 1
                    radon = (() if sigma + beta > 4 * j + 2
                             else radon_pair(nu(2 * j + 2)))
                    want.append(inductive.Step(
                        rule_id=f"round{mu}:{'sharp' if lam else 'step'}",
                        dim=at(dim, ell), radon=radon, beta=beta,
                        feed=2 * at(m, ell) + at(d, ell) + 1, mu=mu, ell=ell,
                        lam=lam, alpha=4 * 2**mu - 2, sigma=sigma,
                        prior=(mu, ell - 1,
                               f"round{mu}:{'base' if ell == 2 else 'step'}")))
                assert inductive.records(mu, ell, e) == tuple(want), \
                    (e, mu, ell)


def _schema_line(monkeypatch, target, name, bent) -> str:
    monkeypatch.setattr(target, name, bent)
    return verify._tally("round-schema", verify._round_schema()).line()


def test_round_schema_fails_on_a_bent_sigma(monkeypatch):
    # sigma = 3 for (k, e) = (3, 3) makes round 2's main gate a boundary
    # one, which the Hurwitz-Radon count at nu(2j + 2) = 3 does not pass
    real = inductive.sections_table
    assert _schema_line(
        monkeypatch, inductive, "sections_table",
        lambda k, e: 3 if (k, e) == (3, 3) else real(k, e)) == (
        "round-schema: 264 cases FAIL  [first counterexample "
        "(3, 2, 0, 'gate')]")


def test_round_schema_fails_on_a_bent_radon_threshold(monkeypatch):
    # both boundaries of round 2's sharpened output are tight at the least
    # valuation (9 <= 9 and 8 <= 8): one less fails them for every e
    real = verify.hurwitz_radon
    line = _schema_line(monkeypatch, verify, "hurwitz_radon",
                        lambda t: real(t) - 1)
    assert line == ("round-schema: 264 cases FAIL  [first counterexample "
                    "(1, 2, 1, 'gate')]")


def test_round_schema_fails_on_a_bent_ground(monkeypatch):
    real = inductive.records
    assert _schema_line(
        monkeypatch, inductive, "records",
        lambda mu, ell, e: real(mu, ell, e)[1:] if (mu, e) == (2, 2)
        else real(mu, ell, e)) == (
        "round-schema: 264 cases FAIL  [first counterexample "
        "(2, 2, 'ground')]")


def test_round_schema_fails_on_a_bent_engine_form(monkeypatch):
    # round 2's beta one lower in the engine's own forms makes its main gate
    # a boundary one, which the Hurwitz-Radon count at nu(2j + 2) = 3 (ell
    # odd) does not pass: round-schema fails and names the case, and the
    # engine's records fail too, with nothing at ell = 3 and an output one
    # lower at ell = 2, where nu(2j + 2) = 4 passes the boundary gate
    real = inductive.step_forms

    def bent(mu, lam, e):
        sigma, j, (b1, b0), dim = real(mu, lam, e)
        return sigma, j, (b1, b0 - (mu == 2)), dim
    assert _schema_line(monkeypatch, inductive, "step_forms", bent) == (
        "round-schema: 264 cases FAIL  [first counterexample "
        "(1, 2, 0, 'gate')]")
    for m, got in ((11, "R\\^41"), (15, "nothing")):
        with pytest.raises(RoundsDivergenceError,
                           match=rf"\(m={m}, e=3\): .* derived {got}$"):
            inductive.records(2, (m + 1) // 4 - 1, 3)


def test_round_schema_fails_on_radon_steps_that_do_not_rise(monkeypatch):
    assert _schema_line(monkeypatch, verify, "radon_pair",
                        lambda c: (0, 0)) == (
        "round-schema: 264 cases FAIL  [first counterexample "
        "('radon-steps', 0)]")
