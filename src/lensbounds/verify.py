"""Desk-scale invariant sweeps, grouped by scope for the verify subcommand.

Each check reports its case count and, on failure, its first
counterexample.  Most checks are a generator that does all of the check's
work and yields one outcome per case: None where the case passes, and the
counterexample where it fails.  `_tally` runs it to the end, so every case
is evaluated and counted, also after a failure, and keeps the first
counterexample; an engine error that the generator raises fails its check,
not the command.  The four digit-identity proofs, the Cartan check (which
counts every degree of a pair as a case), the rounds' replay (three results
from one set of proofs) and the Milgram density report through `_result` or
`CheckResult` themselves.

The dyadic scope proves its four digit identities for every input, with
the automata of `automata`, and ties each automaton to the package's
functions on seeded random inputs.  The cohomology scope forms each ring's
arithmetic once (`_rings`): its classes, their products and their squares,
which the ring laws, the Cartan formula and instability all read.  The
rounds scope's round-schema proves the engine's own linear forms of each
step (`inductive.step_forms`, `lifting.feed_forms`), those
`inductive.records` evaluates, against closed forms recomputed here
(`_closed_form`, `_expected_rounds`).  Everything
that pins down the exact public API (arbitrary-precision oracles, round
replay, report soundness) runs through the real functions.  No scope
imports numpy.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from collections.abc import Callable, Iterable

from . import catalog, inductive
from .cohomology import (CohomologyRing, Mod2Class, is_spin, multiply,
                         normal_sw_class, steenrod_square,
                         tangential_sw_class)
from .dyadic import (alpha, hurwitz_radon, nu, nu_binom, nu_binom_sym,
                     radon_pair)
from .inductive import delta_e, milgram_condition
from .lifting import (davis_mahowald_check, embedding_gate, feed_forms,
                      feeding_params, sharpening_drop, sharper_lifting_level)
from .records import EngineError, LensSpace, RoundsDivergenceError, on_paths


class CheckResult(namedtuple("CheckResult", "name cases ok detail",
                             defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        status = "OK" if self.ok else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{self.name}: {self.cases} cases {status}{tail}"


class ScopeTiming(namedtuple("ScopeTiming", "scope seconds cases")):
    __slots__ = ()

    def line(self) -> str:
        rate = self.cases / self.seconds if self.seconds > 0 else float("inf")
        return (f"timing {self.scope}: {self.seconds:.3f} s, "
                f"{self.cases} cases, {rate:.0f} cases/s")


def _result(name: str, cases: int, first_bad) -> CheckResult:
    return CheckResult(name, cases, first_bad is None,
                       "" if first_bad is None else f"first counterexample {first_bad}")


def _tally(name: str, outcomes: Iterable) -> CheckResult:
    """The result of a check that yields one outcome per case: None where
    the case passes, its counterexample where it fails.

    An engine error (a lower bound above an upper one, a value off its
    closed form, or spin criteria that disagree) ends the check, which counts the cases before it and fails
    with the error's message as its first counterexample, unless it found
    one earlier; the other checks still run."""
    bad = None
    cases = 0
    try:
        for outcome in outcomes:
            cases += 1
            if bad is None:
                bad = outcome
    except EngineError as exc:
        bad = bad or str(exc)
    return _result(name, cases, bad)


# --- dyadic ----------------------------------------------------------------

def _digit_identity(name: str, identity, sample) -> CheckResult:
    """`identity` proved for every input, then run on seeded random inputs
    of N = 1..63 digits, two for each N: `sample(rng, N)` gives the inputs
    and, for each term, the set of the package's values for it, and the
    run must accept and match every one.  The cases are the live edges
    checked plus the inputs run; a failing proof is reported first."""
    proof = identity.prove()
    rng = random.Random(63)
    runs = 0
    bad = None
    for n in range(1, 64):
        for _ in range(2):
            inputs, want = sample(rng, n)
            state, totals = identity.run(inputs, n)
            runs += 1
            if bad is None and (state not in identity.accepting or any(
                    {t} != w for t, w in zip(totals, want))):
                bad = (f"first failing input N={n} {inputs}: automaton "
                       f"{state} {totals}, package {want}")
    failure = proof.failure or bad
    return CheckResult(name, proof.edges + runs, failure is None,
                       failure or "")


def verify_dyadic() -> list[CheckResult]:
    # the digit identities' automata are imported here, so that only this
    # scope loads them; they are read as module attributes, so that a test
    # can bend one
    from . import automata

    def kummer(rng, n):
        s = rng.randrange(1 << n)
        b = rng.randrange(s + 1)
        return (b, s - b), ({nu_binom(s, b)}, {alpha(b)}, {alpha(s - b)},
                            {alpha(s)})

    def alpha_pred(rng, n):
        a = rng.randrange(1, 1 << n)
        return (a,), ({alpha(a - 1)}, {alpha(a)}, {nu(a)})

    def pow_minus(rng, n):
        a = rng.randrange(1, 1 << n)
        return (a,), ({alpha((1 << n) - a)}, {n}, {alpha(a - 1)})

    def binom_pow_minus(rng, n):
        a = rng.randrange(1, 1 << n)
        b = rng.randrange((1 << n) - a + 1)
        return (a, b), ({nu_binom((1 << n) - a, b), nu_binom_sym(a, b)},
                        {alpha(b)}, {alpha(a - 1)}, {alpha(a + b - 1)})

    out = [_digit_identity("kummer-digit-form-all-N", automata.KUMMER, kummer),
           _digit_identity("alpha-digit-identity-all-N", automata.ALPHA_PRED,
                           alpha_pred),
           _digit_identity("alpha-symbolic-all-N", automata.POW_MINUS,
                           pow_minus),
           _digit_identity("nu-binom-symbolic-all-N", automata.BINOM_POW_MINUS,
                           binom_pow_minus)]

    # exact API against directly factored binomials (small exhaustive)
    def nu_binom_vs_factored():
        for a in range(129):
            for b in range(a + 1):
                c = math.comb(a, b)
                yield (a, b) if nu_binom(a, b) != (c & -c).bit_length() - 1 else None

    # kernel/API agreement on random points
    def kummer_carries():
        rng = random.Random(7)
        for _ in range(2000):
            a = rng.randrange(1, 1 << 40)
            b = rng.randrange(0, a + 1)
            yield ((a, b) if nu_binom(a, b) != alpha(b) + alpha(a - b) - alpha(a)
                   else None)

    def hurwitz_radon_by_valuation():
        by_nu: dict[int, int] = {}
        for t in range(1, 1 << 16, 2):
            f = hurwitz_radon(t)
            v = nu(t + 1)
            clash = by_nu.setdefault(v, f) != f  # run for every t
            yield (t,) if (v <= 3 and f < v) or clash else None

    def radon_pair_roundtrip():
        for c in range(4097):
            a, b = radon_pair(c)
            yield None if 0 <= b <= 3 and 4 * a + b == c else (c,)

    return out + [
        _tally("nu-binom-vs-factored", nu_binom_vs_factored()),
        _tally("kummer-carries-vs-digit-sums", kummer_carries()),
        _tally("hurwitz-radon-by-valuation", hurwitz_radon_by_valuation()),
        _tally("radon-pair-roundtrip", radon_pair_roundtrip())]


# --- cohomology ------------------------------------------------------------

_RingTable = namedtuple("_RingTable", "n eps classes products squares")


def _rings():
    """One table per ring, n = 1..16 and eps = 0, 1 in that order: each
    ring's arithmetic, formed once for every check that reads it.

    `classes[d]` is the basis class of degree d for d = 0..2n+1, and
    `classes[2n+2]` is zero, so a class lies in degree d exactly when its
    index is min(d, 2n+2) or 2n+2.  `products[u][v]` is the index of
    classes[u] * classes[v], and `squares[u][a]` that of Sq^a(classes[u])
    for a = 0..2n+2; either is None where the class is none of them, which
    every check counts as a failure.
    """
    for n in range(1, 17):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            # monomial(0, n + 1), past the top class, is zero
            classes = [ring.monomial(d % 2, d // 2) for d in range(2 * n + 3)]
            index = {c: k for k, c in enumerate(classes)}
            yield _RingTable(
                n, eps, classes,
                [[index.get(multiply(u, v)) for v in classes]
                 for u in classes],
                [[index.get(steenrod_square(a, u)) for a in range(2 * n + 3)]
                 for u in classes])


def _cartan_formula(rings: list[_RingTable]) -> CheckResult:
    """Sq^i(uv) against sum_{a+b=i} Sq^a(u) Sq^b(v) over every pair of basis
    classes, on total squares Sq(c) = sum_a Sq^a(c).

    The ring is graded, so the sum is the degree-(deg uv + i) part of
    Sq(u) Sq(v), and one product and one equality per pair check every i,
    provided every square and product is homogeneous.  So each Sq^a(c) in
    the table is checked to lie in degree deg(c) + a as its total is formed
    (all of zero's squares to vanish), and each uv in degree deg u + deg v;
    a class that fails is the counterexample.  A mismatch is split by
    degree to name the first i.
    """
    bad = None
    cases = 0
    for n, eps, classes, products, squares in rings:
        top = 2 * n + 2
        totals = []
        for d, (c, sqs) in enumerate(zip(classes, squares)):
            even = odd = 0
            for a, k in enumerate(sqs):
                if k not in (min(d + a, top), top):
                    bad = bad or (n, eps, str(c), a, "off-degree")
                else:
                    even ^= classes[k].even
                    odd ^= classes[k].odd
            totals.append(Mod2Class(c.ring, even, odd))
        for du in range(top):
            for dv in range(top):
                cases += top
                k = products[du][dv]
                if k not in (min(du + dv, top), top):
                    bad = bad or (n, eps, str(classes[du]), str(classes[dv]),
                                  "off-degree")
                elif bad is None:
                    lhs = multiply(totals[du], totals[dv])
                    if lhs != totals[k]:
                        first = next(i for i in range(top)
                                     if lhs.coefficient(i % 2, i // 2)
                                     != totals[k].coefficient(i % 2, i // 2))
                        bad = (n, eps, str(classes[du]), str(classes[dv]),
                               first - du - dv)
    return _result("cartan-formula", cases, bad)


def verify_cohomology() -> list[CheckResult]:
    rings = list(_rings())

    def ring_laws():
        for n, eps, classes, products, _ in rings:
            if n > 8:
                break
            basis = range(2 * n + 2)
            ws = basis[:: max(1, len(basis) // 6)]
            for u in basis:
                for v in basis:
                    uv = products[u][v]
                    yield (None if uv is not None and uv == products[v][u]
                           else (n, eps, str(classes[u]), str(classes[v])))
                    for w in ws:
                        vw = products[v][w]
                        uvw = None if None in (uv, vw) else products[uv][w]
                        yield (None if uvw is not None
                               and uvw == products[u][vw]
                               else (n, eps, str(classes[u]), str(classes[v]),
                                     str(classes[w])))
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 65)
            ring = CohomologyRing(n, rng.randrange(2))
            cls = [Mod2Class(ring, rng.getrandbits(n + 1), rng.getrandbits(n + 1))
                   for _ in range(3)]
            yield ((n, "random-commutativity")
                   if multiply(cls[0], cls[1]) != multiply(cls[1], cls[0]) else None)
            yield ((n, "random-associativity")
                   if multiply(multiply(*cls[:2]), cls[2])
                   != multiply(cls[0], multiply(*cls[1:])) else None)

    def instability_and_top_square():
        for n, eps, classes, products, squares in rings:
            top = 2 * n + 2
            for d in range(top):
                for i in range(d + 1, top + 1):
                    yield ((n, eps, str(classes[d]), i)
                           if squares[d][i] != top else None)
                sq = squares[d][d]
                yield ((n, eps, str(classes[d]), "top")
                       if sq is None or sq != products[d][d] else None)

    def sw_class_inverse():
        for n in range(1, 513):
            for eps in (0, 1):
                ring = CohomologyRing(n, eps)
                yield ((n, eps) if multiply(tangential_sw_class(ring),
                                            normal_sw_class(ring)) != ring.one()
                       else None)
        for n in range(1, 65):
            w_bar = normal_sw_class(CohomologyRing(n, 0))
            for j in range(n + 1):
                yield ((n, j, "closed-form")
                       if w_bar.coefficient(0, j) != (math.comb(n + j, j) & 1)
                       else None)

    return [
        _tally("ring-commutative-associative", ring_laws()),
        _cartan_formula(rings),
        _tally("instability-and-top-square", instability_and_top_square()),
        _tally("sw-class-inverse", sw_class_inverse()),
        _tally("spin-double-derivation", (
            (m, e) if is_spin(m, e) != (m == 0 or m % 2 == 1) else None
            for m in range(513) for e in (1, 2, 3)))]


# --- lifting ---------------------------------------------------------------

def verify_lifting() -> list[CheckResult]:
    def davis_mahowald_gate():
        for ell in range(2, 4097):
            ok, nu1, nu2 = davis_mahowald_check(ell)
            a_ell = alpha(ell)
            if (nu1, nu2) != (a_ell - 1, alpha(ell - 1) + 2):
                yield ell, "closed-form"
            elif ok != (a_ell >= 2):
                yield ell, "gate"
            else:
                yield None

    def davis_mahowald_concrete():
        n_wit = 64
        p0 = 1 << n_wit
        for ell in range(2, 257):
            _, nu1, nu2 = davis_mahowald_check(ell)
            a = 4 * (ell + 1)
            for got, b in ((nu1, 4 * ell - 4), (nu2, 4 * ell - 2)):
                yield (ell, b) if got != nu_binom(p0 - a, b) else None

    def feeding_gate_consistency():
        for mu in (1, 2):
            for ell in range(1, 257):
                for lam in {0, sharpening_drop(ell)}:
                    inst = feeding_params(mu, ell, lam)
                    i = 2**mu * ell - 1
                    if embedding_gate(inst) != 4 * i + 3 - lam:
                        yield mu, ell, lam
                    elif (2 * inst.m + inst.d == 4 * inst.n + 1) != (lam == 1):
                        yield mu, ell, lam, "boundary"
                    else:
                        yield None

    def sharper_lifting_levels():
        for ell in range(2, 513):
            level = sharper_lifting_level(ell)
            base = 8 * (ell - 1)
            t = ell - 3
            if not base - 3 <= level <= base:
                yield (ell,)
            elif t > 0 and t % 4 == 0 and (t & (t - 1)) == 0 and level != base - 2:
                yield ell, "u=1 shape"
            else:
                yield None

    return [_tally("davis-mahowald-gate", davis_mahowald_gate()),
            _tally("davis-mahowald-concrete-N64", davis_mahowald_concrete()),
            _tally("feeding-gate-consistency", feeding_gate_consistency()),
            _tally("sharper-lifting-levels", sharper_lifting_levels())]


# --- rounds ----------------------------------------------------------------

def _closed_form(mu: int, e: int) -> tuple[int, int]:
    """(c1, c0) of round mu's main output, R^(c1*ell + c0) at step ell
    (but round 2's ground), recomputed independently of the engine; a
    sharpened output is one lower."""
    return (8, 3) if mu == 1 else (16, delta_e(e))


def _expected_rounds(e: int, max_m: int) -> dict[tuple[str, int], int]:
    """Closed forms recomputed independently of the engine."""
    expected: dict[tuple[str, int], int] = {}
    for mu in (1, 2):
        c1, c0 = _closed_form(mu, e)
        # step ell reaches m = 2^mu (ell + 1) - 1; round 2 steps from ell = 2
        for ell in range(mu, (max_m + 1) // 2**mu):
            m = 2**mu * (ell + 1) - 1
            expected[(f"round{mu}:{'base' if ell == 1 else 'step'}", m)] = \
                c1 * ell + c0
            if ell % 2 == 0 and alpha(ell) >= 2:
                expected[(f"round{mu}:sharp", m)] = c1 * ell + c0 - 1
    if max_m >= 7:
        if e <= 2:
            expected[("round2:special", 7)] = 26
        expected[("round2:base", 7)] = 17 + delta_e(e)
    return expected


def _fires(margin: tuple[int, int], need: int, count: int) -> bool:
    """Whether a gate fires for every ell on a margin linear in ell: a
    constant positive margin fires the strict gate, and a zero one the
    boundary gate, whose `need` must be at most the Hurwitz-Radon `count`
    at the least valuation."""
    return margin[0] == 0 and (
        margin[1] > 0 or margin[1] == 0 and need <= count)


def _round_schema():
    """round-schema's outcomes: each step ell >= 2 of both rounds, for
    every ell and e = 1..10, as the engine states it (`inductive.step_forms`
    and `lifting.feed_forms`), then each round's ground (ell = 1), gated by
    `records`.

    Every e >= 3 is one class: `sections_table`, `delta_e` and
    `_feed_admissible` read e only through min(e, 3) (the last only at
    ell = 1).  The step's j and its feed's n must both be 2^mu ell - 1, so
    that the step reaches m = 2^mu (ell + 1) - 1.  A step's gate and its
    feed's compare linear forms in ell, whose margins must be constant (see
    `_fires`).  A boundary gate needs 2(k + 1), or 2(m - n), at most the
    Hurwitz-Radon count F = 8a + 2^b - 1 of nu(2j + 2) = 4a + b, and F
    increases with 4a + b (its steps are 1, 2, 4 and 1 whatever a is,
    checked first), so the least valuation decides: nu(2j + 2) =
    nu(2^(mu+1)) + nu(ell), and nu(ell) >= 1 where the sharpened output
    exists (ell even).  Beta must
    be the main output at ell - 1 of `_closed_form`, one higher unless
    sharpened, and the output R^(alpha + beta + 1), alpha = 4k + 2, and its
    closed form; the feed's ambient 2m + d + 1 must be 4n + 3 - lam, and
    the feed must lie within R^(sigma + beta)."""
    for b in range(4):
        # 8a + 2^b at c = 4a + b, and at c + 1 = 4(a + q) + r
        q, r = radon_pair(b + 1)
        yield None if 8 * q + 2**r > 2**b else ("radon-steps", b)
    for e in range(1, 11):
        for mu in (1, 2):
            k, (c1, c0) = 2**mu - 1, _closed_form(mu, e)
            for lam in (0, 1):
                sigma, j, beta, dim = inductive.step_forms(mu, lam, e)
                n, m, d = feed_forms(mu, lam)
                # F(t) with nu(t + 1) = nu(2^(mu+1)) + lam, the least
                count = hurwitz_radon(2 ** (nu(2 * j[0]) + lam) - 1)
                total = (2 * m[0] + d[0], 2 * m[1] + d[1])  # 2m + d
                for name, ok in (
                        ("valuation", j == n == (k + 1, -1)),
                        ("gate", _fires((beta[0] - 4 * j[0],
                                         sigma + beta[1] - 4 * j[1] - 2),
                                        2 ** (mu + 1), count)),
                        ("output", beta == (c1, c0 - c1 + 1 - lam)
                         and dim == (beta[0], 4 * k + 3 + beta[1])
                         == (c1, c0 - lam)),
                        ("feed-gate", m[0] == n[0] and _fires(
                            (total[0] - 4 * n[0], total[1] - 4 * n[1] - 1),
                            2 * (m[1] - n[1]), count)),
                        ("feed-ambient",
                         (total[0], total[1] + 1) == (4 * n[0],
                                                      4 * n[1] + 3 - lam)),
                        ("feed-within", total[0] == beta[0]
                         and total[1] + 1 <= sigma + beta[1])):
                    yield None if ok else (e, mu, lam, name)
            # the ground, gated concretely
            top = 2 ** (mu + 1) - 1
            want = {key: dim for key, dim in _expected_rounds(e, top).items()
                    if key[1] == top and not key[0].endswith(":step")}
            try:
                ground = inductive.records(mu, 1, e)
                ok = ({(r.rule_id, top): r.dim for r in ground} == want
                      and all(r.beta <= r.dim for r in ground
                              if r.rule_id == "round2:base"))
            except RoundsDivergenceError:
                ok = False
            yield None if ok else (e, mu, "ground")


def _check_rounds(e: int, max_m: int):
    """table-regeneration's cases and first counterexample for e, then
    derivation-replay's, then its boundary-gate-audit hits, from
    `proofs.pairs(e, max_m)`, which are dropped (with every derivation) on
    return.  The pairs are keyed by their derivations' rule ids.

    Every pair's derivation is replayed with one memo, so each node of
    their DAG is replayed once.  A boundary-radon condition's replay is the
    whole audit of its gate, the Hurwitz-Radon bound included, so the audit
    only counts them, on every path down from each pair."""
    from . import proofs  # here, so that the other scopes never load it
    expected = _expected_rounds(e, max_m)
    try:
        pairs = proofs.pairs(e, max_m)
    except RoundsDivergenceError as exc:
        return len(expected), (e, str(exc)), 0, None, 0
    produced = {(b.derivation.rule_id, m): b.dim for m, b in pairs}
    table_bad = None
    if produced != expected:
        for key in sorted(set(produced) ^ set(expected)):
            table_bad = table_bad or (e, *key, "missing/extra")
        for key in sorted(set(produced) & set(expected)):
            if produced[key] != expected[key]:
                table_bad = table_bad or (e, *key, produced[key],
                                          expected[key])

    memo: dict[int, bool] = {}
    replay_bad = next(((e, m, b.derivation.rule_id) for m, b in pairs
                       if not b.derivation.replay(memo)), None)
    hits = on_paths((b.derivation for _, b in pairs),
                    lambda c: c.kind is proofs.BOUNDARY_RADON)
    return (len(expected), table_bad, len(pairs), replay_bad,
            sum(hits[id(b.derivation)] for _, b in pairs))


def verify_rounds() -> list[CheckResult]:
    """Regenerate the rounds' table against `_expected_rounds` and replay
    every derivation, for each e up to 8 and ell up to 100 (m up to 403);
    then prove every step for every ell (round-schema), on which
    `inductive.at` rests; then the Milgram checks.

    One e at a time (see `_check_rounds`), so at most one e's derivations
    are alive at once.  A step off its closed form fails the table.
    """
    t_cases, t_bad, r_cases, r_bad, hits = zip(
        *(_check_rounds(e, 403) for e in range(1, 9)))
    replay_bad = next(filter(None, r_bad), None)
    small_mu = _tally("milgram-small-mu", (
        None if milgram_condition(mu, ell) else (mu, ell)
        for mu in (1, 2) for ell in range(1, 4097)))
    density = sum(milgram_condition(3, ell) for ell in range(1, 4097)) / 4096
    # "rarely holds" for mu >= 3: exact density here is 794/4096 = 19.4%;
    # documented threshold 20% (contrast: 100% for mu <= 2).
    return [_result("table-regeneration", sum(t_cases),
                    next(filter(None, t_bad), None)),
            _result("derivation-replay", sum(r_cases), replay_bad),
            CheckResult("boundary-gate-audit", sum(hits), replay_bad is None),
            _tally("round-schema", _round_schema()),
            small_mu,
            CheckResult("milgram-mu3-rarity", 4096, density < 0.20,
                        f"density {density:.3f}")]


# --- bounds ----------------------------------------------------------------

def verify_bounds() -> list[CheckResult]:
    def soundness_sweep():
        for e in range(1, 11):
            for m in range(257):
                rep = catalog.report(LensSpace(m, e))
                yield (m, e) if rep.lower.dim > rep.upper.dim else None

    def high_torsion_gap_law():
        gaps = {"round1": lambda l: 2 * alpha(l) - 1,
                "round1-sharp": lambda l: 2 * alpha(l) - 2,
                "round2": lambda l: 2 * alpha(l),
                "round2-sharp": lambda l: 2 * alpha(l) - 1}
        for ell in range(1, 101):
            for m, rules in ((2 * ell + 1, ("round1", "round1-sharp")),
                             (4 * ell + 3, ("round2", "round2-sharp"))):
                e = max(3, alpha(m))
                space = LensSpace(m, e)
                uppers = {b.rule_id: b.dim for b in inductive.at(m, e)}
                lower = max((b.dim for b in catalog.euler_class_lower_bounds(space)),
                            default=None)
                for rule in rules:
                    if rule in uppers:
                        yield ((m, e, rule) if lower is None
                               or uppers[rule] - lower != gaps[rule](ell) else None)

    def power_of_two_exactness():
        for t in range(0, 9):
            m = 2**t
            for e in range(1, 11):
                rep = catalog.report(LensSpace(m, e))
                want = 5 if m == 1 else 4 * m + 1
                yield None if rep.exact and rep.upper.dim == want else (m, e)

    def inversion_completeness():
        for e in range(1, 7):
            # the oracle: one forward pass sends each n to the m = n + delta
            # it bounds, so each m's list comes out in ascending n
            want: dict[int, list[tuple[int, str]]] = {}
            for n in range(1, 129):
                m = n + max(0, alpha(n) - e)
                if catalog.euler_class_condition(n, e):
                    want.setdefault(m, []).append(
                        (4 * n - 2 * alpha(n) + 2, "euler-class"))
            for m in range(1, 129):
                got = [(b.dim, b.rule_id)
                       for b in catalog.euler_class_lower_bounds(LensSpace(m, e))]
                yield (m, e) if got != want.get(m, []) else None

    return [
        _tally("soundness-sweep", soundness_sweep()),
        _tally("high-torsion-gap-law", high_torsion_gap_law()),
        _tally("power-of-two-exactness", power_of_two_exactness()),
        _tally("one-dimension-gap-family", (
            (m, e) if catalog.report(LensSpace(m, e)).gap > 1 else None
            for m in [2**t + 1 for t in range(2, 8)] for e in range(2, 11))),
        _tally("external-rules-monotone", (
            (m,) if catalog.report(LensSpace(m, 1), external=True).upper.dim
            > catalog.report(LensSpace(m, 1)).upper.dim else None
            for m in range(1, 102))),
        _tally("inversion-completeness", inversion_completeness())]


SCOPES: dict[str, Callable[[], list[CheckResult]]] = {
    "dyadic": verify_dyadic,
    "cohomology": verify_cohomology,
    "lifting": verify_lifting,
    "rounds": verify_rounds,
    "bounds": verify_bounds,
}


def run_scope(scope: str, timings: list[ScopeTiming] | None = None
              ) -> list[CheckResult]:
    """Run one scope, or every scope in order for "all"; with `timings`,
    append each scope's wall time and case count to it."""
    if scope != "all" and scope not in SCOPES:
        raise KeyError(f"unknown scope {scope!r}")
    results: list[CheckResult] = []
    for name in SCOPES if scope == "all" else (scope,):
        start = time.perf_counter()
        got = SCOPES[name]()
        if timings is not None:
            timings.append(ScopeTiming(name, time.perf_counter() - start,
                                       sum(r.cases for r in got)))
        results.extend(got)
    return results
