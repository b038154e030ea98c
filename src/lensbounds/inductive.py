"""Inductive construction of lens-space embeddings, with derivation trees.

One inductive *round* fixes a small k and repeatedly applies the step: from
a smooth embedding of L(k, e) in R^alpha carrying sigma independent normal
sections, an embedding of L(j, e) in R^beta, and an embedding of the
(k+1)-fold bundle over L(j, e) in R^(sigma+beta), produce a (topological)
embedding of L(k+j+1, e) in R^(alpha+beta+1) whenever one of two numeric
gates holds.  Round mu runs k = 2^mu - 1 and reaches m = 2^mu (ell+1) - 1
at step ell.  `round_forms` is the one closed-form table of both rounds:
the builder checks every output against it and the catalog reads it, and
`verify` recomputes it independently.  The builder `Rounds` evaluates the
gates as plain integers in one pure function, `records`, which reads the
steps below only through `round_forms`, so it keeps no per-step state; on
demand, `proofs` walks a round's chain up to a step and turns each step it
passes into DerivationNodes whose side conditions replay from stored
integer witnesses, keeping none of them once it returns.

The third round (k=7) is deliberately not run: it yields nothing new for
e >= 2, and the larger section counts sometimes quoted for e = 1 rest on
improperly argued immersions.
"""

from __future__ import annotations

from time import perf_counter

from .dyadic import alpha, nu, radon_pair
from .lifting import (davis_mahowald_check, embedding_gate, feeding_params,
                      sharpening_drop)
from .records import (Bound, DerivationNode, RoundsDivergenceError,
                      register_condition, upper_bound)


def sections_table(k: int, e: int) -> int | None:
    """Certified section counts sigma_{k,e} for the igniting embeddings.

    Only k = 1 and k = 3 are tabulated; k = 7 is deliberately absent (see
    module docstring).
    """
    if k < 0 or e < 1:
        raise ValueError(f"need k >= 0 and e >= 1, got k={k}, e={e}")
    if k == 1:
        return 3
    if k == 3:
        return 7 if e == 1 else 5 if e == 2 else 4
    return None


def milgram_condition(mu: int, ell: int) -> bool:
    """Whether the linear-algebra section construction stays strong enough
    at round parameter mu: 2^(mu+1) - 1 <= alpha(ell) + mu + kappa(mu),
    kappa(1) = 1, kappa(mu >= 2) = 4.  Always true for mu <= 2, rarely for
    mu >= 3 (which is why no round beyond k = 3 is run)."""
    if mu < 1 or ell < 1:
        raise ValueError(f"need mu >= 1 and ell >= 1, got mu={mu}, ell={ell}")
    kappa = 1 if mu == 1 else 4
    return 2 ** (mu + 1) - 1 <= alpha(ell) + mu + kappa


def delta_e(e: int) -> int:
    """Ambient shift of the second round: 7 / 9 / 10 for e = 1 / 2 / >= 3."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    return 7 if e == 1 else 9 if e == 2 else 10


# L(7, e) in R^26 for e <= 2: round 2 applied once at (k, j) = (3, 3)
ROUND2_SPECIAL = 26


def round_forms(mu: int, ell: int, e: int) -> tuple[int, int | None]:
    """Closed forms of round mu at step ell, m = 2^mu (ell + 1) - 1.

    The main output R^(8 ell + 3) (mu = 1) or R^(16 ell + delta(e))
    (mu = 2), and the sharpened output one dimension lower when the feed's
    sharpening drop applies (None otherwise).
    """
    if mu not in (1, 2):
        raise ValueError(f"mu must be 1 or 2, got {mu}")
    main = 8 * ell + 3 if mu == 1 else 16 * ell + delta_e(e)
    return main, main - 1 if sharpening_drop(ell) else None


def _feed_admissible(mu: int, ell: int, e: int) -> bool:
    # the lifting argument does not cover 4*eta over L(3, e) for e > 2
    return not (mu == 2 and e > 2 and ell == 1)


# --- side-condition replay predicates ------------------------------------

def _feed_route(mu: int, ell: int, lam: int) -> int:
    # 1: connectivity of the fiber (mu=1 unsharpened); 2: Davis-Mahowald
    # digit-sum gate; 3: low-multiple / quaternionic lifting, certified
    # directly (alpha(ell) = 1, including ell = 1).
    if lam == 1:
        return 2
    if mu == 1:
        return 1
    return 2 if alpha(ell) >= 2 else 3


def _replay_feed_certificate(mu: int, ell: int, lam: int, route: int) -> bool:
    if _feed_route(mu, ell, lam) != route:
        return False
    if route == 1:
        return mu == 1 and lam == 0
    if route == 2:
        return davis_mahowald_check(ell).ok
    return alpha(ell) == 1


def _replay_boundary_radon(sigma: int, beta: int, j: int, k: int, a: int,
                           b: int) -> bool:
    if sigma + beta != 4 * j + 2:
        return False
    return (a, b) == radon_pair(nu(2 * j + 2)) and 2 * k + 3 <= 8 * a + 2**b


# each predicate's parameters are its kind's witness fields, in order
register_condition(
    "sections-exceed",
    lambda sigma, beta, j: sigma + beta > 4 * j + 2)
register_condition("boundary-radon", _replay_boundary_radon)
register_condition(
    "feed-within",
    lambda feed, sigma, beta: feed <= sigma + beta)
register_condition(
    "ambient-sum",
    lambda alpha, beta, dim: dim == alpha + beta + 1)
register_condition(
    "beta-from-prior",
    lambda beta, prior: prior <= beta <= prior + 1)
register_condition(
    "weakening",
    lambda have, use: have <= use)
register_condition(
    "sections-table",
    lambda k, e, sigma: sections_table(k, e) == sigma)
register_condition(
    "feeding-admissible",
    lambda mu, ell, e: _feed_admissible(mu, ell, e))
register_condition(
    "feeding-ambient",
    lambda mu, ell, lam, ambient:
    embedding_gate(feeding_params(mu, ell, lam)) == ambient)
register_condition("feeding-certificate", _replay_feed_certificate)


def _gate(k: int, j: int, sigma: int, beta: int) -> tuple[int, ...] | None:
    """Which gate of the inductive step fires: () for the strict gate
    sigma+beta > 4j+2, the radon pair (a, b) of nu(2j+2) = 4a+b for the
    boundary gate sigma+beta = 4j+2 with 2k+3 <= 8a+2^b, None for neither."""
    total, need = sigma + beta, 4 * j + 2
    if total > need:
        return ()
    if total == need:
        a, b = radon_pair(nu(2 * j + 2))
        if 2 * k + 3 <= 8 * a + 2**b:
            return a, b
    return None


def _step_citation(k: int, j: int) -> str:
    return ("inductive step over the double mapping cylinder "
            f"decomposition (k={k}, j={j})")


def _feed_ambient(mu: int, ell: int, e: int, lam: int) -> int:
    """The ambient 4i+3-lam of the feed 2^mu*eta over L(i, e),
    i = 2^mu*ell - 1; raises RoundsDivergenceError if the feed is
    inadmissible or its gate is off that closed form."""
    if not _feed_admissible(mu, ell, e):
        raise RoundsDivergenceError(
            f"no feeding embedding at mu={mu}, ell={ell}, e={e}")
    inst = feeding_params(mu, ell, lam)
    ambient = embedding_gate(inst)
    if ambient != 4 * inst.n + 3 - lam:
        raise RoundsDivergenceError(
            f"{'sharpened ' * lam}feeding gate gives R^{ambient}, not "
            f"R^{4 * inst.n + 3 - lam}, at mu={mu}, ell={ell}")
    return ambient


def _sections(k: int, e: int) -> int:
    """sigma_{k,e}; raises RoundsDivergenceError where it is not tabulated."""
    sigma = sections_table(k, e)
    if sigma is None:
        raise RoundsDivergenceError(
            f"no tabulated igniting embedding for k={k}, e={e}")
    return sigma


def _check_form(dim: int | None, expected: int, m: int, e: int) -> int:
    if dim != expected:
        got = "nothing" if dim is None else f"R^{dim}"
        raise RoundsDivergenceError(
            f"round output diverges from closed form at (m={m}, e={e}): "
            f"expected R^{expected}, derived {got}")
    return dim


# The integer record of one output: its rule id, its dimension, the gate
# that fired (see `_gate`), beta and the feed's ambient; for the ground of
# round 2, a weakening, ("round2:base", dim, None, the dimension weakened,
# None).
_Step = tuple[str, int, tuple[int, ...] | None, int, int | None]


def _round_bound(e: int, mu: int, m: int, record: _Step,
                 derivation: DerivationNode | None = None) -> Bound:
    """The bound of the record of round mu at m."""
    rule_id = record[0]
    citation = ("ground of the second inductive round"
                if rule_id == "round2:base"
                else _step_citation(2**mu - 1, m - 2**mu))
    # the e = 1 second round rests on the external PL seed
    external = mu == 2 and e == 1 and rule_id != "round2:special"
    return upper_bound(2 * m + 1, record[1], rule_id, citation, derivation,
                       external=external)


def _main_dim(mu: int, ell: int, e: int) -> int:
    """The main output of round mu at step ell, the next step's prior: the
    ground of round 2 weakens to R^(17 + delta(e)), every other main is on
    `round_forms`."""
    if (mu, ell) == (2, 1):
        return 17 + delta_e(e)
    return round_forms(mu, ell, e)[0]


# per round, the rule ids of its steps' main and sharpened outputs: one
# string each, shared by every record, bound and node of the round
_RULES = {mu: (f"round{mu}:step", f"round{mu}:sharp") for mu in (1, 2)}


class Rounds:
    """Both inductive rounds for one e: gated as plain integers, proved on
    demand.

    `records(mu, ell)` gates step ell of round mu and checks each of its
    outputs against `round_forms`.  It is the only place a gate is
    evaluated, and it reads the steps below only through their closed
    forms, so the builder keeps no per-step state: `built` says that every
    step with m <= built is checked.  `extend(max_m)` checks the steps up
    to max_m that are not checked yet, so a whole table costs O(m) in all,
    and moves `built` only once all of them pass, so a
    RoundsDivergenceError leaves it at the last max_m fully checked.
    `at(m)` makes the bounds of m's steps, without derivations.  Only
    `pairs` (so `verify`) and `prove` (so `derive`) make derivations, by a
    walk of `proofs` up each round's chain that gates each step it proves
    through `records`, which is that step's check, so each step is gated
    once.  The walk returns its derivations and the builder keeps none.
    """

    def __init__(self, e: int) -> None:
        self.e = e
        self.built = 2  # every step with m <= built is checked
        self.sigma = {mu: _sections(2**mu - 1, e) for mu in (1, 2)}
        self.integer_s = 0.0  # the integer pass's seconds, for `--timings`

    # --- integer pass -------------------------------------------------------

    def extend(self, max_m: int) -> None:
        """Check every step with m <= max_m that is not checked yet."""
        if max_m <= self.built:
            return
        for mu in (1, 2):
            self._check(mu, max_m)
        self.built = max_m

    def _check(self, mu: int, max_m: int) -> None:
        """Check the steps of round mu with built < m <= max_m."""
        start = perf_counter()
        # step ell of round mu reaches m = 2^mu (ell + 1) - 1
        for ell in range(max(1, (self.built + 1) // 2**mu),
                         (max_m + 1) // 2**mu):
            self.records(mu, ell)
        self.integer_s += perf_counter() - start

    def _step(self, rule_id: str, k: int, j: int, alpha_dim: int, beta: int,
              sigma: int, feed: int, expected: int) -> _Step:
        """Gate one step and check its output against `expected`."""
        radon = _gate(k, j, sigma, beta)
        dim = None if radon is None else alpha_dim + beta + 1
        return (rule_id, _check_form(dim, expected, k + j + 1, self.e), radon,
                beta, feed)

    def records(self, mu: int, ell: int) -> tuple[_Step, ...]:
        """The records of the outputs of step ell of round mu
        (k = 2^mu - 1), m = 2^mu (ell + 1) - 1, each gated and checked: the
        main, then the sharpened output where it applies.  The ground of
        round 2 (ell = 1) gives the special triple (e <= 2), then the
        weakened L(7, e) in R^(17 + delta(e))."""
        e, k, sigma = self.e, 2**mu - 1, self.sigma[mu]
        if ell == 1 and mu == 1:
            # k = j = 1 from R^5, sigma = 2
            return (self._step("round1:base", 1, 1, 5, 5, 2,
                               _feed_ambient(1, 1, e, 0),
                               round_forms(1, 1, e)[0]),)
        if ell == 1:
            special: tuple[_Step, ...] = ()
            if e <= 2:
                special = (self._step(
                    "round2:special", 3, 3, 14, _main_dim(1, 1, e), sigma,
                    _feed_ambient(2, 1, e, 0), ROUND2_SPECIAL),)
            have = 23 if e == 1 else ROUND2_SPECIAL if e == 2 \
                else _main_dim(1, 3, e)
            return special + (("round2:base", _main_dim(2, 1, e), None, have,
                               None),)
        j = 2**mu * ell - 1
        main, sharp_dim = round_forms(mu, ell, e)
        step_rule, sharp_rule = _RULES[mu]
        records = (self._step(step_rule, k, j, 4 * k + 2,
                              round_forms(mu, ell - 1, e)[0] + 1, sigma,
                              _feed_ambient(mu, ell, e, 0), main),)
        if sharp_dim is None:
            return records
        return records + (self._step(sharp_rule, k, j, 4 * k + 2,
                                     _main_dim(mu, ell - 1, e), sigma,
                                     _feed_ambient(mu, ell, e, 1),
                                     sharp_dim),)

    @staticmethod
    def _steps_at(m: int):
        """(mu, ell) of each round's step that reaches exactly m, round 1
        first."""
        for mu in (1, 2):
            ell, rest = divmod(m + 1, 2**mu)  # m = 2^mu (ell + 1) - 1
            if rest == 0 and ell >= 2:
                yield mu, ell - 1

    def at(self, m: int) -> tuple[Bound, ...]:
        """The bounds derived for exactly this m, in derivation order (round
        1 first), without their derivations: every step below m is checked,
        then m's steps are gated once."""
        self.extend(m - 1)
        start = perf_counter()
        steps = [(mu, self.records(mu, ell)) for mu, ell in self._steps_at(m)]
        self.built = max(self.built, m)
        self.integer_s += perf_counter() - start
        return tuple(_round_bound(self.e, mu, m, r)
                     for mu, records in steps for r in records)

    def pairs(self, max_m: int) -> tuple[tuple[int, Bound], ...]:
        """The round-1 pairs with m <= max_m, then the round-2 ones, with
        their derivations, proved afresh (`proofs` is imported on the first
        call).  The proof gates each step through `records`, which is the
        check, so `built` moves only once all of them pass."""
        from . import proofs
        pairs = proofs.pairs(self, max_m)
        self.built = max(self.built, max_m)
        return pairs

    def prove(self, m: int, pick) -> Bound | None:
        """The output at m that `pick` chooses, with its derivation.

        `pick` maps the outputs at m, as `at(m)` lists them (without
        derivations), to the index of one of them, or to None, for which
        nothing is proved and None is returned.  The steps at m are gated
        once, to make those outputs.  `proofs.prove` then proves the
        outputs of the chosen step on the main outputs its round reached
        before m, and no other output; its `records` calls are the check of
        that round below m, and the integer pass checks only the other
        round's steps below m.  So each step up to m is gated once (but for
        the first steps of round 1, which round 2's ground also proves), and
        `built` moves to m only once both rounds pass.
        """
        steps = [(mu, ell, self.records(mu, ell))
                 for mu, ell in self._steps_at(m)]
        index = pick(tuple(_round_bound(self.e, mu, m, r)
                           for mu, _, records in steps for r in records))
        if index is None:
            return None
        for mu, ell, records in steps:
            if index < len(records):
                self._check(3 - mu, m - 1)
                from . import proofs
                bound = proofs.prove(self, mu, ell, records)[index]
                self.built = max(self.built, m)
                return bound
            index -= len(records)
        raise IndexError(f"no output {index} at m={m}")


_ROUNDS: dict[int, Rounds] = {}


def rounds(e: int) -> Rounds:
    """The process-wide builder for e, so every caller shares one build."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    builder = _ROUNDS.get(e)
    if builder is None:
        builder = _ROUNDS[e] = Rounds(e)
    return builder


def builders() -> list[Rounds]:
    """The process-wide builders made so far, by e."""
    return [_ROUNDS[e] for e in sorted(_ROUNDS)]


def derive_rounds(e: int, max_m: int) -> tuple[tuple[int, Bound], ...]:
    """All (m, bound) pairs the two rounds produce for m <= max_m, in
    derivation order (round 1, then round 2, each in ascending m), each
    bound verified against its closed form.

    Each call proves every pair afresh, through the shared builder for e
    (see `rounds`), which keeps only how far it has checked; nodes are
    shared between the bounds of one call, so the whole build is small.
    """
    builder = rounds(e)
    if max_m < 3:
        raise ValueError(f"need max_m >= 3, got {max_m}")
    return builder.pairs(max_m)

