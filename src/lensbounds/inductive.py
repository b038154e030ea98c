"""Inductive construction of lens-space embeddings: the integer pass.

One inductive *round* fixes a small k and repeatedly applies the step: from
a smooth embedding of L(k, e) in R^alpha carrying sigma independent normal
sections, an embedding of L(j, e) in R^beta, and an embedding of the
(k+1)-fold bundle over L(j, e) in R^(sigma+beta), produce a (topological)
embedding of L(k+j+1, e) in R^(alpha+beta+1) whenever the bundle passes
`lifting.radon_gate`, the Hurwitz-Radon gate that also certifies the
feeds: general position (sigma+beta > 4j+2) or its boundary.  Round mu
runs k = 2^mu - 1 and reaches m = 2^mu (ell+1) - 1 at step ell.

Each step ell >= 2 is stated once, as linear forms in ell: `step_forms`
(sigma, j, beta and the output's dim) and `lifting.feed_forms` (the feed's
instance).  `records` evaluates them at one ell, gates the step as plain
integers, checks its output against the dim form and returns one named
`Step` per output, which carries everything `proofs` builds its node from,
the link to the output it stands on (`Step.prior`) included: the main at
ell - 1 for a step, and for round 2's ground what `_weakened` states, once,
for `records` and `_round_bound`'s `external` flag alike.  `verify`'s
round-schema proves the same forms for every ell, against a closed form it
recomputes independently, and gates the grounds (ell = 1).
`at` is the one source of the catalog's round bounds, and so the only
round check a `query` or `table` makes: it gates only m's own steps, and
keeps no state.  `_round_bound` names every round bound, `at`'s and
`proofs`', from one table keyed by the rule id; the derivation nodes keep
the rule id, which `derive` prints.  This module makes no derivation: the
kinds of their side conditions, and the checks that replay them, are
defined in `proofs`.

The third round (k=7) is deliberately not run: it yields nothing new for
e >= 2, and the larger section counts sometimes quoted for e = 1 rest on
improperly argued immersions.
"""

from __future__ import annotations

from collections import namedtuple

from .dyadic import alpha
from .lifting import (embedding_gate, feeding_params, radon_gate,
                      sharpening_drop)
from .records import (Bound, DerivationNode, RoundsDivergenceError,
                      upper_bound)


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


# L(7, e) in R^26 where its feed is admissible: round 2 applied once at
# (k, j) = (3, 3)
ROUND2_SPECIAL = 26

# P^15 in R^23: the external PL seed, on which no record is keyed
PL_SEED = 23


def _sections(k: int, e: int) -> int:
    """sigma_{k,e}; raises RoundsDivergenceError where it is not tabulated."""
    sigma = sections_table(k, e)
    if sigma is None:
        raise RoundsDivergenceError(
            f"no tabulated igniting embedding for k={k}, e={e}")
    return sigma


def step_forms(mu: int, lam: int, e: int) -> tuple[
        int, tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Output lam (0 main, 1 sharpened) of step ell >= 2 of round mu, for
    every ell at once: sigma, then j, beta and the output's dim, each a
    linear form c1*ell + c0 as (c1, c0).  The step extends L(k, e) in
    R^(4k+2), k = 2^mu - 1, with its tabulated sigma sections, by L(j, e),
    j = 2^mu ell - 1, in R^beta: the main output at ell - 1, one higher
    unless sharpened.  The main output is R^(8 ell + 3) (mu = 1) or
    R^(16 ell + delta(e)) (mu = 2), the sharpened one one lower."""
    k = 2**mu - 1
    c1, c0 = (8, 3) if mu == 1 else (16, delta_e(e))
    return (_sections(k, e), (k + 1, -1), (c1, c0 - c1 + 1 - lam),
            (c1, c0 - lam))


def round_forms(mu: int, ell: int, e: int) -> tuple[int, int | None]:
    """Closed forms of round mu at step ell, m = 2^mu (ell + 1) - 1: the
    main output of `step_forms`, and the sharpened output one dimension
    lower when the feed's sharpening drop applies (None otherwise)."""
    if mu not in (1, 2):
        raise ValueError(f"mu must be 1 or 2, got {mu}")
    _, _, _, (c1, c0) = step_forms(mu, 0, e)
    main = c1 * ell + c0
    return main, main - 1 if sharpening_drop(ell) else None


def _feed_admissible(mu: int, ell: int, e: int) -> bool:
    # the lifting argument does not cover 4*eta over L(3, e) for e > 2
    return not (mu == 2 and e > 2 and ell == 1)


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


def _check_form(dim: int | None, expected: int, m: int, e: int) -> int:
    if dim != expected:
        got = "nothing" if dim is None else f"R^{dim}"
        raise RoundsDivergenceError(
            f"round output diverges from closed form at (m={m}, e={e}): "
            f"expected R^{expected}, derived {got}")
    return dim


class Step(namedtuple("Step", "rule_id dim radon beta feed mu ell lam "
                      "alpha sigma prior")):
    """The integer record of one output of step ell of round mu, which
    reaches m = 2^mu (ell + 1) - 1 from k = 2^mu - 1 and j = 2^mu ell - 1:
    its rule id and dimension, the gate that fired (see
    `lifting.radon_gate`), beta, the feed's ambient, then lam (0 main, 1
    sharpened), the alpha and sigma of the embedding of L(k, e) it extends,
    and `prior`, the key (mu, ell, rule_id) of the output it stands on: the
    main at ell - 1 for a step ell >= 2, and for a ground what `_weakened`
    states.  The ground of round 2 (`round2:base`) is a weakening: beta is
    the dimension it weakens, and it has no gate, feed, alpha or sigma.
    `records` builds each with `tuple.__new__`, skipping the argument
    parsing of the generated constructor."""

    __slots__ = ()


# the name and citation of the bounds of each rule, by its rule id; the
# derivation nodes keep the rule id
_NAMES = {
    "round1:base": ("round1", "first inductive round (k=1)"),
    "round1:step": ("round1", "first inductive round (k=1)"),
    "round1:sharp": ("round1-sharp", "first inductive round, sharpened feed"),
    "round2:special": ("round2-special",
                       "second round applied at (k, j) = (3, 3)"),
    "round2:base": ("round2:base", "ground of the second inductive round"),
    "round2:step": ("round2", "second inductive round (k=3)"),
    "round2:sharp": ("round2-sharp", "second inductive round, sharpened feed"),
}


def _round_bound(e: int, record: Step,
                 derivation: DerivationNode | None = None) -> Bound:
    """The bound of `record`, under its rule's name."""
    rule_id, dim, _, _, _, mu, ell, _, _, _, _ = record
    m = 2**mu * (ell + 1) - 1
    # round 2, but for its special output, rests on its weakened ground
    external = (mu == 2 and rule_id != "round2:special"
                and _weakened(e) is None)
    return upper_bound(2 * m + 1, dim, *_NAMES[rule_id], derivation,
                       external=external)


# per round, the rule ids of its steps' main and sharpened outputs: one
# string each, shared by every record, bound and node of the round
_RULES = {mu: (f"round{mu}:step", f"round{mu}:sharp") for mu in (1, 2)}

# per round, the key (mu, ell, rule_id) of its ground's main output, on
# which step ell = 2 stands, and the key of round 2's special output
_GROUNDS = {1: (1, 1, "round1:base"), 2: (2, 1, "round2:base")}
_SPECIAL = (2, 1, "round2:special")


def _weakened(e: int) -> tuple[int, int, str] | None:
    """What round 2's ground stands on: the key of the output that the
    weakened L(7, e) in R^(17 + delta(e)) weakens.  That is the external
    PL seed (e = 1), which has no key; the special output (e = 2); or
    round 1's main at m = 7 (e >= 3).  The special output stands on round
    1's main at m = 3, and round 1's ground on axioms alone."""
    return None if e == 1 else _SPECIAL if e == 2 else (1, 3, _RULES[1][0])


_new = tuple.__new__


def _step(e: int, rule_id: str, mu: int, ell: int, lam: int, j: int,
          alpha_dim: int, beta: int, sigma: int, expected: int,
          prior: tuple[int, int, str] | None) -> Step:
    """Gate output lam of step ell of round mu, L(k + j + 1, e) in
    R^(alpha + beta + 1), k = 2^mu - 1, with its feed, and check the
    output against `expected`."""
    feed = _feed_ambient(mu, ell, e, lam)
    k = 2**mu - 1
    radon = radon_gate(j, k + 1, sigma + beta)
    dim = None if radon is None else alpha_dim + beta + 1
    return _new(Step, (rule_id, _check_form(dim, expected, k + j + 1, e),
                       radon, beta, feed, mu, ell, lam, alpha_dim, sigma,
                       prior))


def _stated(e: int, mu: int, ell: int, lam: int,
            prior: tuple[int, int, str]) -> Step:
    """Output lam of step ell >= 2 of round mu, gated on the values of
    `step_forms` at ell, from R^(4k+2), on the output `prior`."""
    sigma, (j1, j0), (b1, b0), (d1, d0) = step_forms(mu, lam, e)
    return _step(e, _RULES[mu][lam], mu, ell, lam, j1 * ell + j0,
                 4 * 2**mu - 2, b1 * ell + b0, sigma, d1 * ell + d0, prior)


def records(mu: int, ell: int, e: int) -> tuple[Step, ...]:
    """The records of the outputs of step ell of round mu (k = 2^mu - 1),
    m = 2^mu (ell + 1) - 1, each gated and checked against its closed
    form: the main, then the sharpened output where it applies, each
    evaluated from `step_forms`.  The ground of round 1 extends L(1, e) in
    R^5, whose normal bundle is trivial (sigma = 2), by itself; the ground
    of round 2 gives the special triple where its feed is admissible, then
    the weakened L(7, e) in R^(17 + delta(e)), on what `_weakened` states.
    Each record names the output it stands on (`Step.prior`).

    This is the only place a gate is evaluated, and it reads the steps
    below only through their closed forms."""
    if ell >= 2:
        prior = (mu, ell - 1, _RULES[mu][0]) if ell > 2 else _GROUNDS[mu]
        main = _stated(e, mu, ell, 0, prior)
        return (main, _stated(e, mu, ell, 1, prior)) \
            if sharpening_drop(ell) else (main,)
    main1 = round_forms(1, 1, e)[0]
    if mu == 1:
        return (_step(e, "round1:base", 1, 1, 0, 1, 5, 5, 2, main1, None),)
    sigma = _sections(3, e)
    special: tuple[Step, ...] = ()
    if _feed_admissible(2, 1, e):
        special = (_step(e, "round2:special", 2, 1, 0, 3, 14, main1, sigma,
                         ROUND2_SPECIAL, _GROUNDS[1]),)
    prior = _weakened(e)
    # the dimension of the output prior names
    have = PL_SEED if prior is None else ROUND2_SPECIAL \
        if prior == _SPECIAL else round_forms(prior[0], prior[1], e)[0]
    return special + (_new(Step, ("round2:base", 17 + delta_e(e), None, have,
                                  None, 2, 1, 0, None, None, prior)),)


def _steps_at(m: int, e: int) -> list[Step]:
    """The records of each round's step that reaches exactly m, round 1
    first, each step gated once; each round's sigma is looked up, by
    `records` or here, so a missing one fails even where no step reaches
    m."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    found = []
    for mu in (1, 2):
        ell, rest = divmod(m + 1, 2**mu)  # m = 2^mu (ell + 1) - 1
        if rest == 0 and ell >= 2:
            found.extend(records(mu, ell - 1, e))
        else:
            _sections(2**mu - 1, e)
    return found


def at(m: int, e: int) -> tuple[Bound, ...]:
    """The bounds derived for exactly this m, in derivation order (round 1
    first), without their derivations: only m's own steps are gated, so a
    lookup costs O(log m) at any m.  The chain below m needs no re-check:
    `verify rounds` (round-schema) proves every step ell >= 2 for every
    ell, and gates the grounds.  Only `proofs` makes derivations."""
    return tuple([_round_bound(e, r) for r in _steps_at(m, e)])
