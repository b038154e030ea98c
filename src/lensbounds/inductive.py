"""Inductive construction of lens-space embeddings: the integer pass.

One inductive *round* fixes a small k and repeatedly applies the step: from
a smooth embedding of L(k, e) in R^alpha carrying sigma independent normal
sections, an embedding of L(j, e) in R^beta, and an embedding of the
(k+1)-fold bundle over L(j, e) in R^(sigma+beta), produce a (topological)
embedding of L(k+j+1, e) in R^(alpha+beta+1) whenever the bundle passes
`lifting.radon_gate`, the Hurwitz-Radon gate that also certifies the
feeds: general position (sigma+beta > 4j+2) or its boundary.  Round mu
runs k = 2^mu - 1 and reaches m = 2^mu (ell+1) - 1 at step ell.
`round_forms` is the one closed-form table of both rounds: `records`
checks every output against it, and `verify` recomputes it independently.
`at` is the one source of the catalog's round bounds, and so the only
round check a `query` or `table` makes.  `_round_bound` names every round
bound, `at`'s and `proofs`', from one table keyed by the rule id; the
derivation nodes keep the rule id, which `derive` prints.  Each step is a
pure function of (mu, ell, e): `records` evaluates its gates as plain
integers and reads the steps below only through `round_forms`.  The
module keeps no state: `at(m, e)` gates only m's own steps, since `verify
rounds` proves every step ell >= 2 of both rounds for every ell (its
round-schema check) and gates the grounds.  On demand, `proofs` walks a
round's chain up to a step and turns each step it passes into
DerivationNodes, keeping none of them once it returns.  This module makes
no derivation: the kinds of their side conditions, and the checks that
replay them, are defined in `proofs`.

The third round (k=7) is deliberately not run: it yields nothing new for
e >= 2, and the larger section counts sometimes quoted for e = 1 rest on
improperly argued immersions.
"""

from __future__ import annotations

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
# that fired (see `lifting.radon_gate`), beta and the feed's ambient; for
# the ground of round 2, a weakening, ("round2:base", dim, None, the
# dimension weakened, None).
_Step = tuple[str, int, tuple[int, ...] | None, int, int | None]


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


def _round_bound(e: int, mu: int, m: int, record: _Step,
                 derivation: DerivationNode | None = None) -> Bound:
    """The bound of the record of round mu at m, under its rule's name."""
    rule_id = record[0]
    # the e = 1 second round rests on the external PL seed
    external = mu == 2 and e == 1 and rule_id != "round2:special"
    return upper_bound(2 * m + 1, record[1], *_NAMES[rule_id], derivation,
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


def _step(e: int, rule_id: str, k: int, j: int, alpha_dim: int, beta: int,
          sigma: int, feed: int, expected: int) -> _Step:
    """Gate one step and check its output against `expected`."""
    radon = radon_gate(j, k + 1, sigma + beta)
    dim = None if radon is None else alpha_dim + beta + 1
    return (rule_id, _check_form(dim, expected, k + j + 1, e), radon, beta,
            feed)


def records(mu: int, ell: int, e: int) -> tuple[_Step, ...]:
    """The records of the outputs of step ell of round mu (k = 2^mu - 1),
    m = 2^mu (ell + 1) - 1, each gated and checked against `round_forms`:
    the main, then the sharpened output where it applies.  The ground of
    round 2 (ell = 1) gives the special triple (e <= 2), then the weakened
    L(7, e) in R^(17 + delta(e)).

    This is the only place a gate is evaluated, and it reads the steps
    below only through their closed forms."""
    k, sigma = 2**mu - 1, _sections(2**mu - 1, e)
    if ell == 1 and mu == 1:
        # k = j = 1 from R^5, sigma = 2
        return (_step(e, "round1:base", 1, 1, 5, 5, 2,
                      _feed_ambient(1, 1, e, 0), round_forms(1, 1, e)[0]),)
    if ell == 1:
        special: tuple[_Step, ...] = ()
        if e <= 2:
            special = (_step(e, "round2:special", 3, 3, 14, _main_dim(1, 1, e),
                             sigma, _feed_ambient(2, 1, e, 0),
                             ROUND2_SPECIAL),)
        have = 23 if e == 1 else ROUND2_SPECIAL if e == 2 \
            else _main_dim(1, 3, e)
        return special + (("round2:base", _main_dim(2, 1, e), None, have,
                           None),)
    j = 2**mu * ell - 1
    main, sharp_dim = round_forms(mu, ell, e)
    step_rule, sharp_rule = _RULES[mu]
    out = (_step(e, step_rule, k, j, 4 * k + 2,
                 round_forms(mu, ell - 1, e)[0] + 1, sigma,
                 _feed_ambient(mu, ell, e, 0), main),)
    if sharp_dim is None:
        return out
    return out + (_step(e, sharp_rule, k, j, 4 * k + 2,
                        _main_dim(mu, ell - 1, e), sigma,
                        _feed_ambient(mu, ell, e, 1), sharp_dim),)


def _steps_at(m: int, e: int) -> list[tuple[int, int, tuple[_Step, ...]]]:
    """(mu, ell, records) of each round's step that reaches exactly m, round
    1 first, each gated once; each round's sigma is looked up, so a missing
    one fails even where no step reaches m."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    steps = []
    for mu in (1, 2):
        _sections(2**mu - 1, e)
        ell, rest = divmod(m + 1, 2**mu)  # m = 2^mu (ell + 1) - 1
        if rest == 0 and ell >= 2:
            steps.append((mu, ell - 1, records(mu, ell - 1, e)))
    return steps


def at(m: int, e: int) -> tuple[Bound, ...]:
    """The bounds derived for exactly this m, in derivation order (round 1
    first), without their derivations: only m's own steps are gated, so a
    lookup costs O(log m) at any m.  The chain below m needs no re-check:
    `verify rounds` (round-schema) proves every step ell >= 2 for every
    ell, and gates the grounds.  Only `proofs` makes derivations."""
    return tuple(_round_bound(e, mu, m, r) for mu, _, step in _steps_at(m, e)
                 for r in step)
