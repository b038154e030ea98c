"""Derivation trees of the inductive rounds, proved on demand.

`inductive.records` gates every step as plain integers and keeps no record.
`pairs` (`verify`) and `prove` (`derive`) are this module's entry points:
`pairs` lists every step up to max_m, and `prove(m, e, external)` the
chain below the least output at m, which it picks itself.  Both pass their
records to one loop, `_proved`, which proves each on the output it stands
on, which the record names (`Step.prior`), so neither states a choice of
ground.  One builder, `_output`, turns any of the named `Step` records
that `records` returns into its node, on that output, and `step_node` and
`feed_node` take the record too: every number of the node (k, j, m,
alpha, sigma, beta, dim and the feed, the grounds' too) is read or worked
out from the record, so a record's dim is what its node concludes and its
ambient sum replays.  A weakening whose beta is not the dimension of the
output it stands on raises `RoundsDivergenceError`.  A call keeps nothing
once it returns, so each call proves afresh and its derivations live as
long as its caller holds them.  `query` and `table` never load this
module.

This module also declares the kinds of side condition its nodes carry
(the `ConditionKind` constants at its end), each once: its name, the check
that replays a condition of the kind, whose parameters name its witness's
fields, and the text that `derive` prints.  The ten names are twelve
kinds, as beta-from-prior has three texts.
"""

from __future__ import annotations

from . import inductive
from .dyadic import alpha, nu, radon_pair
from .inductive import (Step, _round_bound, _sections, _steps_at, records,
                        sections_table)
from .lifting import davis_mahowald_check, embedding_gate, feeding_params
from .records import (Bound, ConditionKind, DerivationNode,
                      RoundsDivergenceError, SideCondition, upper_category)


def step_node(record: Step, e: int, premises: tuple[DerivationNode, ...],
              extra_conditions: tuple[SideCondition, ...]) -> DerivationNode:
    """The derivation of `record`'s output L(k+j+1, e) in R^dim, k = 2^mu - 1
    and j = 2^mu ell - 1, whose gate `radon` fired (see
    `lifting.radon_gate`): () for the strict gate, (a, b) for the boundary
    one.  Its ambient-sum witness is the record's alpha, beta and dim."""
    k, j = 2**record.mu - 1, 2**record.mu * record.ell - 1
    sigma, beta, dim = record.sigma, record.beta, record.dim
    if record.radon:
        gate = SideCondition(BOUNDARY_RADON,
                             (sigma, beta, j, k, *record.radon))
    else:
        gate = SideCondition(SECTIONS_EXCEED, (sigma, beta, j))
    m = k + j + 1
    category = upper_category(2 * m + 1, dim)
    return DerivationNode(
        record.rule_id, f"L(m={m}, e={e}) embeds ({category}) in R^{dim}",
        premises, (gate, SideCondition(AMBIENT_SUM, (record.alpha, beta, dim)),
                   *extra_conditions))


def feed_node(record: Step, e: int) -> DerivationNode:
    """The feed of `record`, 2^mu*eta over L(i, e), i = 2^mu*ell - 1, in the
    ambient `inductive._feed_ambient` gave it: the gate's 2m+d+1 for the
    instance `feeding_params(mu, ell, lam)`."""
    mu, ell, lam = record.mu, record.ell, record.lam
    conditions = (
        SideCondition(FEEDING_ADMISSIBLE, (mu, ell, e)),
        SideCondition(FEEDING_AMBIENT, (mu, ell, lam, record.feed)),
        SideCondition(FEEDING_CERTIFICATE,
                      (mu, ell, lam, _feed_route(mu, ell, lam))),
    )
    return DerivationNode(
        "feeding", f"{2**mu}*eta over L({2**mu * ell - 1}, e={e}) embeds in "
        f"R^{record.feed}", (), conditions)


def igniting_node(k: int, e: int, sigma: int) -> DerivationNode:
    """The tabulated embedding L(k, e) in R^(4k+2) with sigma sections."""
    cond = SideCondition(SECTIONS_TABLE, (k, e, sigma))
    return DerivationNode(
        "axiom:igniting",
        f"L({k}, e={e}) embeds smoothly in R^{4 * k + 2} with "
        f"{sigma} independent normal sections", (), (cond,))


def pairs(e: int, max_m: int) -> tuple[tuple[int, Bound], ...]:
    """Every output of each step with m <= max_m, with its derivation, as
    (m, bound), round 1 first.  Each step is gated through `records`
    once."""
    return tuple(_proved(e, [record for mu in (1, 2)
                             for ell in range(1, (max_m + 1) // 2**mu)
                             for record in records(mu, ell, e)]))


def prove(m: int, e: int, external: bool = False) -> Bound | None:
    """The least output at m, the first of equal dims, with its derivation;
    an external output only under `external`, and None where no output is
    left.

    The steps at m are gated once, to make those outputs; then the least
    one's `prior` links are followed down to the axioms (or the external
    PL seed), gating each step they reach once, and that chain is proved.
    So only the chain it proves is gated; the other steps are not, as
    round-schema proves them.
    """
    found = _steps_at(m, e)
    outputs = [r for r in found
               if external or not _round_bound(e, r).external]
    if not outputs:
        return None
    chain = [min(outputs, key=lambda r: r.dim)]
    while chain[-1].prior is not None:
        mu, ell, rule_id = chain[-1].prior
        # the steps at m were gated above; the chain reaches each other once
        step = found if 2**mu * (ell + 1) - 1 == m else records(mu, ell, e)
        chain.append(next(r for r in step if r.rule_id == rule_id))
    return _proved(e, chain[::-1])[-1][1]


def _proved(e: int, steps: list[Step]) -> list[tuple[int, Bound]]:
    """Each record of `steps`, as (m, bound), proved on the output it
    stands on (`Step.prior`), which `steps` lists before it, with one
    igniting node per round."""
    ignite = {mu: igniting_node(2**mu - 1, e, _sections(2**mu - 1, e))
              for mu in (1, 2)}
    proved: dict = {None: None}  # no prior: axioms, or the external seed
    for record in steps:
        proved[record.mu, record.ell, record.rule_id] = _output(
            e, record, ignite[record.mu], proved[record.prior])
    return [(2**r.mu * (r.ell + 1) - 1, proved[r.mu, r.ell, r.rule_id])
            for r in steps]


def _output(e: int, record: Step, ignite: DerivationNode,
            prior: Bound | None) -> Bound:
    """The output of `record` with its derivation, on the output `prior`
    it stands on: a weakening (round 2's ground) of prior, whose dimension
    must be the record's beta, or of the external PL seed where there is
    none; round 1's ground, on the axioms of L(j, e) in R^alpha with sigma
    normal sections, and its feed; any other step on the igniting
    embedding, prior and its feed, from ell = 2 with beta checked against
    prior's dimension."""
    rule_id, beta = record.rule_id, record.beta
    if record.radon is None:
        m = 2**record.mu * (record.ell + 1) - 1
        if prior is not None and prior.dim != beta:
            raise RoundsDivergenceError(
                f"{rule_id} weakens R^{beta}, but the output it stands on "
                f"is R^{prior.dim}, at (m={m}, e={e})")
        have = prior.derivation if prior is not None else DerivationNode(
            "axiom:pl-seed",
            f"PL embedding of the {2 * m + 1}-dimensional 2-torsion space "
            f"in R^{beta} (external input)")
        node = DerivationNode(
            rule_id, f"L(m={m}, e={e}) embeds in R^{record.dim}", (have,),
            (SideCondition(WEAKENING, (beta, record.dim)),))
        return _round_bound(e, record, node)
    sigma = record.sigma
    conditions = (SideCondition(FEED_WITHIN, (record.feed, sigma, beta)),)
    if prior is None:
        j = 2**record.mu * record.ell - 1
        lead = (DerivationNode(
                    "axiom:dim3-embedding",
                    f"L(m={j}, e={e}) embeds smoothly in R^{record.alpha} "
                    "(every 3-dim lens space does)"),
                DerivationNode(
                    "axiom:dim3-normal-frame",
                    f"the R^{record.alpha} embedding of L({j}, e) has "
                    f"trivial normal {sigma}-plane bundle: sigma = {sigma} "
                    "independent normal sections"))
    else:
        lead = (ignite, prior.derivation)
        if record.ell > 1:
            kind = (BETA_REUSE if record.lam else BETA_ONE_HIGHER
                    if record.mu == 1 else BETA_FROM_PRIOR)
            conditions += (SideCondition(kind, (beta, prior.dim)),)
    node = step_node(record, e, lead + (feed_node(record, e),), conditions)
    return _round_bound(e, record, node)


# --- the kinds of the side conditions, each declared once: its name, the
# check that replays it from the witness (the check's parameters name the
# witness's fields, in order), and the text that `derive` prints, a
# function of the same values ------------------------------------------------

SECTIONS_EXCEED = ConditionKind(
    "sections-exceed", lambda sigma, beta, j: sigma + beta > 4 * j + 2,
    lambda sigma, beta, j:
    f"sigma + beta = {sigma + beta} > 4j + 2 = {4 * j + 2}")


def _boundary_radon(sigma: int, beta: int, j: int, k: int, a: int,
                    b: int) -> bool:
    if sigma + beta != 4 * j + 2:
        return False
    return (a, b) == radon_pair(nu(2 * j + 2)) and 2 * k + 3 <= 8 * a + 2**b


BOUNDARY_RADON = ConditionKind(
    "boundary-radon", _boundary_radon,
    lambda sigma, beta, j, k, a, b:
    f"sigma + beta = 4j + 2 = {4 * j + 2} and 2k + 3 = {2 * k + 3} <= "
    f"8a + 2^b = {8 * a + 2**b} (nu(2j+2) = {4 * a + b} = 4*{a}+{b})")

AMBIENT_SUM = ConditionKind(
    "ambient-sum", lambda alpha, beta, dim: dim == alpha + beta + 1,
    lambda alpha, beta, dim:
    f"ambient = alpha + beta + 1 = {alpha}+{beta}+1 = {dim}")

# `inductive._feed_admissible` is looked up at each replay, so the gate
# and the replay of its condition are one predicate
FEEDING_ADMISSIBLE = ConditionKind(
    "feeding-admissible",
    lambda mu, ell, e: inductive._feed_admissible(mu, ell, e),
    lambda mu, ell, e: f"feed defined for mu={mu}, ell={ell}, e={e}")

FEEDING_AMBIENT = ConditionKind(
    "feeding-ambient",
    lambda mu, ell, lam, ambient:
    embedding_gate(feeding_params(mu, ell, lam)) == ambient,
    lambda mu, ell, lam, ambient: f"gate: 2m+d+1 = {ambient} = 4i+3-lam "
    f"(i={2**mu * ell - 1}, lam={lam})")


def _feed_route(mu: int, ell: int, lam: int) -> int:
    # 1: connectivity of the fiber (mu=1 unsharpened); 2: Davis-Mahowald
    # digit-sum gate; 3: low-multiple / quaternionic lifting, certified
    # directly (alpha(ell) = 1, including ell = 1).
    if lam == 1:
        return 2
    if mu == 1:
        return 1
    return 2 if alpha(ell) >= 2 else 3


def _feed_certificate(mu: int, ell: int, lam: int, route: int) -> bool:
    if _feed_route(mu, ell, lam) != route:
        return False
    if route == 1:
        return mu == 1 and lam == 0
    if route == 2:
        return davis_mahowald_check(ell).ok
    return alpha(ell) == 1


_ROUTE_TEXT = {1: "fiber connectivity", 2: "Davis-Mahowald gate",
               3: "low-multiple lifting"}

FEEDING_CERTIFICATE = ConditionKind(
    "feeding-certificate", _feed_certificate,
    lambda mu, ell, lam, route: f"lifting certified via {_ROUTE_TEXT[route]}")

SECTIONS_TABLE = ConditionKind(
    "sections-table", lambda k, e, sigma: sections_table(k, e) == sigma,
    lambda k, e, sigma: f"tabulated sigma(k={k}, e={e}) = {sigma}")

FEED_WITHIN = ConditionKind(
    "feed-within", lambda feed, sigma, beta: feed <= sigma + beta,
    lambda feed, sigma, beta:
    f"feeding ambient {feed} fits inside R^(sigma+beta) = R^{sigma + beta}")


def _beta_from_prior(beta: int, prior: int) -> bool:
    return prior <= beta <= prior + 1


# one condition in three texts: a sharpened output reuses the prior round
# output, round 1's main is one higher, and round 2's main is from it
BETA_REUSE, BETA_ONE_HIGHER, BETA_FROM_PRIOR = (
    ConditionKind("beta-from-prior", _beta_from_prior, text) for text in (
        lambda beta, prior: f"beta = {beta} reuses the prior round output",
        lambda beta, prior:
        f"beta = {beta} is one higher than the prior round output {prior}",
        lambda beta, prior:
        f"beta = {beta} from the prior round output {prior}"))

WEAKENING = ConditionKind(
    "weakening", lambda have, use: have <= use,
    lambda have, use: f"embedding in R^{have} persists into R^{use}")
