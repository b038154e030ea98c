"""Derivation trees of the inductive rounds, proved on demand.

`inductive.records` gates every step as plain integers and keeps no record.
`pairs` (`verify`) and `prove` (`derive`) are this module's entry points:
each proves a record on the output it stands on, which the record names
(`Step.prior`), so neither states a choice of ground.  One builder,
`_output`, turns any of the named `Step` records that `records` returns
into its node, on that output: every number of the node (k, j, m, alpha,
sigma, beta and the feed, the grounds' too) is read or worked out from the
record.  A call keeps nothing once it returns, so each call proves afresh
and its derivations live as long as its caller holds them.  `query` and
`table` never load this module.

This module also defines the ten kinds of side condition its nodes carry
(the `ConditionKind` constants at its end): each kind's name, the check
that replays a condition of the kind, whose parameters name its witness's
fields, and beside it the texts that `derive` prints.
"""

from __future__ import annotations

from . import inductive
from .dyadic import alpha, nu, radon_pair
from .inductive import (Step, _round_bound, _sections, _steps_at, records,
                        sections_table)
from .lifting import davis_mahowald_check, embedding_gate, feeding_params
from .records import (Bound, ConditionKind, DerivationNode, SideCondition,
                      upper_category)


def step_node(rule_id: str, k: int, j: int, e: int, alpha_dim: int,
              beta_dim: int, sigma: int, radon: tuple[int, ...],
              premises: tuple[DerivationNode, ...],
              extra_conditions: tuple[SideCondition, ...]) -> DerivationNode:
    """The derivation of the step L(k+j+1, e) in R^(alpha+beta+1) whose
    gate `radon` fired (see `lifting.radon_gate`): () for the strict gate,
    (a, b) for the boundary one."""
    if radon:
        gate = SideCondition(BOUNDARY_RADON, (sigma, beta_dim, j, k, *radon),
                             _radon_text)
    else:
        gate = SideCondition(SECTIONS_EXCEED, (sigma, beta_dim, j),
                             _exceed_text)
    m, dim = k + j + 1, alpha_dim + beta_dim + 1
    category = upper_category(2 * m + 1, dim)
    conditions = (gate,
                  SideCondition(AMBIENT_SUM, (alpha_dim, beta_dim, dim),
                                _ambient_text),
                  ) + extra_conditions
    return DerivationNode(
        rule_id, f"L(m={m}, e={e}) embeds ({category}) in R^{dim}",
        premises, conditions)


def feed_node(mu: int, ell: int, e: int, lam: int,
              ambient: int) -> DerivationNode:
    """The feed 2^mu*eta over L(i, e), i = 2^mu*ell - 1, in the ambient
    `inductive._feed_ambient` gave: the gate's 2m+d+1 for the instance
    `feeding_params(mu, ell, lam)`."""
    conditions = (
        SideCondition(FEEDING_ADMISSIBLE, (mu, ell, e), _admissible_text),
        SideCondition(FEEDING_AMBIENT, (mu, ell, lam, ambient),
                      _feed_ambient_text),
        SideCondition(FEEDING_CERTIFICATE,
                      (mu, ell, lam, _feed_route(mu, ell, lam)),
                      _certificate_text),
    )
    return DerivationNode(
        "feeding",
        f"{2**mu}*eta over L({2**mu * ell - 1}, e={e}) embeds in R^{ambient}",
        (), conditions)


def igniting_node(k: int, e: int, sigma: int) -> DerivationNode:
    """The tabulated embedding L(k, e) in R^(4k+2) with sigma sections."""
    cond = SideCondition(SECTIONS_TABLE, (k, e, sigma), _table_text)
    return DerivationNode(
        "axiom:igniting",
        f"L({k}, e={e}) embeds smoothly in R^{4 * k + 2} with "
        f"{sigma} independent normal sections", (), (cond,))


def pairs(e: int, max_m: int) -> tuple[tuple[int, Bound], ...]:
    """Every output of each step with m <= max_m, with its derivation, as
    (m, bound), round 1 first: each record is proved on the output it
    stands on (`Step.prior`), proved before it in the same call.  Each
    step is gated through `records` once."""
    out: list[tuple[int, Bound]] = []
    proved: dict = {None: None}  # no prior: axioms, or the external seed
    for mu in (1, 2):
        ignite = igniting_node(2**mu - 1, e, _sections(2**mu - 1, e))
        for ell in range(1, (max_m + 1) // 2**mu):
            for record in records(mu, ell, e):
                bound = _output(e, record, ignite, proved[record.prior])
                proved[mu, ell, record.rule_id] = bound
                out.append((2**mu * (ell + 1) - 1, bound))
    return tuple(out)


def prove(m: int, e: int, pick) -> Bound | None:
    """The output at m that `pick` chooses, with its derivation.

    `pick` maps the outputs at m, as `inductive.at(m, e)` lists them
    (without derivations), to the index of one of them, or to None, for
    which nothing is proved and None is returned.  The steps at m are gated
    once, to make those outputs; then the chosen record's `prior` links are
    followed down to the axioms (or the external PL seed), gating each step
    they reach once, and the chain is proved back up, with one igniting
    node per round.  So only the chain it proves is gated; the other
    steps are not, as round-schema proves them.
    """
    found = _steps_at(m, e)
    index = pick(tuple([_round_bound(e, r) for r in found]))
    if index is None:
        return None
    chain = [found[index]]
    while chain[-1].prior is not None:
        mu, ell, rule_id = chain[-1].prior
        # the steps at m were gated above; the chain reaches each other once
        step = found if 2**mu * (ell + 1) - 1 == m else records(mu, ell, e)
        chain.append(next(r for r in step if r.rule_id == rule_id))
    ignite = {mu: igniting_node(2**mu - 1, e, _sections(2**mu - 1, e))
              for mu in {r.mu for r in chain}}
    bound = None
    for record in reversed(chain):
        bound = _output(e, record, ignite[record.mu], bound)
    return bound


def _output(e: int, record: Step, ignite: DerivationNode,
            prior: Bound | None) -> Bound:
    """The output of `record` with its derivation, on the output `prior`
    it stands on: a weakening (round 2's ground) of prior, or of the
    external PL seed where there is none; round 1's ground, on the axioms
    of L(k, e) in R^alpha with sigma normal sections, and its feed; any
    other step on the igniting embedding, prior and its feed, from ell = 2
    with beta checked against prior's dimension."""
    rule_id, dim, radon, beta, feed, mu, ell, lam, alpha_dim, sigma, _ = record
    k, j = 2**mu - 1, 2**mu * ell - 1
    if radon is None:
        m = k + j + 1
        have = prior.derivation if prior is not None else DerivationNode(
            "axiom:pl-seed",
            f"PL embedding of the {2 * m + 1}-dimensional 2-torsion space "
            f"in R^{beta} (external input)")
        node = DerivationNode(
            rule_id, f"L(m={m}, e={e}) embeds in R^{dim}", (have,),
            (SideCondition(WEAKENING, (beta, dim), _weakening_text),))
        return _round_bound(e, record, node)
    conditions = (SideCondition(FEED_WITHIN, (feed, sigma, beta),
                                _within_text),)
    if prior is None:
        lead = (DerivationNode(
                    "axiom:dim3-embedding",
                    f"L(m={j}, e={e}) embeds smoothly in R^{alpha_dim} "
                    "(every 3-dim lens space does)"),
                DerivationNode(
                    "axiom:dim3-normal-frame",
                    f"the R^{alpha_dim} embedding of L({j}, e) has trivial "
                    f"normal {sigma}-plane bundle: sigma = {sigma} "
                    "independent normal sections"))
    else:
        lead = (ignite, prior.derivation)
        if ell > 1:
            text = (_reuse_text if lam else _one_higher_text if mu == 1
                    else _from_prior_text)
            conditions += (SideCondition(BETA_FROM_PRIOR, (beta, prior.dim),
                                         text),)
    node = step_node(rule_id, k, j, e, alpha_dim, beta, sigma, radon,
                     lead + (feed_node(mu, ell, e, lam, feed),), conditions)
    return _round_bound(e, record, node)


# --- the kinds of the side conditions, each with the check that replays
# it from the witness (the check's parameters name the witness's fields, in
# order), and the texts that `derive` prints ---------------------------------

SECTIONS_EXCEED = ConditionKind(
    "sections-exceed", lambda sigma, beta, j: sigma + beta > 4 * j + 2)


def _exceed_text(sigma, beta, j):
    return f"sigma + beta = {sigma + beta} > 4j + 2 = {4 * j + 2}"


def _boundary_radon(sigma: int, beta: int, j: int, k: int, a: int,
                    b: int) -> bool:
    if sigma + beta != 4 * j + 2:
        return False
    return (a, b) == radon_pair(nu(2 * j + 2)) and 2 * k + 3 <= 8 * a + 2**b


BOUNDARY_RADON = ConditionKind("boundary-radon", _boundary_radon)


def _radon_text(sigma, beta, j, k, a, b):
    return (f"sigma + beta = 4j + 2 = {4 * j + 2} and 2k + 3 = {2 * k + 3} <= "
            f"8a + 2^b = {8 * a + 2**b} (nu(2j+2) = {4 * a + b} = 4*{a}+{b})")


AMBIENT_SUM = ConditionKind(
    "ambient-sum", lambda alpha, beta, dim: dim == alpha + beta + 1)


def _ambient_text(alpha, beta, dim):
    return f"ambient = alpha + beta + 1 = {alpha}+{beta}+1 = {dim}"


# `inductive._feed_admissible` is looked up at each replay, so the gate
# and the replay of its condition are one predicate
FEEDING_ADMISSIBLE = ConditionKind(
    "feeding-admissible",
    lambda mu, ell, e: inductive._feed_admissible(mu, ell, e))


def _admissible_text(mu, ell, e):
    return f"feed defined for mu={mu}, ell={ell}, e={e}"


FEEDING_AMBIENT = ConditionKind(
    "feeding-ambient",
    lambda mu, ell, lam, ambient:
    embedding_gate(feeding_params(mu, ell, lam)) == ambient)


def _feed_ambient_text(mu, ell, lam, ambient):
    return (f"gate: 2m+d+1 = {ambient} = 4i+3-lam "
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


FEEDING_CERTIFICATE = ConditionKind("feeding-certificate", _feed_certificate)

_ROUTE_TEXT = {1: "fiber connectivity", 2: "Davis-Mahowald gate",
               3: "low-multiple lifting"}


def _certificate_text(mu, ell, lam, route):
    return f"lifting certified via {_ROUTE_TEXT[route]}"


SECTIONS_TABLE = ConditionKind(
    "sections-table", lambda k, e, sigma: sections_table(k, e) == sigma)


def _table_text(k, e, sigma):
    return f"tabulated sigma(k={k}, e={e}) = {sigma}"


FEED_WITHIN = ConditionKind(
    "feed-within", lambda feed, sigma, beta: feed <= sigma + beta)


def _within_text(feed, sigma, beta):
    return f"feeding ambient {feed} fits inside R^(sigma+beta) = R^{sigma + beta}"


BETA_FROM_PRIOR = ConditionKind(
    "beta-from-prior", lambda beta, prior: prior <= beta <= prior + 1)


def _reuse_text(beta, prior):
    return f"beta = {beta} reuses the prior round output"


def _one_higher_text(beta, prior):
    return f"beta = {beta} is one higher than the prior round output {prior}"


def _from_prior_text(beta, prior):
    return f"beta = {beta} from the prior round output {prior}"


WEAKENING = ConditionKind("weakening", lambda have, use: have <= use)


def _weakening_text(have, use):
    return f"embedding in R^{have} persists into R^{use}"
