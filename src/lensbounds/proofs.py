"""The proof layer of the inductive rounds: derivation trees on demand.

`inductive.Rounds` gates every step as plain integers, in `records`, and
keeps no record.  Its first `pairs` (`verify`) or `prove` (`derive`) call
loads this module and makes a `ProofLayer`, which turns the records of
each step it proves, gated by `records` (which is the check of those
steps: the integer pass skips them), into DerivationNodes.
`query` and `table` never load this module.
"""

from __future__ import annotations

import weakref

from .inductive import Rounds, _category, _feed_route, _round_bound, _Step
from .records import Bound, DerivationNode, SideCondition


def step_node(rule_id: str, k: int, j: int, e: int, alpha_dim: int,
              beta_dim: int, sigma: int, radon: tuple[int, ...],
              premises: tuple[DerivationNode, ...],
              extra_conditions: tuple[SideCondition, ...]) -> DerivationNode:
    """The derivation of the step L(k+j+1, e) in R^(alpha+beta+1) whose
    gate `radon` fired (see `inductive._gate`): () for the strict gate,
    (a, b) for the boundary one."""
    total, need = sigma + beta_dim, 4 * j + 2
    if radon:
        a, b = radon
        gate = SideCondition.make(
            "boundary-radon",
            f"sigma + beta = 4j + 2 = {need} and 2k + 3 = {2 * k + 3} <= "
            f"8a + 2^b = {8 * a + 2**b} (nu(2j+2) = {4 * a + b} = 4*{a}+{b})",
            sigma=sigma, beta=beta_dim, j=j, k=k, a=a, b=b)
    else:
        gate = SideCondition.make(
            "sections-exceed",
            f"sigma + beta = {total} > 4j + 2 = {need}",
            sigma=sigma, beta=beta_dim, j=j)
    m, dim = k + j + 1, alpha_dim + beta_dim + 1
    conditions = (gate,
                  SideCondition.make(
                      "ambient-sum",
                      f"ambient = alpha + beta + 1 = {alpha_dim}+{beta_dim}+1 = {dim}",
                      alpha=alpha_dim, beta=beta_dim, dim=dim),
                  ) + extra_conditions
    return DerivationNode(
        rule_id, f"L(m={m}, e={e}) embeds ({_category(m, dim)}) in R^{dim}",
        premises, conditions)


def feed_node(mu: int, ell: int, e: int, lam: int,
              ambient: int) -> DerivationNode:
    """The feed 2^mu*eta over L(i, e), i = 2^mu*ell - 1, in the ambient
    `inductive._feed_ambient` gave: the gate's 2m+d+1 for the instance
    `feeding_params(mu, ell, lam)`."""
    i = 2**mu * ell - 1
    route = _feed_route(mu, ell, lam)
    route_text = {1: "fiber connectivity", 2: "Davis-Mahowald gate",
                  3: "low-multiple lifting"}[route]
    conditions = (
        SideCondition.make(
            "feeding-admissible",
            f"feed defined for mu={mu}, ell={ell}, e={e}",
            mu=mu, ell=ell, e=e),
        SideCondition.make(
            "feeding-ambient",
            f"gate: 2m+d+1 = {ambient} = 4i+3-lam (i={i}, lam={lam})",
            mu=mu, ell=ell, lam=lam, ambient=ambient),
        SideCondition.make(
            "feeding-certificate",
            f"lifting certified via {route_text}",
            mu=mu, ell=ell, lam=lam, route=route),
    )
    return DerivationNode(
        "feeding",
        f"{2**mu}*eta over L({i}, e={e}) embeds in R^{ambient}",
        (), conditions)


def igniting_node(k: int, e: int, sigma: int) -> DerivationNode:
    """The tabulated embedding L(k, e) in R^(4k+2) with sigma sections."""
    cond = SideCondition.make(
        "sections-table", f"tabulated sigma(k={k}, e={e}) = {sigma}",
        k=k, e=e, sigma=sigma)
    return DerivationNode(
        "axiom:igniting",
        f"L({k}, e={e}) embeds smoothly in R^{4 * k + 2} with "
        f"{sigma} independent normal sections", (), (cond,))


def _feed_within(feed: int, sigma: int, beta: int) -> SideCondition:
    return SideCondition.make(
        "feed-within",
        f"feeding ambient {feed} fits inside R^(sigma+beta) = R^{sigma + beta}",
        feed=feed, sigma=sigma, beta=beta)


class ProofLayer:
    """The derivations of one round builder's outputs, built as far as
    asked, each node once.

    `outputs(mu, ell)` proves every output of one step and keeps them in
    `_outputs`; `pairs` reads every step up to m through it.  Every step's
    main output is the next step's prior, so proving step ell first proves
    the mains of the steps below it, which `_mains[mu]` keeps by ell - 1.
    Each step is gated once, by `Rounds.records`, and enters neither memo
    before all of it is built, so an exception leaves the layer at its last
    good step.  The layer holds its builder by a weak proxy, so a builder
    that is dropped frees its derivations at once, with no cycle left for
    the garbage collector.
    """

    def __init__(self, rounds: Rounds) -> None:
        self.rounds = weakref.proxy(rounds)
        self.proved = 2  # every pair with m <= proved has its derivation
        self._mains: dict[int, list[Bound]] = {1: [], 2: []}
        self._outputs: dict[tuple[int, int], list[Bound]] = {}
        self._ign: dict[int, DerivationNode] = {}  # L(k, e), k = 2^mu - 1

    def pairs(self, max_m: int) -> tuple[tuple[int, Bound], ...]:
        """The round-1 pairs with m <= max_m, then the round-2 ones; each
        step not proved yet is gated and checked as it is proved."""
        pairs = tuple((2**mu * (ell + 1) - 1, bound) for mu in (1, 2)
                      for ell in range(1, (max_m + 1) // 2**mu)
                      for bound in self.outputs(mu, ell))
        self.proved = max(self.proved, max_m)
        return pairs

    def outputs(self, mu: int, ell: int,
                records: tuple[_Step, ...] | None = None) -> list[Bound]:
        """Every output of step ell of round mu, in the order of
        `Rounds.records`, from `records` when the caller has gated the
        step already."""
        outputs = self._outputs.get((mu, ell))
        if outputs is None:
            outputs = self._outputs[mu, ell] = self._prove(mu, ell, records)
        return outputs

    def roots(self):
        """The derivation of every output proved so far (with repeats)."""
        for outputs in (*self._mains.values(), *self._outputs.values()):
            for bound in outputs:
                yield bound.derivation

    def _ignite(self, mu: int) -> DerivationNode:
        node = self._ign.get(mu)
        if node is None:
            rounds = self.rounds
            node = self._ign[mu] = igniting_node(2**mu - 1, rounds.e,
                                                 rounds.sigma[mu])
        return node

    def _step(self, mu: int, m: int, record: _Step, alpha_dim: int,
              sigma: int, feed: DerivationNode, lead: tuple,
              extra: tuple[SideCondition, ...] = ()) -> Bound:
        """The output of `record`, round mu at m, with its derivation:
        premises `lead`, then the feed."""
        rule_id, _, radon, beta, feed_dim = record
        e, k = self.rounds.e, 2**mu - 1
        node = step_node(
            rule_id, k, m - k - 1, e, alpha_dim, beta, sigma, radon,
            lead + (feed,), (_feed_within(feed_dim, sigma, beta),) + extra)
        return _round_bound(e, mu, m, record, node)

    def _chained(self, mu: int, ell: int, record: _Step, prior: Bound,
                 lam: int) -> Bound:
        """The output of `record`, step ell >= 2 of round mu, on the prior
        main output: the main (lam = 0) or the sharpened one (lam = 1)."""
        rounds, k, beta = self.rounds, 2**mu - 1, record[3]
        if lam:
            text = f"beta = {beta} reuses the prior round output"
        else:
            beta_from = "is one higher than" if mu == 1 else "from"
            text = (f"beta = {beta} {beta_from} the prior round output "
                    f"{prior.dim}")
        return self._step(
            mu, 2**mu * (ell + 1) - 1, record, 4 * k + 2, rounds.sigma[mu],
            feed_node(mu, ell, rounds.e, lam, record[4]),
            (self._ignite(mu), prior.derivation),
            (SideCondition.make("beta-from-prior", text, beta=beta,
                                prior=prior.dim),))

    def _main(self, mu: int, ell: int) -> Bound:
        """The main output of step ell of round mu, proving the mains of
        the steps below it first."""
        mains = self._mains[mu]
        for n in range(len(mains) + 1, ell + 1):
            mains.append(self.outputs(mu, 1)[-1] if n == 1 else self._chained(
                mu, n, self.rounds.records(mu, n)[0], mains[-1], 0))
        return mains[ell - 1]

    def _prove(self, mu: int, ell: int,
               records: tuple[_Step, ...] | None) -> list[Bound]:
        """Every output of step ell of round mu, gated once (here, unless
        `records` is given); the main joins `_mains` with the others."""
        if records is None:
            records = self.rounds.records(mu, ell)
        if ell == 1:
            return self._ground1(records) if mu == 1 else self._ground2(records)
        prior, mains = self._main(mu, ell - 1), self._mains[mu]
        main = (mains[ell - 1] if len(mains) >= ell
                else self._chained(mu, ell, records[0], prior, 0))
        outputs = [main] + [self._chained(mu, ell, r, prior, 1)
                            for r in records[1:]]
        if len(mains) < ell:
            mains.append(main)
        return outputs

    def _ground1(self, records: tuple[_Step, ...]) -> list[Bound]:
        """L(3, e) in R^11: the step k = j = 1 from R^5, sigma = 2."""
        e = self.rounds.e
        (record,) = records
        dim3 = DerivationNode(
            "axiom:dim3-embedding",
            f"L(m=1, e={e}) embeds smoothly in R^5 (every 3-dim lens "
            "space does)")
        frame = DerivationNode(
            "axiom:dim3-normal-frame",
            "the R^5 embedding of L(1, e) has trivial normal 2-plane "
            "bundle: sigma = 2 independent normal sections")
        return [self._step(1, 3, record, 5, 2,
                           feed_node(1, 1, e, 0, record[4]), (dim3, frame))]

    def _ground2(self, records: tuple[_Step, ...]) -> list[Bound]:
        """The special triple (e <= 2), then the ground L(7, e)."""
        rounds, e = self.rounds, self.rounds.e
        *special, base = records
        outputs = [self._step(2, 7, record, 14, rounds.sigma[2],
                              feed_node(2, 1, e, 0, record[4]),
                              (self._ignite(2), self._main(1, 1).derivation))
                   for record in special]
        if e >= 3:
            have_node = self._main(1, 3).derivation
        elif e == 2:
            have_node = outputs[0].derivation
        else:
            have_node = DerivationNode(
                "axiom:pl-seed",
                "PL embedding of the 15-dimensional 2-torsion space in R^23 "
                "(external input)")
        rule_id, dim, _, have_dim, _ = base
        node = DerivationNode(
            rule_id, f"L(m=7, e={e}) embeds in R^{dim}", (have_node,),
            (SideCondition.make(
                "weakening",
                f"embedding in R^{have_dim} persists into R^{dim}",
                have=have_dim, use=dim),))
        return outputs + [_round_bound(e, 2, 7, base, node)]
