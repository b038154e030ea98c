"""The proof layer of the inductive rounds: derivation trees on demand.

`inductive.Rounds` evaluates every gate in its integer pass and keeps an
integer record per output.  Its first `pairs` (`verify`) or `prove`
(`derive`) call loads this module and makes a `ProofLayer`, which turns
those records into DerivationNodes without evaluating a gate again.
`query` and `table` read the integer pass alone and never load this
module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

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
    """The derivations of one round builder's outputs, built from its
    integer records as far as asked, each node once.

    Every step's main output is the next step's prior, so proving an
    output of step ell proves the mains of the steps below it, which the
    layer keeps (`_mains`).  `pairs` proves every output up to m and keeps
    them: `round_pairs[mu]` holds the proved (m, bound) pairs of round mu in
    ascending m, and every pair with m <= `proved` is there.  `output`
    proves the outputs of one step and keeps only them and those mains,
    which is all `derive` needs.  A step is stored only once all of it is built, so an exception
    leaves the layer at the last good step.
    """

    def __init__(self, rounds: Rounds) -> None:
        self.rounds = rounds
        self.proved = 2
        self.round_pairs: dict[int, list[tuple[int, Bound]]] = {1: [], 2: []}
        self._paired = {1: 0, 2: 0}  # the steps in round_pairs, per round
        # per round by ell - 1, the main output with its derivation (the
        # next step's prior); the outputs of each ground; the igniting node
        # L(k, e), k = 2^mu - 1
        self._mains: dict[int, list[Bound]] = {1: [], 2: []}
        self._grounds: dict[int, list[Bound]] = {}
        # the outputs `output` proved beyond round_pairs, by (mu, ell)
        self._steps: dict[tuple[int, int], list[Bound]] = {}
        self._ign: dict[int, DerivationNode] = {}

    def pairs(self, max_m: int) -> tuple[tuple[int, Bound], ...]:
        """The round-1 pairs with m <= max_m, then the round-2 ones; the
        builder's integer pass must reach max_m."""
        if max_m > self.proved:
            for mu in (1, 2):
                column = self.round_pairs[mu]
                for ell in range(self._paired[mu] + 1,
                                 min(len(self.rounds.steps[mu]),
                                     (max_m + 1) // 2**mu - 1) + 1):
                    m = 2**mu * (ell + 1) - 1
                    column += [(m, b) for b in self._outputs(mu, ell)]
                    self._paired[mu] = ell
            self.proved = max_m
        out: list[tuple[int, Bound]] = []
        for column in self.round_pairs.values():
            out += column[:bisect_right(column, max_m, key=itemgetter(0))]
        return tuple(out)

    def output(self, mu: int, ell: int, index: int) -> Bound:
        """Output `index` of step ell of round mu, in the order of
        `Rounds.steps`; the builder's integer pass must reach its m."""
        if ell <= self._paired[mu]:
            column, m = self.round_pairs[mu], 2**mu * (ell + 1) - 1
            return column[bisect_left(column, m, key=itemgetter(0)) + index][1]
        outputs = self._steps.get((mu, ell))
        if outputs is None:
            outputs = self._steps[mu, ell] = self._outputs(mu, ell)
        return outputs[index]

    def roots(self):
        """The derivation of every output proved so far (with repeats)."""
        for column in self.round_pairs.values():
            for _, bound in column:
                yield bound.derivation
        for outputs in (*self._mains.values(), *self._grounds.values(),
                        *self._steps.values()):
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

    def _outputs(self, mu: int, ell: int) -> list[Bound]:
        """Every output of step ell of round mu, the main first."""
        if ell == 1:
            return self._ground(mu)
        main = self._main(mu, ell)
        rounds = self.rounds
        _, *sharp = rounds.steps[mu][ell - 1]
        m, k = 2**mu * (ell + 1) - 1, 2**mu - 1
        prior_dim = rounds.mains[mu][ell - 2]
        lead = (self._ignite(mu), self._mains[mu][ell - 2].derivation)
        return [main] + [self._step(
            mu, m, r, 4 * k + 2, rounds.sigma[mu],
            feed_node(mu, ell, rounds.e, 1, r[4]), lead,
            (SideCondition.make(
                "beta-from-prior",
                f"beta = {prior_dim} reuses the prior round output",
                beta=prior_dim, prior=prior_dim),)) for r in sharp]

    def _main(self, mu: int, ell: int) -> Bound:
        """The main output of step ell of round mu, proving the mains of
        the steps below it first."""
        rounds, mains = self.rounds, self._mains[mu]
        e, k, sigma = rounds.e, 2**mu - 1, rounds.sigma[mu]
        beta_from = "is one higher than" if mu == 1 else "from"
        for n in range(len(mains) + 1, ell + 1):
            if n == 1:
                mains.append(self._ground(mu)[-1])
                continue
            record = rounds.steps[mu][n - 1][0]
            beta, prior_dim = record[3], rounds.mains[mu][n - 2]
            mains.append(self._step(
                mu, 2**mu * (n + 1) - 1, record, 4 * k + 2, sigma,
                feed_node(mu, n, e, 0, record[4]),
                (self._ignite(mu), mains[n - 2].derivation),
                (SideCondition.make(
                    "beta-from-prior",
                    f"beta = {beta} {beta_from} the prior round output "
                    f"{prior_dim}",
                    beta=beta, prior=prior_dim),)))
        return mains[ell - 1]

    def _ground(self, mu: int) -> list[Bound]:
        """The outputs of the ground of round mu (m = 2^(mu+1) - 1)."""
        ground = self._grounds.get(mu)
        if ground is None:
            ground = self._grounds[mu] = (self._ground1() if mu == 1
                                          else self._ground2())
        return ground

    def _ground1(self) -> list[Bound]:
        """L(3, e) in R^11: the step k = j = 1 from R^5, sigma = 2."""
        e = self.rounds.e
        (record,) = self.rounds.steps[1][0]
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

    def _ground2(self) -> list[Bound]:
        """The special triple (e <= 2), then the ground L(7, e)."""
        rounds, e = self.rounds, self.rounds.e
        *special, base = rounds.steps[2][0]
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
