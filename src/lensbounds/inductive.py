"""Inductive construction of lens-space embeddings, with derivation trees.

One inductive *round* fixes a small k and repeatedly applies the step: from
a smooth embedding of L(k, e) in R^alpha carrying sigma independent normal
sections, an embedding of L(j, e) in R^beta, and an embedding of the
(k+1)-fold bundle over L(j, e) in R^(sigma+beta), produce a (topological)
embedding of L(k+j+1, e) in R^(alpha+beta+1) whenever one of two numeric
gates holds.  Round mu runs k = 2^mu - 1 and reaches m = 2^mu (ell+1) - 1
at step ell.  `round_forms` is the one closed-form table of both rounds:
the builder checks every output against it and the catalog reads it, and
`verify` recomputes it independently.  Every step is recorded as a
DerivationNode whose side conditions replay from stored integer witnesses.

The third round (k=7) is deliberately not run: it yields nothing new for
e >= 2, and the larger section counts sometimes quoted for e = 1 rest on
improperly argued immersions.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .dyadic import alpha, nu, radon_pair
from .lifting import (davis_mahowald_check, embedding_gate, feeding_params,
                      sharpening_drop)
from .records import (Bound, Category, DerivationNode, Direction,
                      RoundsDivergenceError, SideCondition,
                      metastable_smoothable, register_condition)


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


def _replay_feed_certificate(v: dict[str, int]) -> bool:
    route = _feed_route(v["mu"], v["ell"], v["lam"])
    if route != v["route"]:
        return False
    if route == 1:
        return v["mu"] == 1 and v["lam"] == 0
    if route == 2:
        return davis_mahowald_check(v["ell"]).ok
    return alpha(v["ell"]) == 1


def _replay_boundary_radon(v: dict[str, int]) -> bool:
    if v["sigma"] + v["beta"] != 4 * v["j"] + 2:
        return False
    a, b = radon_pair(nu(2 * v["j"] + 2))
    return (a, b) == (v["a"], v["b"]) and 2 * v["k"] + 3 <= 8 * a + 2**b


register_condition(
    "sections-exceed",
    lambda v: v["sigma"] + v["beta"] > 4 * v["j"] + 2)
register_condition("boundary-radon", _replay_boundary_radon)
register_condition(
    "feed-within",
    lambda v: v["feed"] <= v["sigma"] + v["beta"])
register_condition(
    "ambient-sum",
    lambda v: v["dim"] == v["alpha"] + v["beta"] + 1)
register_condition(
    "beta-from-prior",
    lambda v: v["prior"] <= v["beta"] <= v["prior"] + 1)
register_condition(
    "weakening",
    lambda v: v["have"] <= v["use"])
register_condition(
    "sections-table",
    lambda v: sections_table(v["k"], v["e"]) == v["sigma"])
register_condition(
    "feeding-admissible",
    lambda v: _feed_admissible(v["mu"], v["ell"], v["e"]))
register_condition(
    "feeding-ambient",
    lambda v: embedding_gate(feeding_params(v["mu"], v["ell"], v["lam"]))
    == v["ambient"])
register_condition("feeding-certificate", _replay_feed_certificate)


def inductive_step(k: int, j: int, e: int, alpha_dim: int, beta_dim: int,
                   sigma: int, premises: tuple[DerivationNode, ...] = (),
                   rule_id: str = "inductive-step",
                   extra_conditions: tuple[SideCondition, ...] = (),
                   external: bool = False) -> Bound | None:
    """One application of the inductive step, if a gate fires.

    The caller vouches for the three hypothesis embeddings (ideally as
    premise nodes): L(k,e) in R^alpha_dim with sigma normal sections,
    L(j,e) in R^beta_dim, and the (k+1)-fold bundle over L(j,e) in
    R^(sigma+beta_dim).  Gate (strict): sigma+beta > 4j+2.  Gate
    (boundary): sigma+beta = 4j+2 and 2k+3 <= 8a+2^b where
    nu(2j+2) = 4a+b, 0 <= b <= 3.  Returns the upper bound
    alpha_dim+beta_dim+1 for L(k+j+1, e), or None if neither gate fires.
    """
    total = sigma + beta_dim
    need = 4 * j + 2
    if total > need:
        gate = SideCondition.make(
            "sections-exceed",
            f"sigma + beta = {total} > 4j + 2 = {need}",
            sigma=sigma, beta=beta_dim, j=j)
    elif total == need:
        a, b = radon_pair(nu(2 * j + 2))
        if 2 * k + 3 > 8 * a + 2**b:
            return None
        gate = SideCondition.make(
            "boundary-radon",
            f"sigma + beta = 4j + 2 = {need} and 2k + 3 = {2 * k + 3} <= "
            f"8a + 2^b = {8 * a + 2**b} (nu(2j+2) = {nu(2 * j + 2)} = 4*{a}+{b})",
            sigma=sigma, beta=beta_dim, j=j, k=k, a=a, b=b)
    else:
        return None
    m_out = k + j + 1
    dim = alpha_dim + beta_dim + 1
    conditions = (gate,
                  SideCondition.make(
                      "ambient-sum",
                      f"ambient = alpha + beta + 1 = {alpha_dim}+{beta_dim}+1 = {dim}",
                      alpha=alpha_dim, beta=beta_dim, dim=dim),
                  ) + extra_conditions
    manifold_dim = 2 * m_out + 1
    smooth = metastable_smoothable(manifold_dim, dim)
    category = Category.SMOOTH if smooth else Category.TOPOLOGICAL
    node = DerivationNode(
        rule_id, f"L(m={m_out}, e={e}) embeds ({category}) in R^{dim}",
        premises, conditions)
    return Bound(Direction.UPPER, dim, category, rule_id,
                 "inductive step over the double mapping cylinder "
                 f"decomposition (k={k}, j={j})",
                 derivation=node, external=external, metastable=smooth)


def _feed_node(mu: int, ell: int, e: int, lam: int) -> tuple[DerivationNode, int]:
    """The feed 2^mu*eta over L(i, e), i = 2^mu*ell - 1, in R^(4i+3-lam)
    and that ambient; raises RoundsDivergenceError if it is inadmissible or
    its gate is off that closed form."""
    if not _feed_admissible(mu, ell, e):
        raise RoundsDivergenceError(
            f"no feeding embedding at mu={mu}, ell={ell}, e={e}")
    inst = feeding_params(mu, ell, lam)
    ambient = embedding_gate(inst)
    if ambient != 4 * inst.n + 3 - lam:
        raise RoundsDivergenceError(
            f"{'sharpened ' * lam}feeding gate gives R^{ambient}, not "
            f"R^{4 * inst.n + 3 - lam}, at mu={mu}, ell={ell}")
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
            f"gate: 2m+d+1 = {2 * inst.m + inst.d + 1} = 4i+3-lam "
            f"(i={inst.n}, lam={lam})",
            mu=mu, ell=ell, lam=lam, ambient=ambient),
        SideCondition.make(
            "feeding-certificate",
            f"lifting certified via {route_text}",
            mu=mu, ell=ell, lam=lam, route=route),
    )
    return DerivationNode(
        "feeding",
        f"{2**mu}*eta over L({inst.n}, e={e}) embeds in R^{ambient}",
        (), conditions), ambient


def _igniting_node(k: int, e: int) -> DerivationNode:
    """The tabulated embedding L(k, e) in R^(4k+2) with its section count."""
    sigma = sections_table(k, e)
    if sigma is None:
        raise RoundsDivergenceError(
            f"no tabulated igniting embedding for k={k}, e={e}")
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


def _check_form(bound: Bound, expected: int, m: int, e: int) -> Bound:
    if bound is None or bound.dim != expected:
        got = "nothing" if bound is None else f"R^{bound.dim}"
        raise RoundsDivergenceError(
            f"round output diverges from closed form at (m={m}, e={e}): "
            f"expected R^{expected}, derived {got}")
    return bound


class Rounds:
    """Both inductive rounds for one e, built incrementally.

    `extend(max_m)` resumes both round loops where the last call stopped,
    so building up to m costs O(m) in all, however many calls it takes.
    `round_pairs[mu]` holds the (m, bound) pairs of round mu in derivation
    order, in ascending m, and `by_m` maps m to its bounds, round 1 first,
    since `extend` runs round 1 up to max_m before round 2.  Every pair is
    checked against `round_forms` before any pair of the same ell is
    stored, so a RoundsDivergenceError leaves the builder as it was after
    the last good ell.
    """

    def __init__(self, e: int) -> None:
        self.e = e
        self.built = 2  # every pair with m <= built is stored
        self.round_pairs: dict[int, list[tuple[int, Bound]]] = {1: [], 2: []}
        self.by_m: dict[int, list[Bound]] = {}
        # per round, the main output of each step by ell - 1 (the next
        # step's prior), and the igniting node L(k, e), k = 2^mu - 1
        self._cols: dict[int, list[Bound]] = {1: [], 2: []}
        self._ign = {mu: _igniting_node(2**mu - 1, e) for mu in (1, 2)}

    def _store(self, mu: int, pairs: list[tuple[int, Bound]]) -> None:
        self.round_pairs[mu].extend(pairs)
        for m, bound in pairs:
            self.by_m.setdefault(m, []).append(bound)

    def extend(self, max_m: int) -> None:
        """Build every pair with m <= max_m that is not built yet."""
        if max_m <= self.built:
            return
        if not self._cols[1]:
            self._ground_round1()
        self._extend_round(1, max_m)
        if max_m >= 7:
            if not self._cols[2]:
                self._ground_round2()
            self._extend_round(2, max_m)
        self.built = max_m

    def _extend_round(self, mu: int, max_m: int) -> None:
        """Round mu (k = 2^mu - 1): step ell gives m = 2^mu (ell + 1) - 1."""
        e, k, col = self.e, 2**mu - 1, self._cols[mu]
        ign = self._ign[mu]
        sigma = sections_table(k, e)
        # the e = 1 second round rests on the external PL seed
        external = mu == 2 and e == 1
        beta_from = "is one higher than" if mu == 1 else "from"
        # one rule-id string per round, shared by all of its bounds
        step_rule, sharp_rule = f"round{mu}:step", f"round{mu}:sharp"
        for ell in range(len(col) + 1, (max_m + 1) // 2**mu):
            m, j = 2**mu * (ell + 1) - 1, 2**mu * ell - 1
            prior = col[ell - 2]
            prior_dim, prior_node = prior.dim, prior.derivation
            main, sharp_dim = round_forms(mu, ell, e)
            beta = round_forms(mu, ell - 1, e)[0] + 1
            feed, feed_dim = _feed_node(mu, ell, e, 0)
            step = inductive_step(
                k, j, e, 4 * k + 2, beta, sigma,
                premises=(ign, prior_node, feed),
                rule_id=step_rule,
                extra_conditions=(
                    _feed_within(feed_dim, sigma, beta),
                    SideCondition.make(
                        "beta-from-prior",
                        f"beta = {beta} {beta_from} the prior round output "
                        f"{prior_dim}",
                        beta=beta, prior=prior_dim)),
                external=external)
            pairs = [(m, _check_form(step, main, m, e))]
            if sharp_dim is not None:
                feed_s, feed_s_dim = _feed_node(mu, ell, e, 1)
                sharp = inductive_step(
                    k, j, e, 4 * k + 2, prior_dim, sigma,
                    premises=(ign, prior_node, feed_s),
                    rule_id=sharp_rule,
                    extra_conditions=(
                        _feed_within(feed_s_dim, sigma, prior_dim),
                        SideCondition.make(
                            "beta-from-prior",
                            f"beta = {prior_dim} reuses the prior round output",
                            beta=prior_dim, prior=prior_dim)),
                    external=external)
                pairs.append((m, _check_form(sharp, sharp_dim, m, e)))
            col.append(step)
            self._store(mu, pairs)

    def _ground_round1(self) -> None:
        """Store the m = 3 pair of round 1: the step k = j = 1 from R^5."""
        e = self.e
        dim3 = DerivationNode(
            "axiom:dim3-embedding",
            f"L(m=1, e={e}) embeds smoothly in R^5 (every 3-dim lens "
            "space does)")
        frame = DerivationNode(
            "axiom:dim3-normal-frame",
            "the R^5 embedding of L(1, e) has trivial normal 2-plane "
            "bundle: sigma = 2 independent normal sections")
        feed, feed_dim = _feed_node(1, 1, e, 0)
        base1 = inductive_step(
            1, 1, e, 5, 5, 2,
            premises=(dim3, frame, feed),
            rule_id="round1:base",
            extra_conditions=(_feed_within(feed_dim, 2, 5),))
        base1 = _check_form(base1, round_forms(1, 1, e)[0], 3, e)
        self._cols[1].append(base1)
        self._store(1, [(3, base1)])

    def _ground_round2(self) -> None:
        """Store the m = 7 pairs of round 2: the special triple (e <= 2)
        and the ground L(7, e) in R^(17 + delta(e))."""
        e = self.e
        col1 = self._cols[1]
        sigma3 = sections_table(3, e)
        pairs = []
        special_node = None
        if e <= 2:
            feed, feed_dim = _feed_node(2, 1, e, 0)
            special = inductive_step(
                3, 3, e, 14, col1[0].dim, sigma3,
                premises=(self._ign[2], col1[0].derivation, feed),
                rule_id="round2:special",
                extra_conditions=(_feed_within(feed_dim, sigma3, col1[0].dim),))
            special = _check_form(special, ROUND2_SPECIAL, 7, e)
            pairs.append((7, special))
            special_node = special.derivation

        base_dim = 17 + delta_e(e)
        if e >= 3:
            have_node, have_dim = col1[2].derivation, col1[2].dim
        elif e == 2:
            have_node, have_dim = special_node, ROUND2_SPECIAL
        else:
            have_node = DerivationNode(
                "axiom:pl-seed",
                "PL embedding of the 15-dimensional 2-torsion space in R^23 "
                "(external input)")
            have_dim = 23
        base2 = Bound(
            Direction.UPPER, base_dim,
            Category.SMOOTH if metastable_smoothable(15, base_dim)
            else Category.TOPOLOGICAL,
            "round2:base", "ground of the second inductive round",
            derivation=DerivationNode(
                "round2:base",
                f"L(m=7, e={e}) embeds in R^{base_dim}",
                (have_node,),
                (SideCondition.make(
                    "weakening",
                    f"embedding in R^{have_dim} persists into R^{base_dim}",
                    have=have_dim, use=base_dim),)),
            external=e == 1,
            metastable=metastable_smoothable(15, base_dim))
        pairs.append((7, base2))
        self._cols[2].append(base2)
        self._store(2, pairs)

    def pairs(self, max_m: int) -> tuple[tuple[int, Bound], ...]:
        """The round-1 pairs with m <= max_m, then the round-2 ones."""
        self.extend(max_m)
        out: list[tuple[int, Bound]] = []
        for column in self.round_pairs.values():
            out += column[:bisect_right(column, max_m, key=itemgetter(0))]
        return tuple(out)

    def at(self, m: int) -> tuple[Bound, ...]:
        """The bounds derived for exactly this m, in derivation order.

        Builds the whole doubling block of m first, up to the least power
        of two >= m, so the first lookup costs the same time and memory for
        every m in (2^(t-1), 2^t], and a table that looks up every m up to
        a power of two builds exactly that far.
        """
        self.extend(1 << max(0, m - 1).bit_length())
        return tuple(self.by_m.get(m, ()))


_ROUNDS: dict[int, Rounds] = {}


def rounds(e: int) -> Rounds:
    """The process-wide builder for e, so every caller shares one build."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    builder = _ROUNDS.get(e)
    if builder is None:
        builder = _ROUNDS[e] = Rounds(e)
    return builder


def derive_rounds(e: int, max_m: int) -> tuple[tuple[int, Bound], ...]:
    """All (m, bound) pairs the two rounds produce for m <= max_m, in
    derivation order (round 1, then round 2, each in ascending m), each
    bound verified against its closed form.

    The pairs come from the shared builder for e (see `rounds`), which
    builds each m once per process; nodes are shared between the bounds,
    so the whole build is small.
    """
    builder = rounds(e)
    if max_m < 3:
        raise ValueError(f"need max_m >= 3, got {max_m}")
    return builder.pairs(max_m)


def run_rounds(e: int, max_m: int) -> dict[int, Bound]:
    """Best derived upper bound per manifold parameter m <= max_m.

    Every produced bound is checked against its closed form; any mismatch
    raises RoundsDivergenceError naming the offending (m, e).
    """
    best: dict[int, Bound] = {}
    for m, bound in derive_rounds(e, max_m):
        if m not in best or bound.dim < best[m].dim:
            best[m] = bound
    return best
