"""Numeric gates certifying the bundle ("feeding") embeddings.

The inductive engine consumes embeddings of Whitney multiples
2^mu * eta over L(i, e) into R^(4i+3) (and a one-dimension sharpening).
Their existence reduces to arithmetic: one Hurwitz-Radon gate
(`radon_gate`), which certifies both these feeds and the inductive step,
applied here to the triple (n, m, d) describing the normal representative
(`feed_forms` states it once, as linear forms in the round's step ell,
which `feeding_params` evaluates and `verify`'s round-schema proves),
a parity/digit-sum rule deciding when the sharpened variant applies, and
the Davis-Mahowald lifting conditions, whose valuations are the same
integers for every large N.
"""

from __future__ import annotations

from collections import namedtuple

from .dyadic import alpha, nu, nu_binom_sym, radon_pair
from .records import RoundsDivergenceError


class LiftInstance(namedtuple("LiftInstance", "n m d")):
    """Parameters of one gate query.

    The (m-n)-fold multiple of the canonical line bundle over L(n, e) is the
    normal bundle of L(n, e) inside L(m, e); d is the fiber dimension of a
    genuine d-plane bundle representing the stable normal bundle of L(m, e)
    restricted to L(n, e).
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, d: int) -> LiftInstance:
        if not 0 <= n <= m:
            raise ValueError(f"need m >= n >= 0, got n={n}, m={m}")
        if d < 0:
            raise ValueError(f"need d >= 0, got {d}")
        return tuple.__new__(cls, (n, m, d))


def sharpening_drop(ell: int) -> int:
    """1 when the one-dimension sharpening applies (ell even, alpha >= 2)."""
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    return 1 if ell % 2 == 0 and alpha(ell) >= 2 else 0


def radon_gate(n: int, r: int, ambient: int) -> tuple[int, ...] | None:
    """Which gate certifies an r-fold bundle over L(n, e) in R^ambient:
    () for general position, ambient > 4n+2; the radon pair (a, b) of
    nu(2n+2) = 4a+b on the boundary ambient = 4n+2, which also needs
    2r <= F(2n+1) = 8a+2^b-1, the Hurwitz-Radon vector-field count of the
    covering sphere; None for neither."""
    need = 4 * n + 2
    if ambient > need:
        return ()
    if ambient == need:
        a, b = radon_pair(nu(2 * n + 2))
        if 2 * r <= 8 * a + 2**b - 1:
            return a, b
    return None


def embedding_gate(inst: LiftInstance) -> int | None:
    """Ambient dimension 2m+d+1 for (m-n)eta over L(n, e), when
    `radon_gate` certifies it there."""
    ambient = 2 * inst.m + inst.d + 1
    if radon_gate(inst.n, inst.m - inst.n, ambient) is None:
        return None
    return ambient


def feed_forms(mu: int, lam: int) -> tuple[tuple[int, int], ...]:
    """The instance (n, m, d) of the feed of round mu, sharpened by lam,
    for every ell at once, each a linear form c1*ell + c0 as (c1, c0):
    n = 2^mu*ell - 1, m = 2^mu*(ell+1) - 1, d = 2^(mu+1)*(ell-1) - lam.
    `feeding_params` evaluates them, and `verify`'s round-schema proves
    the feed's gate on them for every ell."""
    if mu not in (1, 2):
        raise ValueError(f"mu must be 1 or 2, got {mu}")
    if lam not in (0, 1):
        raise ValueError(f"lam must be 0 or 1, got {lam}")
    p = 2**mu
    return (p, -1), (p, p - 1), (2 * p, -2 * p - lam)


def feeding_params(mu: int, ell: int, lam: int) -> LiftInstance:
    """The gate instance behind the feeding embedding for (mu, ell): the
    forms of `feed_forms` at ell.  Rejected when the drop would make d
    negative (ell = 1).
    """
    (n1, n0), (m1, m0), (d1, d0) = feed_forms(mu, lam)
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    d = d1 * ell + d0
    if d < 0:
        raise ValueError(f"fiber dimension would be negative (ell={ell}, lam={lam})")
    return LiftInstance(n1 * ell + n0, m1 * ell + m0, d)


# the gate's verdict and the valuations of C(p, 4l-4) and C(p, 4l-2)
DMResult = namedtuple("DMResult", "ok nu1 nu2")


def davis_mahowald_check(ell: int) -> DMResult:
    """Davis-Mahowald lifting conditions for the mu=2 sharpened feed.

    With p = 2**N - 4(ell+1) for N >> 0, the conditions are
    nu(C(p, 4ell-4)) >= 1, nu(C(p, 4ell-2)) >= 3, and 2(2ell-3) >= 2.
    The two valuations, from `nu_binom_sym`, are the same integers for
    every such N and close to alpha(ell)-1 and alpha(ell-1)+2, so the
    whole gate is equivalent to alpha(ell) >= 2.
    """
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    a = 4 * (ell + 1)
    a_ell = alpha(ell)
    nu1 = nu_binom_sym(a, 4 * ell - 4)
    nu2 = nu_binom_sym(a, 4 * ell - 2)
    if nu1 != a_ell - 1:
        raise RoundsDivergenceError(
            f"nu(C(p, 4l-4)) = {nu1} off its closed form at ell={ell}")
    if nu2 != alpha(ell - 1) + 2:
        raise RoundsDivergenceError(
            f"nu(C(p, 4l-2)) = {nu2} off its closed form at ell={ell}")
    if nu2 != a_ell + 1 + nu(ell):
        raise RoundsDivergenceError(
            f"nu(C(p, 4l-2)) = {nu2} disagrees with alpha(ell) + 1 + nu(ell) "
            f"at ell={ell}")
    ok = nu1 >= 1 and nu2 >= 3 and 2 * (2 * ell - 3) >= 5 - 3
    return DMResult(ok, nu1, nu2)


def sharper_lifting_level(ell: int) -> int:
    """Smallest certified BO level for the mu=2 lifting at ell.

    Baseline 8(ell-1); one lower when the Davis-Mahowald gate passes; two
    or three lower in the special shapes ell = 4u + 3-like (ell - 3 = 2^a*u
    with a >= 2 and u odd): -2 for u = 1, -3 for u > 1.
    """
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    base = 8 * (ell - 1)
    t = ell - 3
    if t > 0:
        a = nu(t)
        if a >= 2:
            return base - 2 if t >> a == 1 else base - 3
    if davis_mahowald_check(ell).ok:
        return base - 1
    return base
