"""Numeric gates certifying the bundle ("feeding") embeddings.

The inductive engine consumes embeddings of Whitney multiples
2^mu * eta over L(i, e) into R^(4i+3) (and a one-dimension sharpening).
Their existence reduces to arithmetic: an embedding gate on the triple
(n, m, d) describing the normal representative, a parity/digit-sum rule
deciding when the sharpened variant applies, and the Davis-Mahowald
lifting conditions evaluated symbolically for N >> 0.
"""

from __future__ import annotations

from collections import namedtuple

from .dyadic import alpha, hurwitz_radon, nu, nu_binom_sym
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


def embedding_gate(inst: LiftInstance) -> int | None:
    """Ambient dimension 2m+d+1 for (m-n)eta over L(n, e), when certified.

    Passes outright when 2m+d > 4n+1 (general position); on the boundary
    2m+d = 4n+1 it additionally needs 2(m-n) <= F(2n+1), the Hurwitz-Radon
    vector-field count of the covering sphere.
    """
    total = 2 * inst.m + inst.d
    margin = total - (4 * inst.n + 1)
    if margin > 0:
        return total + 1
    if margin == 0 and 2 * (inst.m - inst.n) <= hurwitz_radon(2 * inst.n + 1):
        return total + 1
    return None


def feeding_params(mu: int, ell: int, lam: int) -> LiftInstance:
    """The gate instance behind the feeding embedding for (mu, ell).

    n = 2^mu*ell - 1, m = 2^mu*(ell+1) - 1, d = 2^(mu+1)*(ell-1) - lam.
    Rejected when the drop would make d negative (ell = 1).
    """
    if mu not in (1, 2):
        raise ValueError(f"mu must be 1 or 2, got {mu}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if lam not in (0, 1):
        raise ValueError(f"lam must be 0 or 1, got {lam}")
    d = 2 ** (mu + 1) * (ell - 1) - lam
    if d < 0:
        raise ValueError(f"fiber dimension would be negative (ell={ell}, lam={lam})")
    return LiftInstance(n=2**mu * ell - 1, m=2**mu * (ell + 1) - 1, d=d)


# the gate's verdict and the valuations of C(p, 4l-4) and C(p, 4l-2)
DMResult = namedtuple("DMResult", "ok nu1 nu2")


def davis_mahowald_check(ell: int) -> DMResult:
    """Davis-Mahowald lifting conditions for the mu=2 sharpened feed.

    With p = 2**N - 4(ell+1) for N >> 0, the conditions are
    nu(C(p, 4ell-4)) >= 1, nu(C(p, 4ell-2)) >= 3, and 2(2ell-3) >= 2.
    The two valuations close to alpha(ell)-1 and alpha(ell-1)+2, so the
    whole gate is equivalent to alpha(ell) >= 2.  Both come from
    `nu_binom_sym` with no N term, and each is compared with its closed
    form as a plain (n_coeff, constant) pair, which a SymbolicCount equals.
    """
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    a = 4 * (ell + 1)
    a_ell = alpha(ell)
    nu1 = nu_binom_sym(a, 4 * ell - 4)
    nu2 = nu_binom_sym(a, 4 * ell - 2)
    if nu1 != (0, a_ell - 1):
        raise RoundsDivergenceError(
            f"nu(C(p, 4l-4)) = {nu1} off its closed form at ell={ell}")
    if nu2 != (0, alpha(ell - 1) + 2):
        raise RoundsDivergenceError(
            f"nu(C(p, 4l-2)) = {nu2} off its closed form at ell={ell}")
    if nu2.constant != a_ell + 1 + nu(ell):
        raise RoundsDivergenceError(
            f"nu(C(p, 4l-2)) = {nu2} disagrees with alpha(ell) + 1 + nu(ell) "
            f"at ell={ell}")
    ok = (nu1.is_at_least(1) and nu2.is_at_least(3)
          and 2 * (2 * ell - 3) >= 5 - 3)
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
