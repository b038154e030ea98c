"""Mod-2 cohomology of lens spaces.

The ring on a (2n+1)-dimensional lens space is generated by x (degree 1)
and y (degree 2) subject to y^(n+1) = 0 and x^2 = epsilon*y, with epsilon=1
exactly for 2-torsion (real projective) spaces.  Classes are stored in the
canonical basis {y^j, x*y^j} as two bitmasks (bit j of `even` is the y^j
coefficient, bit j of `odd` the x*y^j coefficient), so ring arithmetic is
carry-less integer arithmetic.
"""

from __future__ import annotations

from collections import namedtuple

from .dyadic import nu_binom
from .records import SpinCriteriaError


class CohomologyRing(namedtuple("CohomologyRing", "n epsilon mask")):
    """Truncation parameters: top power n of y, and epsilon (1 iff e = 1).

    `mask`, the coefficient mask of y^0..y^n, is computed once per ring
    from n, so it is not an argument.
    """

    __slots__ = ()

    def __new__(cls, n: int, epsilon: int) -> CohomologyRing:
        if n < 1:
            raise ValueError(f"ring needs n >= 1, got {n}")
        if epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
        return tuple.__new__(cls, (n, epsilon, (1 << (n + 1)) - 1))

    def __getnewargs__(self) -> tuple[int, int]:
        return self.n, self.epsilon

    def __repr__(self) -> str:
        return f"CohomologyRing(n={self.n!r}, epsilon={self.epsilon!r})"

    @classmethod
    def for_lens(cls, n: int, e: int) -> "CohomologyRing":
        if e < 1:
            raise ValueError(f"torsion exponent must be >= 1, got {e}")
        return cls(n, 1 if e == 1 else 0)

    def zero(self) -> "Mod2Class":
        return Mod2Class(self, 0, 0)

    def one(self) -> "Mod2Class":
        return Mod2Class(self, 1, 0)

    def x(self) -> "Mod2Class":
        return Mod2Class(self, 0, 1)

    def y(self, j: int = 1) -> "Mod2Class":
        return self.monomial(0, j)

    def monomial(self, delta: int, j: int) -> "Mod2Class":
        """Basis element x^delta * y^j (zero if it falls past the top class)."""
        if delta not in (0, 1) or j < 0:
            raise ValueError(f"bad monomial x^{delta} y^{j}")
        if j > self.n:
            return self.zero()
        if delta:
            return Mod2Class(self, 0, 1 << j)
        return Mod2Class(self, 1 << j, 0)


class Mod2Class(namedtuple("Mod2Class", "ring even odd")):
    """Element sum c_{0,j} y^j + c_{1,j} x y^j; masks truncated past y^n.

    Compared and hashed by value.  The verify sweeps build hundreds of
    thousands, so construction is one masking step against the ring's
    precomputed mask.
    """

    __slots__ = ()

    def __new__(cls, ring: CohomologyRing, even: int, odd: int) -> Mod2Class:
        mask = ring.mask
        return tuple.__new__(cls, (ring, even & mask, odd & mask))

    def is_zero(self) -> bool:
        return self.even == 0 and self.odd == 0

    def coefficient(self, delta: int, j: int) -> int:
        if delta not in (0, 1) or j < 0:
            raise ValueError(f"bad basis index x^{delta} y^{j}")
        mask = self.odd if delta else self.even
        return (mask >> j) & 1

    def monomials(self):
        """Yield (delta, j) over the support, even part first, each in
        ascending j."""
        for delta, mask in ((0, self.even), (1, self.odd)):
            while mask:
                low = mask & -mask
                yield delta, low.bit_length() - 1
                mask ^= low

    def __add__(self, other: "Mod2Class") -> "Mod2Class":
        self._check(other)
        return Mod2Class(self.ring, self.even ^ other.even, self.odd ^ other.odd)

    def __mul__(self, other: "Mod2Class") -> "Mod2Class":
        return multiply(self, other)

    def _check(self, other: "Mod2Class") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __str__(self) -> str:
        terms = []
        for delta, j in sorted(self.monomials(), key=lambda dj: dj[1] * 2 + dj[0]):
            part = "x" if delta else ""
            if j:
                part += ("*" if part else "") + ("y" if j == 1 else f"y^{j}")
            terms.append(part or "1")
        return " + ".join(terms) if terms else "0"


def _clmul(p: int, q: int) -> int:
    """Carry-less (GF(2)[y]) product of two coefficient masks, one
    shift-xor per set bit of q."""
    if not p:
        return 0
    r = 0
    while q:
        low = q & -q
        r ^= p * low
        q ^= low
    return r


def multiply(u: Mod2Class, v: Mod2Class) -> Mod2Class:
    """Product in the truncated ring; x^2 rewrites to epsilon*y."""
    u._check(v)
    ring = u.ring
    even = _clmul(u.even, v.even)
    odd = _clmul(u.even, v.odd) ^ _clmul(u.odd, v.even)
    if ring.epsilon:
        even ^= _clmul(u.odd, v.odd) << 1
    return Mod2Class(ring, even, odd)


def _square_term(i: int, delta: int, j: int,
                 epsilon: int) -> tuple[int, int] | None:
    """Sq^i(x^delta y^j) as the basis index (delta', j') of its one term
    before truncation, or None where it vanishes (see `steenrod_square`)."""
    t, rem = divmod(i, 2)
    if t > j or nu_binom(j, t) != 0:
        return None
    if rem == 0:
        return delta, j + t
    if delta and epsilon:
        return 0, j + t + 1
    return None


def steenrod_square(i: int, u: Mod2Class) -> Mod2Class:
    """Sq^i(u), extended additively from the basis.

    On generators the total square is Sq(x) = x + epsilon*y and
    Sq(y) = y + y^2; the Cartan formula then gives, on basis elements,

        Sq^{2t}(y^j)     = C(j, t) y^{j+t}
        Sq^{2t}(x y^j)   = C(j, t) x y^{j+t}
        Sq^{2t+1}(x y^j) = epsilon * C(j, t) y^{j+t+1}

    and all other squares vanish (`_square_term`).  Binomial parity comes
    from the carry count, so no coefficient is ever formed.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    ring = u.ring
    parts = [0, 0]  # even, odd
    for delta, j in u.monomials():
        term = _square_term(i, delta, j, ring.epsilon)
        if term is not None:
            parts[term[0]] ^= 1 << term[1]
    return Mod2Class(ring, *parts)


def _one_plus_y_power(ring: CohomologyRing, power: int) -> Mod2Class:
    """(1 + y)^power, truncated.  By Lucas, it is the product of
    (1 + y^(2^b)) over the set bits b of power, so the class takes one
    shift-xor per set bit, from the low bit up; once 2^b passes y^n, that
    factor and every later one is 1 in the ring."""
    even = 1
    while power:
        low = power & -power
        if low > ring.n:
            break
        even ^= even << low
        power ^= low
    return Mod2Class(ring, even, 0)


def tangential_sw_class(ring: CohomologyRing) -> Mod2Class:
    """Total tangential Stiefel-Whitney class: (1 + y)^(n+1), truncated.

    The stable tangent bundle is the (n+1)-fold Whitney multiple of the
    pulled-back line bundle, whose total class is 1 + y mod 2.
    """
    return _one_plus_y_power(ring, ring.n + 1)


def normal_sw_class(ring: CohomologyRing) -> Mod2Class:
    """Total normal Stiefel-Whitney class: the inverse of the tangential one.

    With 2^K > n, (1 + y)^(2^K) = 1 + y^(2^K) is 1 in the truncated ring,
    so the inverse of (1 + y)^(n+1) is (1 + y)^(2^K - n - 1), formed by the
    shift-xor loop of the tangential class.  Its y^j coefficient is
    C(n+j, j) mod 2 (checked in the tests and by `verify cohomology`, not
    assumed here).
    """
    return _one_plus_y_power(ring, (1 << ring.n.bit_length()) - ring.n - 1)


def is_spin(m: int, e: int) -> bool:
    """Whether the (2m+1)-dimensional 2^e-torsion lens space is spin.

    Two independent routes, which must agree: w2 of the tangential class
    (the manifold is orientable, so w1 = 0), and Wu's formula, under which
    w2 = v2 vanishes exactly when Sq^2 kills H^(2m-1).  Both reduce to
    "m = 0 or m odd".  Each takes O(log m) memory: no ring of the
    (2m+1)-dimensional space, whose classes take m bits, is formed.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    if m == 0:
        return True  # the circle
    # restriction to the 3-dimensional lens space inside is injective on
    # H^2, and there the tangent bundle is that of L^3 plus the normal
    # bundle, m - 1 copies of the canonical bundle, whose class is 1 + y
    low = CohomologyRing.for_lens(1, e)
    w = multiply(tangential_sw_class(low), _one_plus_y_power(low, m - 1))
    via_w2 = w.coefficient(0, 1) == 0
    # H^(2m-1) is spanned by x*y^(m-1); Sq^2 lands in the top degree, 2m+1,
    # which truncation keeps
    via_sq2 = _square_term(2, 1, m - 1, low.epsilon) is None
    if via_w2 != via_sq2:
        raise SpinCriteriaError(
            f"spin criteria disagree at m={m}, e={e}: w2 route {via_w2}, "
            f"Sq^2 route {via_sq2}")
    return via_w2
