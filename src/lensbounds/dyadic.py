"""Exact 2-adic combinatorics.

Everything here works on plain Python integers, so all values are arbitrary
precision: binomial arguments like 2**64 - a never overflow.  The symbolic
side (`SymbolicCount`) carries numbers of the form c1*N + c0 that are valid
for every sufficiently large N, which is how digit sums of 2**N - a are
handled without picking a concrete N.
"""

from __future__ import annotations

from collections import namedtuple


def alpha(n: int) -> int:
    """Binary digit sum of n (number of ones); alpha(0) = 0.

    >>> alpha(23)   # 23 = 0b10111
    4
    """
    if n < 0:
        raise ValueError(f"alpha is defined for n >= 0, got {n}")
    return n.bit_count()


def nu(n: int) -> int:
    """2-adic valuation: the largest t with 2**t dividing n.

    Undefined at 0 (raises rather than returning an infinity sentinel).

    >>> nu(48)      # 48 = 16 * 3
    4
    """
    if n <= 0:
        raise ValueError(f"nu is defined for n >= 1, got {n}")
    return (n & -n).bit_length() - 1


def nu_binom(a: int, b: int) -> int:
    """2-adic valuation of binomial(a, b) via Kummer's carry count.

    Counts the carries when adding b and a-b in base 2; the binomial itself
    is never formed.  Equals alpha(b) + alpha(a-b) - alpha(a).
    """
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    # b ^ (a-b) ^ a is set exactly at the positions that receive a carry.
    return (b ^ (a - b) ^ a).bit_count()


class SymbolicCount(namedtuple("SymbolicCount", "n_coeff constant")):
    """Exact integer of the form n_coeff*N + constant for all large N.

    n_coeff is restricted to {0, 1}: nothing here ever needs a higher
    multiple of N, and the restriction keeps equality componentwise and
    honest.  No validity threshold is stored; every operation below is
    uniform in N.
    """

    __slots__ = ()

    def __new__(cls, n_coeff: int, constant: int) -> SymbolicCount:
        if n_coeff not in (0, 1):
            raise ValueError(f"n_coeff must be 0 or 1, got {n_coeff}")
        return tuple.__new__(cls, (n_coeff, constant))

    def at(self, n: int) -> int:
        """Evaluate at a concrete witness N."""
        return self.n_coeff * n + self.constant

    def is_at_least(self, k: int) -> bool:
        """Whether n_coeff*N + constant >= k holds for all large N."""
        return self.n_coeff == 1 or self.constant >= k

    def __add__(self, other: "SymbolicCount | int") -> "SymbolicCount":
        if isinstance(other, int):
            return SymbolicCount(self.n_coeff, self.constant + other)
        return SymbolicCount(self.n_coeff + other.n_coeff,
                             self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other: "SymbolicCount | int") -> "SymbolicCount":
        if isinstance(other, int):
            return SymbolicCount(self.n_coeff, self.constant - other)
        return SymbolicCount(self.n_coeff - other.n_coeff,
                             self.constant - other.constant)

    def __str__(self) -> str:
        if self.n_coeff == 0:
            return str(self.constant)
        if self.constant == 0:
            return "N"
        return f"N{self.constant:+d}"


def alpha_sym_pow_minus(a: int) -> SymbolicCount:
    """alpha(2**N - a) for N >> 0, as a SymbolicCount.

    2**N - a = (2**N - 1) - (a - 1) is a bitwise subtraction from N ones,
    so the digit sum is N - alpha(a - 1).
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return SymbolicCount(1, -alpha(a - 1))


def nu_binom_sym(a: int, b: int) -> SymbolicCount:
    """nu(binomial(2**N - a, b)) for N >> 0.

    With p = 2**N - a, nu(C(p, b)) = alpha(b) + alpha(p - b) - alpha(p), and
    `alpha_sym_pow_minus` gives alpha(p - b) = N - alpha(a + b - 1) and
    alpha(p) = N - alpha(a - 1).  The two N terms cancel, so the result is
    formed directly, with n_coeff = 0: alpha(b) + alpha(a-1) - alpha(a+b-1).
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if b < 0:
        raise ValueError(f"need b >= 0, got {b}")
    if b == 0:
        return SymbolicCount(0, 0)
    return SymbolicCount(0, alpha(b) + alpha(a - 1) - alpha(a + b - 1))


def radon_pair(c: int) -> tuple[int, int]:
    """Unique (a, b) with c = 4a + b and 0 <= b <= 3."""
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    return c // 4, c % 4


def hurwitz_radon(t: int) -> int:
    """Maximal number of everywhere independent vector fields on S^t.

    F(t) = 8a + 2**b - 1 where nu(t+1) = 4a + b, 0 <= b <= 3.  Only odd t
    is accepted: the engine only ever asks about odd spheres, and for even
    t the answer is trivially 0 anyway.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"hurwitz_radon is restricted to odd t >= 1, got {t}")
    a, b = radon_pair(nu(t + 1))
    return 8 * a + 2**b - 1
