"""Exact 2-adic combinatorics.

Everything here works on plain Python integers, so all values are arbitrary
precision: binomial arguments like 2**64 - a never overflow.  Valuations of
binomials of 2**N - a that hold for every large N are plain integers too,
since their N terms cancel (`nu_binom_sym`).
"""

from __future__ import annotations


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


def nu_binom_sym(a: int, b: int) -> int:
    """nu(binomial(2**N - a, b)), the same for every N with 2**N >= a + b.

    With p = 2**N - a, nu(C(p, b)) = alpha(b) + alpha(p - b) - alpha(p).
    Subtracting x - 1 from N ones borrows nothing, so alpha(2**N - x) =
    N - alpha(x - 1) for 1 <= x <= 2**N; the two N terms cancel, leaving
    alpha(b) + alpha(a - 1) - alpha(a + b - 1).
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if b < 0:
        raise ValueError(f"need b >= 0, got {b}")
    return alpha(b) + alpha(a - 1) - alpha(a + b - 1)


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
