import pytest

from lensbounds.dyadic import (alpha, hurwitz_radon, nu, nu_binom,
                               nu_binom_sym, radon_pair)


def nu_factorial(n):
    """Legendre: nu(n!) = sum_i floor(n / 2^i).  Test-side oracle only."""
    total = 0
    while n:
        n //= 2
        total += n
    return total


def test_alpha_examples():
    assert alpha(0) == 0
    assert alpha(23) == 4  # 23 = 0b10111
    for t in range(65):
        assert alpha(2**t) == 1
    with pytest.raises(ValueError):
        alpha(-1)


def test_nu_examples():
    assert nu(1) == 0
    assert nu(48) == 4
    for t in range(40):
        for u in (1, 3, 5, 11):
            assert nu(2**t * u) == t
    with pytest.raises(ValueError):
        nu(0)


def test_nu_binom_examples():
    assert nu_binom(10, 4) == 1  # C(10,4) = 210 = 2 * 105
    for a in (0, 1, 7, 100, 2**40):
        assert nu_binom(a, 0) == 0
    for t in range(1, 20):
        # oracle: Legendre valuation of (2^t)! / (2^t - 1)!
        assert nu_binom(2**t, 1) == nu_factorial(2**t) - nu_factorial(2**t - 1)
        assert nu_binom(2**t, 1) == t
    with pytest.raises(ValueError):
        nu_binom(4, 5)


def test_nu_binom_against_legendre_small():
    for a in range(257):
        for b in range(a + 1):
            want = nu_factorial(a) - nu_factorial(b) - nu_factorial(a - b)
            assert nu_binom(a, b) == want


def test_nu_binom_alpha_identity():
    for a in range(1, 2048):
        for b in range(0, a + 1, 7):
            assert nu_binom(a, b) == alpha(b) + alpha(a - b) - alpha(a)


def test_alpha_digit_identity_small():
    for a in range(1, 1 << 14):
        assert alpha(a - 1) == alpha(a) - 1 + nu(a)


def test_alpha_of_pow_minus_examples():
    # alpha(2**N - a) = N - alpha(a - 1): 2**N - a = (2**N - 1) - (a - 1)
    # subtracts a - 1 from N ones without a borrow
    for n in (1, 5, 30, 64, 200):
        assert alpha(2**n - 1) == n - alpha(0) == n
    # oracles: alpha(2^30 - 4) = 28, alpha(2^30 - 6) = 28
    assert alpha(2**30 - 4) == 30 - alpha(3) == 28
    assert alpha(2**30 - 6) == 30 - alpha(5) == 28


def test_alpha_of_pow_minus_sweep():
    for n in (12, 13, 40, 64):
        for a in range(1, 1 << 12):
            assert alpha((1 << n) - a) == n - alpha(a - 1)


def test_nu_binom_sym_examples():
    ell = 6
    a = 4 * (ell + 1)
    assert nu_binom_sym(a, 4 * ell - 2) == alpha(ell - 1) + 2 == 4
    assert nu_binom_sym(a, 4 * ell - 4) == alpha(ell) - 1 == 1
    for a in (1, 2, 77, 4096):
        assert nu_binom_sym(a, 0) == 0
    for got in (nu_binom_sym(a, 4 * ell - 2), nu_binom_sym(1, 0)):
        assert type(got) is int
    with pytest.raises(ValueError):
        nu_binom_sym(0, 1)
    with pytest.raises(ValueError):
        nu_binom_sym(1, -1)


def test_nu_binom_sym_is_the_lemma_route():
    # the direct closed form equals the digit-sum expansion
    # alpha(b) + alpha(p - b) - alpha(p), p = 2**N - a, at every N with
    # 2**N >= a + b, whose N terms cancel
    for a in range(1, 301):
        for b in range(1, 301):
            got = nu_binom_sym(a, b)
            assert type(got) is int
            for n in ((a + b - 1).bit_length(), 10, 40, 64):
                p = (1 << n) - a
                assert got == alpha(b) + alpha(p - b) - alpha(p), (a, b, n)


def test_nu_binom_sym_concrete_sweep():
    n = 40
    for a in range(1, 300):
        for b in range(1, 300):
            assert nu_binom_sym(a, b) == nu_binom((1 << n) - a, b)


@pytest.mark.parametrize("t,expected", [(1, 1), (3, 3), (7, 7), (15, 8),
                                        (31, 9), (63, 11), (127, 15)])
def test_hurwitz_radon_values(t, expected):
    # oracle: 8a + 2^b - 1 with nu(t+1) = 4a + b, done by hand
    assert hurwitz_radon(t) == expected


def test_hurwitz_radon_restrictions():
    for t in (0, 2, 10, 2**12):
        with pytest.raises(ValueError):
            hurwitz_radon(t)


def test_hurwitz_radon_depends_only_on_valuation():
    seen = {}
    for t in range(1, 1 << 14, 2):
        v = nu(t + 1)
        f = hurwitz_radon(t)
        assert seen.setdefault(v, f) == f
        if v <= 3:
            assert f >= v


def test_radon_pair():
    assert radon_pair(0) == (0, 0)
    assert radon_pair(3) == (0, 3)
    assert radon_pair(9) == (2, 1)
    for c in range(1000):
        a, b = radon_pair(c)
        assert 0 <= b <= 3 and 4 * a + b == c
    with pytest.raises(ValueError):
        radon_pair(-1)


def test_big_arguments_stay_exact():
    # arbitrary precision: no silent wraparound near and past 2^64
    a = 2**64 - 20
    assert nu_binom(a, 12) == alpha(12) + alpha(a - 12) - alpha(a)
    assert alpha(2**200 - 1) == 200
    assert nu(2**100) == 100
    assert nu_binom(2**70, 2) == nu_factorial(2**70) - nu_factorial(2) \
        - nu_factorial(2**70 - 2)


def test_nu_binom_never_forms_binomial():
    # C(2^40, 2^20) has over 10^5 digits; the carry count must stay instant.
    # Adding 2^20 to 2^40 - 2^20 carries through bits 20..39: 20 carries.
    assert nu_binom(1 << 40, 1 << 20) == 20
