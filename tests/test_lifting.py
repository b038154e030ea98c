import pytest

from lensbounds.dyadic import (alpha, hurwitz_radon, nu, nu_binom,
                               radon_pair)
from lensbounds.lifting import (DMResult, LiftInstance, davis_mahowald_check,
                                embedding_gate, feeding_params, radon_gate,
                                sharpening_drop, sharper_lifting_level)
from lensbounds.proofs import BOUNDARY_RADON, SECTIONS_EXCEED


def test_sharpening_drop():
    assert sharpening_drop(6) == 1      # even, alpha = 2
    assert sharpening_drop(5) == 0      # odd
    assert sharpening_drop(4) == 0      # alpha = 1
    assert sharpening_drop(12) == 1
    with pytest.raises(ValueError):
        sharpening_drop(0)


def test_lift_instance_validation():
    with pytest.raises(ValueError):
        LiftInstance(5, 3, 2)
    with pytest.raises(ValueError):
        LiftInstance(1, 2, -1)


def test_embedding_gate_strict():
    # feeding shape mu=2, ell=3, lam=0: (n, m, d) = (11, 15, 16)
    inst = LiftInstance(11, 15, 16)
    assert 2 * inst.m + inst.d == 46 > 45
    assert embedding_gate(inst) == 47 == 4 * 11 + 3
    assert embedding_gate(LiftInstance(5, 5, 12)) == 23  # n=m, d=2n+2 -> 4n+3


def test_embedding_gate_boundary():
    # boundary 2m+d = 4n+1 with the vector-field condition failing:
    # n=2, m=4, d=1: 2(m-n) = 4 > F(5) = 1
    assert hurwitz_radon(5) == 1
    assert embedding_gate(LiftInstance(2, 4, 1)) is None
    # and passing: n=1, m=2, d=1: 2(m-n) = 2 <= F(3) = 3
    assert embedding_gate(LiftInstance(1, 2, 1)) == 6
    # below the line: nothing
    assert embedding_gate(LiftInstance(3, 3, 4)) is None


def test_radon_gate_is_the_one_gate():
    # the feeds' gate and the inductive step's: an r-fold bundle over
    # L(n, e) in R^ambient, or the step (k, j) = (r - 1, n) with
    # sigma + beta = ambient, whose witness the proof layer's replay checks
    # accept exactly when the gate fires
    for n in range(513):
        pair = radon_pair(nu(2 * n + 2))
        for r in range(65):
            for ambient in range(4 * n + 1, 4 * n + 4):
                got = radon_gate(n, r, ambient)
                d = ambient - 2 * (n + r) - 1
                if d >= 0:
                    want = None if got is None else ambient
                    assert embedding_gate(LiftInstance(n, n + r, d)) == want
                sigma, beta = 1, ambient - 1
                exceed = SECTIONS_EXCEED.check(sigma, beta, n)
                boundary = BOUNDARY_RADON.check(sigma, beta, n, r - 1, *pair)
                assert (got == ()) == exceed, (n, r, ambient)
                assert (got == pair) == boundary, (n, r, ambient)
                assert (got is None) == (not exceed and not boundary)


def test_feeding_params_examples():
    lam2, lam6 = sharpening_drop(2), sharpening_drop(6)  # 0 and 1
    assert feeding_params(2, 2, lam2) == LiftInstance(7, 11, 8)
    assert feeding_params(1, 6, lam6) == LiftInstance(11, 13, 19)
    assert feeding_params(2, 6, lam6) == LiftInstance(23, 27, 39)
    assert feeding_params(2, 6, 0) == LiftInstance(23, 27, 40)
    with pytest.raises(ValueError):
        feeding_params(1, 1, 1)  # d would be negative
    with pytest.raises(ValueError):
        feeding_params(3, 2, 0)


def test_feeding_gate_identity():
    for mu in (1, 2):
        for ell in range(1, 513):
            for lam in {0, sharpening_drop(ell)}:
                inst = feeding_params(mu, ell, lam)
                i = 2**mu * ell - 1
                assert embedding_gate(inst) == 4 * i + 3 - lam
                # boundary is hit exactly on the sharpened route
                assert (2 * inst.m + inst.d == 4 * inst.n + 1) == (lam == 1)


def test_davis_mahowald_examples():
    assert davis_mahowald_check(6) == (True, 1, 4)
    ok, nu1, nu2 = davis_mahowald_check(4)
    assert not ok and nu1 == 0
    assert davis_mahowald_check(3) == (True, 1, 3)
    # concrete oracle at N=40: carries on C(2^40-16, 8) and C(2^40-16, 10)
    assert nu_binom(2**40 - 16, 8) == 1
    assert nu_binom(2**40 - 16, 10) == 3
    with pytest.raises(ValueError):
        davis_mahowald_check(1)


def test_davis_mahowald_gate_is_digit_sum_condition():
    for ell in range(2, 2049):
        ok, nu1, nu2 = davis_mahowald_check(ell)
        assert nu1 == alpha(ell) - 1
        assert nu2 == alpha(ell - 1) + 2 == alpha(ell) + 1 + nu(ell)
        assert ok == (alpha(ell) >= 2)


def test_davis_mahowald_check_is_the_lemma_route():
    # each valuation as alpha(b) + alpha(p - b) - alpha(p), p = 2**N - a,
    # at the least N with 2**N >= a + b and at a larger one, and the gate
    # read off them
    for ell in range(2, 4097):
        a = 4 * (ell + 1)
        least = (8 * ell).bit_length()  # 2**least >= 8ell + 8 > a + 4ell - 2
        for n in (least, least + 20):
            p = (1 << n) - a
            nu1, nu2 = (alpha(b) + alpha(p - b) - alpha(p)
                        for b in (4 * ell - 4, 4 * ell - 2))
            ok = nu1 >= 1 and nu2 >= 3 and 2 * (2 * ell - 3) >= 2
            got = davis_mahowald_check(ell)
            assert got == DMResult(ok, nu1, nu2)
            assert type(got.nu1) is type(got.nu2) is int


def test_davis_mahowald_concrete_n64():
    p0 = 1 << 64
    for ell in range(2, 257):
        _, nu1, nu2 = davis_mahowald_check(ell)
        a = 4 * (ell + 1)
        assert nu1 == nu_binom(p0 - a, 4 * ell - 4)
        assert nu2 == nu_binom(p0 - a, 4 * ell - 2)


def test_sharper_lifting_levels():
    assert sharper_lifting_level(7) == 8 * 6 - 2      # 7 = 2^2*1 + 3, u = 1
    assert sharper_lifting_level(15) == 8 * 14 - 3    # 15 = 2^2*3 + 3, u = 3
    assert sharper_lifting_level(4) == 24             # baseline
    assert sharper_lifting_level(6) == 8 * 5 - 1      # gate passes
    assert sharper_lifting_level(2) == 8              # alpha(2) = 1: baseline
    for ell in range(2, 300):
        base = 8 * (ell - 1)
        assert base - 3 <= sharper_lifting_level(ell) <= base
    with pytest.raises(ValueError):
        sharper_lifting_level(1)
