import random

import pytest

from lensbounds import sweeps
from lensbounds.dyadic import alpha, nu, nu_binom, nu_binom_sym


def test_kummer_legendre_sweep():
    outcome = sweeps.sweep_kummer_legendre(256)
    assert outcome.ok
    assert outcome.cases == 257 * 258 // 2


def test_alpha_identity_sweep():
    outcome = sweeps.sweep_alpha_identity(1 << 16)
    assert outcome.ok and outcome.cases == 1 << 16


def test_alpha_symbolic_sweep():
    outcome = sweeps.sweep_alpha_symbolic(40, 1 << 12)
    assert outcome.ok


def test_nu_binom_symbolic_sweep():
    outcome = sweeps.sweep_nu_binom_symbolic(40, 256)
    assert outcome.ok and outcome.cases == 256 * 256


def test_kernels_match_exact_api():
    # the sweeps recheck identities the exact API also implements; sample
    # the same points through both routes
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(1, 1 << 16)
        b = rng.randrange(0, a + 1)
        assert nu_binom(a, b) == alpha(b) + alpha(a - b) - alpha(a)
        assert alpha(a - 1) == alpha(a) - 1 + nu(a)
        assert nu_binom_sym(a, b + 1).at(40) == nu_binom((1 << 40) - a, b + 1)


def test_witness_bounds_guarded():
    with pytest.raises(ValueError):
        sweeps.sweep_alpha_symbolic(63, 16)
    with pytest.raises(ValueError):
        sweeps.sweep_nu_binom_symbolic(20, 1 << 19)  # grid outgrows 2^n
