import random

import numpy as np
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


def test_full_range_sweeps():
    # each sweep at its full range: `verify dyadic` proves the three
    # digit-local identities for every input, and these check them
    # independently; the Legendre grid is not digit-local, so it has no
    # proof and no other run at this range
    outcomes = (sweeps.sweep_kummer_legendre(1024),
                sweeps.sweep_alpha_identity(1 << 20),
                sweeps.sweep_alpha_symbolic(40, 1 << 16),
                sweeps.sweep_nu_binom_symbolic(40, 4096))
    assert all(o.ok for o in outcomes), outcomes
    assert [o.cases for o in outcomes] == [525825, 1048576, 65536, 16777216]


# A chunk size that divides none of the ranges below, against the default.
_ODD_CHUNK = 1000


def _chunked_sweeps(monkeypatch, chunk, amax=1 << 16):
    monkeypatch.setattr(sweeps, "_CHUNK", chunk)
    return (sweeps.sweep_alpha_identity(1 << 20),
            sweeps.sweep_alpha_symbolic(40, amax))


def test_chunk_size_does_not_change_outcomes(monkeypatch):
    default = _chunked_sweeps(monkeypatch, sweeps._CHUNK)
    assert all(o.ok for o in default)
    assert _chunked_sweeps(monkeypatch, _ODD_CHUNK) == default


@pytest.mark.parametrize("bent, identity, symbolic", [
    # popcount(69999) is off by one, so the identity fails at a = 69999
    # (popcount(a)) and a = 70000 (popcount(a-1)), the symbolic sweep at
    # a = 70000; 70000 ends a chunk of 1000 and lies in the second 2^16 one
    ({69999}, (2, (69999,)), (1, (70000,))),
    # a second bent value in a later chunk must not replace the first
    # counterexample
    ({69999, 140000}, (4, (69999,)), (2, (70000,))),
])
def test_chunk_edges_keep_failures(monkeypatch, bent, identity, symbolic):
    exact = sweeps._popcount
    monkeypatch.setattr(sweeps, "_popcount",
                        lambda arr: exact(arr) + np.isin(arr, list(bent)))
    for chunk in (sweeps._CHUNK, _ODD_CHUNK):
        got = _chunked_sweeps(monkeypatch, chunk, amax=3 << 16)
        assert [(o.failures, o.first) for o in got] == [identity, symbolic]


@pytest.mark.parametrize("bent, nu_binom_out, kummer_out", [
    # 256 is alpha(b) at b = 256 and alpha(a+b-1) on the diagonal a + b = 257,
    # 400 alpha(a+b-1) on a + b = 401; both are carry counts b ^ (p-b) ^ p
    # too.  Bends below 256 are left out: the nu-binom kernel now reads
    # alpha(a-1) through _popcount as well, where it used int.bit_count.
    ({256, 400}, (3048, (2, 255)), (1, (256, 128))),
    ({400}, (354, (73, 200)), (0, None)),
    # 7 is (n & -n) - 1 at every n = 8 mod 16, so nu(n!) moves with it
    ({7, 100}, None, (8225, (8, 1))),
    ({100}, None, (81, (68, 18))),
])
def test_bent_popcount_keeps_the_old_kernels_failures(
        monkeypatch, bent, nu_binom_out, kummer_out):
    # failure counts and first counterexamples pinned from the kernels that
    # formed every row from the range (a + b - 1, 2^n - a - b and a - b per
    # case); the kernels that read them as slices must report the same
    exact = sweeps._popcount
    monkeypatch.setattr(sweeps, "_popcount",
                        lambda arr: exact(arr) + np.isin(arr, list(bent)))
    if nu_binom_out is not None:
        got = sweeps.sweep_nu_binom_symbolic(40, 256)
        assert (got.cases, got.failures, got.first) == (256 * 256,
                                                        *nu_binom_out)
    got = sweeps.sweep_kummer_legendre(256)
    assert (got.cases, got.failures, got.first) == (257 * 258 // 2,
                                                    *kummer_out)


def test_kernels_match_exact_api():
    # the sweeps recheck identities the exact API also implements; sample
    # the same points through both routes
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(1, 1 << 16)
        b = rng.randrange(0, a + 1)
        assert nu_binom(a, b) == alpha(b) + alpha(a - b) - alpha(a)
        assert alpha(a - 1) == alpha(a) - 1 + nu(a)
        assert nu_binom_sym(a, b + 1) == nu_binom((1 << 40) - a, b + 1)


def test_witness_bounds_guarded():
    with pytest.raises(ValueError):
        sweeps.sweep_alpha_symbolic(63, 16)
    with pytest.raises(ValueError):
        sweeps.sweep_nu_binom_symbolic(20, 1 << 19)  # grid outgrows 2^n
