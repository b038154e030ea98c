"""Flat-array numpy kernels for the large digit-identity sweeps.

The public API works on exact Python integers; these sweeps cover millions
of int64-range cases (digit-sum identities, Kummer-vs-Legendre grids,
symbolic-vs-concrete evaluation at N = 40) as vectorized numpy kernels.
Every sweep returns the number of cases it evaluated (counted, not taken
from the range it was asked for) and the first counterexample, and the
test suite cross-checks the identities against the exact Python functions
on sampled points, so the kernels are not trusted blindly.

Only the tests and the benchmark use this module; no subcommand imports
it, and numpy is a test dependency of the package, not a runtime one.
``verify dyadic`` proves the three digit-local identities for every input
with the automata of ``automata``; the tests run each sweep at its full
range as an independent check, and are the only home of the Legendre
grid, which is not digit-local.
The one-dimensional sweeps stream their range in chunks of ``_CHUNK``
int64s (0.5 MB per array), so their memory does not grow with the range.
The two grids take one row of cases at a time and read what the rows
share (a - b, 2^n - a - b, the digit sums) as slices of arrays formed
once.  The README's "Sweep kernels" section gives what loading numpy
costs.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

_CHUNK = 1 << 16


class SweepOutcome(namedtuple("SweepOutcome", "name cases failures first")):
    """A sweep's name, cases evaluated, failures, and the first failing
    case (None when there is none)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.failures == 0


# --- kernels --------------------------------------------------------------

def _popcount(arr: np.ndarray) -> np.ndarray:
    # one uint8 per value (at most 63 bits are set), so a grid row adds its
    # bit counts in bytes; the kernels only add them, two at a time, and
    # the Legendre side, which subtracts, is formed in int64
    return np.bitwise_count(arr)


def _sweep_1d(name: str, hi: int, bad_of) -> SweepOutcome:
    """Stream 1 <= a <= hi in chunks of `_CHUNK`; `bad_of` maps a chunk to
    the mask of its failing cases."""
    cases = fails = 0
    first = None
    for start in range(1, hi + 1, _CHUNK):
        a = np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.int64)
        bad = np.flatnonzero(bad_of(a))
        cases += a.size
        fails += bad.size
        if first is None and bad.size:
            first = (int(a[bad[0]]),)
        # free this chunk's arrays before the next one is made, so the
        # stream holds one chunk at a time
        del a, bad
    return SweepOutcome(name, cases, fails, first)


# --- public sweeps --------------------------------------------------------

def sweep_kummer_legendre(amax: int = 1024) -> SweepOutcome:
    """Carry-count valuation of C(a, b) against the factorial-valuation
    oracle, for all 0 <= b <= a <= amax."""
    # row a reads b = 0..a and a - b as slices of one arange, and the
    # factorial valuations as slices of their running sum
    n = np.arange(amax + 1, dtype=np.int64)
    nu_n = np.zeros(amax + 1, dtype=np.int64)
    nu_n[1:] = _popcount((n[1:] & -n[1:]) - 1)
    nu_fact = np.cumsum(nu_n)
    cases = fails = 0
    first = None
    for a in range(amax + 1):
        carries = _popcount(n[:a + 1] ^ n[a::-1] ^ a)
        bad = carries != nu_fact[a] - nu_fact[:a + 1] - nu_fact[a::-1]
        cases += bad.size
        k = np.count_nonzero(bad)
        if k:
            fails += k
            if first is None:
                first = (a, int(bad.argmax()))
    return SweepOutcome("kummer-vs-legendre", cases, fails, first)


def sweep_alpha_identity(limit: int = 1 << 20) -> SweepOutcome:
    """alpha(a-1) = alpha(a) - 1 + nu(a) for 1 <= a <= limit."""
    return _sweep_1d(
        "alpha-digit-identity", limit,
        lambda a: _popcount((a & -a) - 1) + _popcount(a)
        != _popcount(a - 1) + 1)


def sweep_alpha_symbolic(n: int = 40, amax: int = 1 << 16) -> SweepOutcome:
    """alpha(2^n - a) = n - alpha(a-1) at the concrete witness n."""
    if not 20 <= n <= 62:
        raise ValueError("concrete witness must keep 2^n - a inside int64")
    pw = np.int64(1) << n
    return _sweep_1d(f"alpha-symbolic-N{n}", amax,
                     lambda a: _popcount(pw - a) + _popcount(a - 1) != n)


def sweep_nu_binom_symbolic(n: int = 40, abmax: int = 4096) -> SweepOutcome:
    """Symbolic nu(C(2^n - a, b)) = alpha(b) + alpha(a-1) - alpha(a+b-1)
    against the concrete carry count at witness n, over the (a, b) grid."""
    if not 20 <= n <= 62:
        raise ValueError("concrete witness must keep 2^n - a inside int64")
    if (1 << n) <= 2 * abmax:
        raise ValueError("witness too small for the grid")
    # with p = 2^n - a, the carries of b + (p - b) are popcount(b ^ (2^n - s)
    # ^ p) for s = a + b; 2^n - s and popcount(s - 1) are formed once per s,
    # and row a reads them as slices.  The identity is tested as carries +
    # alpha(a+b-1) = alpha(b) + alpha(a-1), so that no side goes negative.
    b = np.arange(1, abmax + 1, dtype=np.int64)
    s = np.arange(2 * abmax + 1, dtype=np.int64)
    comp = (np.int64(1) << n) - s
    pop_s1 = np.zeros(s.size, dtype=np.uint8)
    pop_s1[1:] = _popcount(s[1:] - 1)
    pop_b = _popcount(b)
    cases = fails = 0
    first = None
    for a in range(1, abmax + 1):
        row = slice(a + 1, a + abmax + 1)
        lhs = _popcount(b ^ comp[row] ^ comp[a]) + pop_s1[row]
        bad = lhs != pop_b + pop_s1[a]
        cases += bad.size
        k = np.count_nonzero(bad)
        if k:
            fails += k
            if first is None:
                first = (a, int(b[bad.argmax()]))
    return SweepOutcome(f"nu-binom-symbolic-N{n}", cases, fails, first)
