"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.

Every expected value is either recomputed here through an independent
oracle (Legendre factorial valuations, big-integer carry counts at a
concrete witness, brute-force rule scans) or pinned to a closed form
verified against those oracles.  The two full-size grids (criteria 1 and 2)
run the exact API wherever runtime permits and cover the rest with the
array kernels, which are themselves tied back to the API on subgrids.
"""

import pathlib
import time

from lensbounds import cli, sweeps
from lensbounds.catalog import euler_class_lower_bounds, report
from lensbounds.cohomology import CohomologyRing, is_spin, normal_sw_class
from lensbounds.dyadic import alpha, nu, nu_binom, nu_binom_sym
from lensbounds.inductive import at, delta_e
from lensbounds.proofs import pairs
from lensbounds.lifting import (davis_mahowald_check, embedding_gate,
                                feeding_params, sharpening_drop)
from lensbounds.records import LensSpace

GOLDEN = pathlib.Path(__file__).parent / "golden"


def passed(n, name):
    print(f"ACCEPTANCE {n:2d} {name}: PASS")


def test_c01_kummer_legendre_equivalence():
    """nu_binom agrees with the factorial-valuation oracle, 0<=b<=a<=1024."""
    start = time.perf_counter()
    nu_fact = [0] * 1025
    for i in range(1, 1025):
        nu_fact[i] = nu_fact[i - 1] + nu(i)
    cases = 0
    for a in range(1025):
        fa = nu_fact[a]
        for b in range(a + 1):
            assert nu_binom(a, b) == fa - nu_fact[b] - nu_fact[a - b], (a, b)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 1025 * 1026 // 2
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    passed(1, f"kummer-legendre ({cases} cases in {elapsed:.2f}s)")


def test_c02_identity_suite():
    """Digit-sum identities and the large-N valuations at the N=40
    witness."""
    for a in range(1, (1 << 20) + 1):
        assert alpha(a - 1) == alpha(a) - 1 + nu(a), a
    n = 40
    pw = 1 << n
    for a in range(1, (1 << 16) + 1):
        assert n - alpha(a - 1) == alpha(pw - a), a
    # (a, b) grid to 4096: full grid through the kernel (16.7M cases), the
    # exact API exhaustively on a 512x512 corner plus the closed form
    outcome = sweeps.sweep_nu_binom_symbolic(n, 4096)
    assert outcome.ok, outcome
    assert outcome.cases == 4096 * 4096
    for a in range(1, 513):
        base = alpha(a - 1)
        for b in range(1, 513):
            got = nu_binom_sym(a, b)
            assert type(got) is int
            assert got == alpha(b) + base - alpha(a + b - 1)
            assert got == nu_binom(pw - a, b), (a, b)
    passed(2, "identity-suite (exact, zero tolerance)")


def test_c03_table_regeneration():
    """The proved rounds reproduce every closed form for ell <= 100, e <= 8."""
    max_m = 4 * 100 + 3
    for e in range(1, 9):
        dlt = delta_e(e)
        expected = {}
        for ell in range(1, (max_m - 1) // 2 + 1):
            m = 2 * ell + 1
            expected[("round1:base" if ell == 1 else "round1:step", m)] = 8 * ell + 3
            if ell % 2 == 0 and alpha(ell) >= 2:
                expected[("round1:sharp", m)] = 8 * ell + 2
        if e <= 2:
            expected[("round2:special", 7)] = 26
        expected[("round2:base", 7)] = 17 + dlt
        for ell in range(2, (max_m - 3) // 4 + 1):
            m = 4 * ell + 3
            expected[("round2:step", m)] = 16 * ell + dlt
            if ell % 2 == 0 and alpha(ell) >= 2:
                expected[("round2:sharp", m)] = 16 * ell + dlt - 1
        produced = {(b.derivation.rule_id, m): b.dim
                    for m, b in pairs(e, max_m)}
        assert produced == expected, e
    passed(3, "table-regeneration (e <= 8, ell <= 100)")


def test_c04_gap_law():
    """High-torsion gap between each catalog column and the Euler-class
    lower bound: (2a(l)-1, 2a(l)-2, 2a(l), 2a(l)-1) per column."""
    gap_of = {"round1": lambda l: 2 * alpha(l) - 1,
              "round1-sharp": lambda l: 2 * alpha(l) - 2,
              "round2": lambda l: 2 * alpha(l),
              "round2-sharp": lambda l: 2 * alpha(l) - 1}
    checked = 0
    for ell in range(1, 101):
        for m in (2 * ell + 1, 4 * ell + 3):
            e = max(3, alpha(m))
            space = LensSpace(m, e)
            lower = max(b.dim for b in euler_class_lower_bounds(space))
            for b in at(m, e):
                if b.rule_id in gap_of:
                    col_ell = (m - 1) // 2 if b.rule_id.startswith("round1") \
                        else (m - 3) // 4
                    assert b.dim - lower == gap_of[b.rule_id](col_ell), (m, e, b.rule_id)
                    checked += 1
    assert checked > 300
    passed(4, f"gap-law ({checked} column entries)")


def test_c05_exactness_family():
    """report is exact at 4m+1 for m a power of two (any e <= 10), 5 for
    m=1, 2 for m=0."""
    for e in range(1, 11):
        rep = report(LensSpace(0, e))
        assert rep.exact and rep.upper.dim == 2
        rep = report(LensSpace(1, e))
        assert rep.exact and rep.upper.dim == 5
        for t in range(1, 9):
            m = 2**t
            rep = report(LensSpace(m, e))
            assert rep.exact and rep.upper.dim == 4 * m + 1, (m, e)
    passed(5, "power-of-two exactness (m <= 256, e <= 10)")


def test_c06_davis_mahowald_gate():
    """dm check passes iff alpha(ell) >= 2, with both valuations closing to
    their digit-sum forms; concrete Kummer confirmation at N=64."""
    for ell in range(2, 4097):
        ok, nu1, nu2 = davis_mahowald_check(ell)
        assert nu1 == alpha(ell) - 1, ell
        assert nu2 == alpha(ell - 1) + 2, ell
        assert ok == (alpha(ell) >= 2), ell
    p0 = 1 << 64
    for ell in range(2, 257):
        _, nu1, nu2 = davis_mahowald_check(ell)
        a = 4 * (ell + 1)
        assert nu1 == nu_binom(p0 - a, 4 * ell - 4), ell
        assert nu2 == nu_binom(p0 - a, 4 * ell - 2), ell
    passed(6, "davis-mahowald gate (ell <= 4096, concrete N=64 to 256)")


def test_c07_spin_double_derivation():
    """w2 route and Sq^2 route agree and equal the parity rule."""
    for m in range(513):
        for e in (1, 2, 3):
            assert is_spin(m, e) == (m == 0 or m % 2 == 1), (m, e)
    passed(7, "spin double derivation (m <= 512, e in {1,2,3})")


def test_c08_normal_sw_claim():
    """For alpha(m) = 1 the y^(m-1) coefficient of the normal class is 1."""
    m = 1
    while m <= 512:
        for e in (1, 2):
            ring = CohomologyRing.for_lens(m, e)
            wbar = normal_sw_class(ring)
            if m >= 1:
                assert wbar.coefficient(0, m - 1) == 1, (m, e)
        m *= 2
    passed(8, "normal SW coefficient (alpha(m)=1, m <= 512)")


def test_c09_global_soundness_and_gap_example():
    """lower <= upper everywhere (m <= 256, e <= 10); the m = 2^t + 1
    high-torsion family stays within one dimension."""
    for e in range(1, 11):
        for m in range(257):
            rep = report(LensSpace(m, e))
            assert rep.lower.dim <= rep.upper.dim, (m, e)
    for t in range(2, 9):
        m = 2**t + 1
        for e in range(2, 11):
            rep = report(LensSpace(m, e))
            assert rep.gap <= 1, (m, e)
    passed(9, "global soundness + one-dimension gap family")


def test_c10_feeding_gate_consistency():
    """embedding_gate on the feeding parameterization returns exactly
    4(2^mu ell - 1) + 3 - lam."""
    for mu in (1, 2):
        for ell in range(2, 257):
            for lam in {0, sharpening_drop(ell)}:
                inst = feeding_params(mu, ell, lam)
                i = 2**mu * ell - 1
                assert embedding_gate(inst) == 4 * i + 3 - lam, (mu, ell, lam)
    passed(10, "feeding/gate identity (mu in {1,2}, ell <= 256)")


def test_c11_cli_goldens(capsys):
    """Byte-stable CSV against the checked-in golden; derivation replay."""
    code = cli.main(["table", "--e", "2", "--max-m", "32", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "table_e2_m32.csv").read_text()
    code = cli.main(["derive", "--m", "7", "--e", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "replayed OK" in out
    passed(11, "CLI goldens (csv byte-identical; derive replays)")
