import copy
import pickle
import random
import tracemalloc

import pytest

from lensbounds.cohomology import (CohomologyRing, Mod2Class, _clmul,
                                   _one_plus_y_power, _square_term, is_spin,
                                   multiply, normal_sw_class,
                                   steenrod_square, tangential_sw_class)
from lensbounds.dyadic import nu_binom


def basis(ring):
    return [ring.monomial(d, j) for j in range(ring.n + 1) for d in (0, 1)]


def test_ring_validation():
    with pytest.raises(ValueError):
        CohomologyRing(0, 0)
    with pytest.raises(ValueError):
        CohomologyRing(3, 2)
    assert CohomologyRing.for_lens(5, 1).epsilon == 1
    assert CohomologyRing.for_lens(5, 4).epsilon == 0


def test_x_squared_rewrites():
    r0 = CohomologyRing(4, 0)
    assert (r0.x() * r0.x()).is_zero()
    r1 = CohomologyRing(4, 1)
    assert r1.x() * r1.x() == r1.y()


def test_truncation():
    ring = CohomologyRing(3, 0)
    assert (ring.y(2) * ring.y(2)).is_zero()  # y^4 = 0
    assert ring.y(1) * ring.y(2) == ring.y(3)
    assert ring.monomial(1, 3) == ring.x() * ring.y(3)  # top class survives


def test_ring_mismatch():
    with pytest.raises(ValueError):
        multiply(CohomologyRing(3, 0).x(), CohomologyRing(4, 0).x())
    with pytest.raises(ValueError):
        CohomologyRing(3, 0).x() + CohomologyRing(4, 0).x()
    with pytest.raises(ValueError):
        CohomologyRing(5, 1).y() * CohomologyRing(5, 0).y()


def test_class_is_immutable():
    u = CohomologyRing(3, 1).x()
    with pytest.raises(AttributeError):
        u.even = 1
    with pytest.raises(AttributeError):
        u.label = "x"
    with pytest.raises(AttributeError):
        del u.odd
    assert (u.even, u.odd) == (0, 1)
    assert copy.deepcopy(u) == u and pickle.loads(pickle.dumps(u)) == u


def test_equal_rings_share_classes():
    r1, r2 = CohomologyRing(4, 1), CohomologyRing(4, 1)
    assert r1 is not r2
    u1, u2 = r1.x() + r1.y(2), r2.x() + r2.y(2)
    assert u1 == u2 and hash(u1) == hash(u2)
    assert len({u1, u2}) == 1
    assert u1 * r2.x() == r1.x() * u2 == r1.y() + r1.monomial(1, 2)
    assert u1 + u2 == r2.zero()
    assert u1 != CohomologyRing(4, 0).x() + CohomologyRing(4, 0).y(2)


def test_construction_truncates_past_the_top_class():
    ring = CohomologyRing(3, 0)
    u = Mod2Class(ring, 0b1101_0110, 0b1_1111)
    assert (u.even, u.odd) == (0b0110, 0b1111)
    assert u == Mod2Class(ring, 0b0110, 0b1111)
    assert Mod2Class(ring, 1 << 4, 1 << 9).is_zero()


def test_clmul_matches_the_bitwise_loop():
    def reference(p, q):
        r = 0
        while q:
            if q & 1:
                r ^= p
            p <<= 1
            q >>= 1
        return r

    rng = random.Random(5)
    masks = [0, 1, (1 << 200) - 1] + [rng.getrandbits(rng.randrange(1, 201))
                                      for _ in range(300)]
    for p in masks:
        assert _clmul(p, 0) == _clmul(0, p) == 0
    for _ in range(2000):
        p, q = rng.choice(masks), rng.choice(masks)
        assert _clmul(p, q) == reference(p, q) == _clmul(q, p)


def test_multiply_commutative_associative_exhaustive():
    for n in range(1, 9):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            bs = basis(ring)
            for u in bs:
                for v in bs:
                    assert u * v == v * u
            for u in bs[::2]:
                for v in bs[::2]:
                    for w in bs[::3]:
                        assert (u * v) * w == u * (v * w)


def test_multiply_randomized_large_n():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(1, 65)
        ring = CohomologyRing(n, rng.randrange(2))
        u, v, w = (Mod2Class(ring, rng.getrandbits(n + 1), rng.getrandbits(n + 1))
                   for _ in range(3))
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)


def test_steenrod_generators():
    ring = CohomologyRing(6, 1)
    assert steenrod_square(0, ring.x()) == ring.x()
    assert steenrod_square(1, ring.x()) == ring.y()     # Sq^1 x = x^2 = y
    assert steenrod_square(1, ring.y()).is_zero()
    assert steenrod_square(2, ring.y()) == ring.y(2)
    ring0 = CohomologyRing(6, 0)
    assert steenrod_square(1, ring0.x()).is_zero()      # eps = 0


def test_sq2_on_top_odd_class():
    # oracle: Cartan on two factors gives Sq^2(x y^(n-1)) = C(n-1,1) x y^n
    for n in range(2, 40):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            got = steenrod_square(2, ring.monomial(1, n - 1))
            if (n - 1) % 2:
                assert got == ring.monomial(1, n)
            else:
                assert got.is_zero()


def test_sq_even_binomial_parity():
    ring = CohomologyRing(20, 0)
    for j in range(21):
        for i in range(21):
            got = steenrod_square(2 * i, ring.y(j))
            if i <= j and nu_binom(j, i) == 0 and j + i <= 20:
                assert got == ring.y(j + i)
            else:
                assert got.is_zero()
            assert steenrod_square(2 * i + 1, ring.y(j)).is_zero()


def test_cartan_formula():
    # Sq^i(uv) against the sum of Sq^a(u) Sq^(i-a)(v) for every i <= 2n+1;
    # zero squares add nothing to the sum, and each product is squared once.
    # This per-degree form is the independent oracle for `verify`'s check,
    # which compares total squares Sq(u) Sq(v) with Sq(uv) instead: keep it
    # per degree.
    for n in range(1, 13):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            top = 2 * n + 2
            nonzero = {u: [(a, sq) for a in range(top)
                           if not (sq := steenrod_square(a, u)).is_zero()]
                       for u in basis(ring)}
            squares: dict[Mod2Class, list[Mod2Class]] = {}
            for u, u_squares in nonzero.items():
                for v, v_squares in nonzero.items():
                    uv = u * v
                    if uv not in squares:
                        squares[uv] = [steenrod_square(i, uv)
                                       for i in range(top)]
                    totals = [ring.zero()] * top
                    for a, su in u_squares:
                        for b, sv in v_squares:
                            if a + b < top:
                                totals[a + b] = totals[a + b] + su * sv
                    assert squares[uv] == totals, (n, eps, u, v)


def test_instability():
    for n in range(1, 17):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            for u in basis(ring):
                deg = next(d + 2 * j for d, j in u.monomials())
                assert steenrod_square(deg, u) == u * u
                for i in range(deg + 1, 2 * n + 4):
                    assert steenrod_square(i, u).is_zero()


def test_tangential_class_examples():
    r1 = CohomologyRing(1, 0)
    assert tangential_sw_class(r1) == r1.one()          # w2-part vanishes
    r2 = CohomologyRing(2, 0)
    w = tangential_sw_class(r2)
    assert w == r2.one() + r2.y(1) + r2.y(2)
    for n in range(1, 601):
        ring = CohomologyRing(n, 0)
        w = tangential_sw_class(ring)
        assert w.coefficient(0, 1) == (n + 1) % 2
        # the definition: the y^j coefficient is C(n+1, j) mod 2
        even = sum(1 << j for j in range(n + 1) if nu_binom(n + 1, j) == 0)
        assert (w.even, w.odd) == (even, 0), n


def test_normal_class_inverse_and_closed_form():
    import math
    for n in range(1, 129):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            w = tangential_sw_class(ring)
            wbar = normal_sw_class(ring)
            assert w * wbar == ring.one()
            for j in range(n + 1):
                assert wbar.coefficient(0, j) == math.comb(n + j, j) % 2


def _inverse_term_by_term(ring):
    """The normal class as it was computed before it became a power of
    (1 + y): the truncated series of w inverted one term at a time."""
    w = tangential_sw_class(ring).even
    inv = 1
    prod = w  # carry-less w * inv, maintained incrementally
    for j in range(1, ring.n + 1):
        if (prod >> j) & 1:
            inv |= 1 << j
            prod ^= w << j
    return Mod2Class(ring, inv & ring.mask, 0)


def test_normal_class_matches_term_by_term_inversion():
    for n in range(1, 1025):
        for eps in (0, 1):
            ring = CohomologyRing(n, eps)
            assert normal_sw_class(ring) == _inverse_term_by_term(ring), (n, eps)


def test_normal_class_examples():
    ring = CohomologyRing(4, 0)
    assert normal_sw_class(ring).coefficient(0, 3) == 1  # C(7,3) = 35 odd
    for m in (1, 2, 4, 8, 16, 32):
        ring = CohomologyRing(m, 0)
        assert normal_sw_class(ring).coefficient(0, m - 1) == 1


def test_is_spin():
    assert is_spin(0, 1) and is_spin(0, 5)
    assert is_spin(3, 1) and is_spin(3, 2) and is_spin(3, 9)
    assert not is_spin(4, 1) and not is_spin(4, 3)
    for m in range(200):
        for e in (1, 2, 3):
            assert is_spin(m, e) == (m == 0 or m % 2 == 1)
    with pytest.raises(ValueError):
        is_spin(-1, 1)
    with pytest.raises(ValueError):
        is_spin(3, 0)


def test_spin_routes_equal_them_in_the_whole_ring():
    # each route of is_spin, which forms no ring of the space itself, is
    # the route in the space's own ring: w2 of (1 + y)^(m+1), and Sq^2 on
    # x*y^(m-1)
    for m in range(1, 300):
        for e in (1, 2, 3):
            ring = CohomologyRing.for_lens(m, e)
            low = CohomologyRing.for_lens(1, e)
            restricted = multiply(tangential_sw_class(low),
                                  _one_plus_y_power(low, m - 1))
            assert restricted.coefficient(0, 1) == \
                tangential_sw_class(ring).coefficient(0, 1), (m, e)
            assert (_square_term(2, 1, m - 1, ring.epsilon) is None) == \
                steenrod_square(2, ring.monomial(1, m - 1)).is_zero(), (m, e)


def test_one_plus_y_power_skips_the_bits_past_the_ring():
    # (1 + y)^power is the truncated product of `power` factors 1 + y, and
    # a factor 1 + y^(2^b) with 2^b past y^n is 1 in the ring
    for n in (1, 2, 5, 8):
        ring = CohomologyRing(n, 0)
        want = ring.one()
        for power in range(70):
            assert _one_plus_y_power(ring, power) == want, (n, power)
            want = multiply(want, ring.one() + ring.y(1))
        for power in (10**30, 2**200 + 3):
            low = power & ((1 << n.bit_length()) - 1)
            assert _one_plus_y_power(ring, power) == \
                _one_plus_y_power(ring, low), (n, power)


def test_is_spin_takes_little_memory_at_any_m():
    tracemalloc.start()
    try:
        for m in (10**8 + 3, 10**12, 10**12 + 3, 10**100 + 1):
            assert is_spin(m, 3) == (m % 2 == 1)
            assert is_spin(m, 1) == (m % 2 == 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_monomials_walk_the_support_in_order():
    rng = random.Random(3)
    ring = CohomologyRing(90, 1)
    for _ in range(200):
        u = Mod2Class(ring, rng.getrandbits(91), rng.getrandbits(91))
        want = [(d, j) for d, mask in ((0, u.even), (1, u.odd))
                for j in range(91) if mask >> j & 1]
        assert list(u.monomials()) == want


def test_class_display():
    ring = CohomologyRing(3, 1)
    u = ring.one() + ring.x() * ring.y(2)
    assert str(u) == "1 + x*y^2"
    assert str(ring.zero()) == "0"
