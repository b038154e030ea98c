import tracemalloc

import pytest

import lensbounds
from lensbounds import catalog, proofs, verify
from lensbounds.catalog import (LensSpace, codim2_lower, compactness_floor,
                                conjectural_lower_bounds,
                                euler_class_condition,
                                euler_class_lower_bounds, hhmp_upper,
                                low_dim_exact, metastable_smoothable,
                                power_of_two_lower, report, spin_upper)
from lensbounds.dyadic import alpha
from lensbounds.inductive import at
from lensbounds.records import Category, unique_nodes


def test_lens_space_validation():
    with pytest.raises(ValueError):
        LensSpace(-1, 1)
    with pytest.raises(ValueError):
        LensSpace(3, 0)
    with pytest.raises(ValueError):
        LensSpace(3, 1, 2)
    sp = LensSpace(7, 3, 5)
    assert (sp.dim, sp.torsion) == (15, 40)
    assert str(LensSpace(7, 3)) == "L^15(8)"


def test_euler_class_condition():
    assert euler_class_condition(3, 1)          # min(-4, 2) <= 1
    for n in (1, 5, 37, 63):                    # alpha(n) <= 6: vacuous
        assert euler_class_condition(n, 1)
    assert euler_class_condition(127, 1)        # min(1, 7) = 1 <= 1
    # failing needs alpha(n) >= e + 7: the smallest case is n = 255, e = 1
    assert not euler_class_condition(255, 1)
    assert euler_class_condition(255, 2)


def test_euler_class_lower_bounds():
    for e in (2, 3, 7):
        bounds = euler_class_lower_bounds(LensSpace(3, e))
        assert [b.dim for b in bounds] == [10]
    assert [b.dim for b in euler_class_lower_bounds(LensSpace(7, 1))] == [22]
    assert euler_class_lower_bounds(LensSpace(7, 2)) == []


def _full_scans(e: int, max_m: int) -> tuple[dict, dict]:
    """The Euler-class and conjectural candidates of every m <= max_m, by
    a scan over every n in [1, max_m], each list in ascending n."""
    euler: dict[int, list] = {}
    conj: dict[int, list] = {}
    for n in range(1, max_m + 1):
        delta = alpha(n) - e
        m = n + max(0, delta)
        bound = (4 * n - 2 * alpha(n) + 2, f"n={n}, delta={max(0, delta)}")
        if euler_class_condition(n, e):
            euler.setdefault(m, []).append(bound)
        elif delta > 0:
            conj.setdefault(m, []).append(bound)
    return euler, conj


def test_euler_window_holds_every_solution():
    # one pass over every n < 2^13 sends n to the m = n + delta it solves
    # (n <= m), so each m's list is the brute-force scan over all n <= m
    top = 2**13
    for e in range(1, 13):
        want: dict[int, list[int]] = {}
        for n in range(1, top):
            want.setdefault(n + max(0, alpha(n) - e), []).append(n)
        for m in range(top):
            got = [n for n in catalog._euler_window(m, e)
                   if n + max(0, alpha(n) - e) == m]
            assert got == want.get(m, []), (m, e)


def test_euler_window_is_tight():
    # at m = 3 * 2^e, n = m - 1 (digits 10 and then e ones) has alpha(n) =
    # e + 1, so delta = 1 and n solves n + delta = m; it is the window's
    # first n, so a window one n narrower misses it
    for e in range(1, 64):
        m = 3 << e
        n = catalog._euler_window(m, e)[0]
        assert n == m - 1 and n + max(0, alpha(n) - e) == m, e


def test_euler_scans_equal_full_scan():
    top = 2**14 + 20
    ms = sorted(set(range(601)) | {m for t in range(15)
                                   for m in range(2**t - 20, 2**t + 21)
                                   if m >= 0})
    for e in range(1, 11):
        euler, conj = _full_scans(e, top)
        for m in ms:
            space = LensSpace(m, e)
            for got, want in ((euler_class_lower_bounds(space), euler),
                              (conjectural_lower_bounds(space), conj)):
                assert [(b.dim, b.citation.rpartition("; ")[2])
                        for b in got] == want.get(m, []), (m, e)


def test_power_of_two_lower():
    assert power_of_two_lower(LensSpace(8, 3)).dim == 33
    assert power_of_two_lower(LensSpace(1, 1)).dim == 5
    assert power_of_two_lower(LensSpace(3, 2)) is None
    assert power_of_two_lower(LensSpace(0, 1)) is None


def test_codim2_lower():
    # no embedding in R^(2m+3), hence dimension >= 2m+4 (this recovers the
    # n = 2, 3 high-torsion Euler-class cases)
    assert codim2_lower(LensSpace(2, 1)).dim == 8
    assert codim2_lower(LensSpace(3, 1)) is None     # the one exception
    assert codim2_lower(LensSpace(3, 2)).dim == 10
    assert codim2_lower(LensSpace(3, 1, 3)).dim == 10  # torsion 6 is covered
    assert codim2_lower(LensSpace(1, 5)) is None


def test_low_dim_exact():
    lo, up = low_dim_exact(LensSpace(0, 1))
    assert lo.dim == up.dim == 2
    lo, up = low_dim_exact(LensSpace(1, 5))
    assert lo.dim == up.dim == 5
    assert up.category is Category.SMOOTH
    assert low_dim_exact(LensSpace(2, 1)) is None


def test_hhmp_upper():
    assert hhmp_upper(LensSpace(5, 2)).dim == 21
    assert hhmp_upper(LensSpace(1, 1)).dim == 5
    assert hhmp_upper(LensSpace(8, 3)).dim == 33
    with pytest.raises(ValueError):
        hhmp_upper(LensSpace(0, 1))


def test_spin_upper():
    assert spin_upper(LensSpace(7, 4)).dim == 28
    assert spin_upper(LensSpace(3, 2)).dim == 12
    assert spin_upper(LensSpace(5, 2)) is None
    assert spin_upper(LensSpace(8, 1)) is None


def test_closed_form_uppers_examples():
    dims = {b.rule_id: b.dim for b in at(7, 5)}
    assert dims == {"round1": 27, "round2:base": 27}
    dims = {b.rule_id: b.dim for b in at(11, 2)}
    assert dims == {"round1": 43, "round2": 41}
    dims = {b.rule_id: b.dim for b in at(13, 1)}
    assert dims == {"round1": 51, "round1-sharp": 50}
    dims = {b.rule_id: b.dim for b in at(7, 2)}
    assert dims == {"round1": 27, "round2-special": 26, "round2:base": 26}
    assert at(4, 2) == ()


def test_projective_pl_uppers():
    # at e = 1 the second round rests on the PL embedding of P^15 in R^23,
    # and only its special case at m = 7 does not
    def flagged(m, e):
        return {(b.rule_id, b.dim) for b in at(m, e)
                if b.external}
    assert flagged(11, 1) == {("round2", 39)}
    assert flagged(27, 1) == {("round2", 103), ("round2-sharp", 102)}
    assert flagged(7, 1) == {("round2:base", 24)}
    assert flagged(19, 1) == {("round2", 71)}
    for m in range(404):
        assert flagged(m, 2) == set(), m


def test_closed_form_smoothability():
    # the m = 3 catalog entry is the one flagged topological
    space = LensSpace(3, 4)
    entry, = at(space.m, space.e)
    assert entry.dim == 11 and entry.category is Category.TOPOLOGICAL
    assert not metastable_smoothable(space.dim, entry.dim)
    space = LensSpace(13, 1)
    entry = at(space.m, space.e)[0]
    assert entry.category is Category.SMOOTH
    assert metastable_smoothable(space.dim, entry.dim)


def test_metastable_smoothable():
    assert not metastable_smoothable(7, 11)   # 22 < 24
    assert metastable_smoothable(15, 27)      # 54 >= 48
    assert not metastable_smoothable(3, 5)


def test_report_examples():
    rep = report(LensSpace(8, 3))
    assert rep.exact and rep.lower.dim == rep.upper.dim == 33
    assert rep.lower.rule_id == "power-of-two-floor"
    assert rep.upper.rule_id == "hhmp"

    # for e >= 3 the n = m Euler-class bound fires: 4*7 - 2*3 + 2 = 24
    rep = report(LensSpace(7, 3))
    assert (rep.lower.dim, rep.upper.dim) == (24, 27)

    rep = report(LensSpace(1, 7))
    assert rep.exact and rep.upper.dim == 5

    rep = report(LensSpace(0, 2))
    assert rep.exact and rep.upper.dim == 2


def test_report_never_inconsistent_small():
    for e in range(1, 7):
        for m in range(80):
            rep = report(LensSpace(m, e))
            assert rep.lower.dim <= rep.upper.dim
            assert rep.lower.dim >= 2 * m + 2
            assert rep.upper.dim >= 2 * m + 2
            assert rep.exact == (rep.gap == 0)


def test_report_default_hides_flagged_rules():
    rep = report(LensSpace(11, 1))
    assert all(not b.conjectural and not b.external for b in rep.all_bounds)
    rep_ext = report(LensSpace(11, 1), external=True)
    assert any(b.external for b in rep_ext.all_bounds)
    assert rep_ext.upper.dim <= rep.upper.dim


def test_report_conjectural_rules():
    # smallest failing hypothesis: n = 255, e = 1, delta = 7 -> m = 262
    space = LensSpace(262, 1)
    assert conjectural_lower_bounds(space)
    rep = report(space)
    assert all(not b.conjectural for b in rep.all_bounds)
    rep_c = report(space, conjectural=True)
    assert any(b.conjectural for b in rep_c.all_bounds)


def test_report_odd_torsion():
    rep = report(LensSpace(9, 2, 3))
    assert rep.upper.transferred
    assert rep.upper.dim == 35              # first-round value carries over
    assert rep.lower.dim == 22              # codim-2 on the dim-19 manifold
    # low-dimensional exact values hold for any torsion directly
    rep = report(LensSpace(1, 2, 7))
    assert rep.exact and rep.upper.dim == 5 and not rep.upper.transferred
    # transferred bounds must sit in the metastable range
    for b in report(LensSpace(6, 1, 3)).all_bounds:
        if b.transferred:
            assert metastable_smoothable(13, b.dim)


def test_compactness_floor_is_last_resort():
    # the codim-2 exception leaves the floor as the only lower bound
    rep = report(LensSpace(3, 1))
    assert rep.lower.rule_id == "compactness" and rep.lower.dim == 8
    assert rep.upper.dim == 11
    assert compactness_floor(LensSpace(3, 1)).dim == 8


def test_eff_row_of_the_catalog():
    # embedding efficiency 2*dim - upper at e = 2: 3/4/5/6 per column
    for ell, rule, eff in ((3, "round1", 3), (6, "round1-sharp", 4)):
        m = 2 * ell + 1
        up = {b.rule_id: b.dim for b in at(m, 2)}
        assert 2 * (2 * m + 1) - up[rule] == eff
    for ell, rule, eff in ((3, "round2", 5), (6, "round2-sharp", 6)):
        m = 4 * ell + 3
        up = {b.rule_id: b.dim for b in at(m, 2)}
        assert 2 * (2 * m + 1) - up[rule] == eff


def test_gap_law_spot():
    for ell in (1, 3, 5, 9, 21):
        m = 2 * ell + 1
        e = max(3, alpha(m))
        space = LensSpace(m, e)
        up = {b.rule_id: b.dim for b in at(space.m, space.e)}
        low = max(b.dim for b in euler_class_lower_bounds(space))
        assert up["round1"] - low == 2 * alpha(ell) - 1


# the catalog rule each rule of the rounds oracle regenerates; the ground
# round2:base at m = 7 keeps its id
CATALOG_RULE = {"round1:base": "round1", "round1:step": "round1",
                "round1:sharp": "round1-sharp",
                "round2:special": "round2-special", "round2:base": "round2:base",
                "round2:step": "round2", "round2:sharp": "round2-sharp"}


def test_closed_forms_agree_with_the_rounds_oracle():
    for e in range(1, 9):
        want: dict[int, dict[str, int]] = {}
        for (rule, m), dim in verify._expected_rounds(e, 403).items():
            want.setdefault(m, {})[CATALOG_RULE[rule]] = dim
        for m in range(0, 404):
            bounds = at(m, e)
            got = {b.rule_id: b.dim for b in bounds}
            assert len(got) == len(bounds) and got == want.get(m, {}), (m, e)


def _flag_mismatches(e: int, max_m: int) -> list[tuple[int, int, str, int]]:
    """Each round bound of `report(..., external=True)` at m <= max_m that
    no output of `proofs.pairs(e, max_m)` at m of its dim matches, or whose
    `external` flag is not set exactly when that output's derivation rests
    on the PL seed."""
    seeded: dict[tuple[int, int], set[bool]] = {}
    for m, b in proofs.pairs(e, max_m):
        rests = any(n.rule_id == "axiom:pl-seed"
                    for n in unique_nodes((b.derivation,)))
        seeded.setdefault((m, b.dim), set()).add(rests)
    return [(m, e, b.rule_id, b.dim) for m in range(max_m + 1)
            for b in report(LensSpace(m, e), external=True).all_bounds
            if b.rule_id.startswith("round")
            and seeded.get((m, b.dim)) != {b.external}]


def test_round_flags_match_the_derivations():
    for e in (1, 2, 3):
        assert _flag_mismatches(e, 403) == [], e


def test_export_lists_resolve():
    for module in (lensbounds, catalog):
        assert len(set(module.__all__)) == len(module.__all__)
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace), module.__name__


def test_report_takes_little_memory_at_any_m():
    # at m = 10^12 + 3 both rounds have a step and the spin rule applies
    tracemalloc.start()
    try:
        rep = catalog.report(LensSpace(10**12 + 3, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak
    assert "spin" in {b.rule_id for b in rep.all_bounds}
