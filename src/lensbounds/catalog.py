"""Bounds catalog: every (non)embedding theorem as a rule emitting Bound
records, combined into a best-bounds report for a given lens space.

Lower bounds are stored as "embedding dimension >= dim", i.e. nonembedding
in R^(dim-1), so rules never disagree about off-by-ones.  All rules are
pure; report() is deterministic.  A row costs O(log m) time and memory:
the Euler-class scans look at about log2(m) candidates, `is_spin` forms
no ring of the space, and the round bounds come from `inductive.at(m,
e)`, which gates only m's own steps, checks each output against its
closed form and makes no derivation (report() never reads one).  The
catalog computes and names no round bound: those of `at` carry their
names, citations and flags.

Not encoded: immersion-to-embedding transfer (its embedding analogue
provably fails in general), transfer down in torsion, and the speculative
10-dimensional embedding of the 7-dimensional spaces (unestablished).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import attrgetter

from .cohomology import is_spin
from .dyadic import alpha, nu
from .inductive import at
from .records import (Bound, Category, Direction, InconsistentBoundsError,
                      LensSpace, metastable_smoothable, upper_bound)

__all__ = [
    "LensSpace", "Bound", "Report", "Direction", "Category",
    "metastable_smoothable", "euler_class_condition",
    "euler_class_lower_bounds", "power_of_two_lower", "codim2_lower",
    "compactness_floor", "low_dim_exact", "hhmp_upper", "spin_upper",
    "conjectural_lower_bounds", "report", "InconsistentBoundsError",
]


def euler_class_condition(n: int, e: int) -> bool:
    """Hypothesis of the Euler-class nonembedding rule:
    e >= min(alpha(n) - 6, alpha(n) + 1 - 2^nu(n)).

    The min is often negative, making the condition vacuous; it only bites
    in the low-torsion regime with large digit sums.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return e >= min(alpha(n) - 6, alpha(n) + 1 - 2 ** nu(n))


def _euler_window(m: int, e: int) -> range:
    """Every n >= 1 that can satisfy n + delta = m, delta = max(0, alpha(n) - e).

    Complete: n = m - delta <= m, and a positive delta needs alpha(n) <=
    bit_length(m) - 1.  For alpha(n) <= bit_length(n), with equality only
    at n = 2^j - 1, and then m = n + delta >= 2^j has more digits than n.
    So delta <= max(0, bit_length(m) - 1 - e) and n lies in the window.
    Tight for every e: at m = 3 * 2^e the window's first n is m - 1, whose
    digits are 10 and then e ones, so delta = 1 and n solves.
    """
    return range(max(1, m - max(0, m.bit_length() - 1 - e)), m + 1)


def _euler_solutions(space: LensSpace) -> Iterator[tuple[int, int]]:
    """Each (n, delta) with n + delta = m, where delta = max(0, alpha(n) - e),
    in ascending n over `_euler_window`; none off 2-power torsion."""
    if space.odd_factor != 1:
        return
    m, e = space.m, space.e
    for n in _euler_window(m, e):
        if n + max(0, alpha(n) - e) == m:
            yield n, m - n


def _lower(dim: int, rule_id: str, citation: str, **flags) -> Bound:
    return Bound(Direction.LOWER, dim, Category.SMOOTH, rule_id, citation,
                 **flags)


def euler_class_lower_bounds(space: LensSpace) -> list[Bound]:
    """Euler-class nonembedding: for every n with n + delta = m, where
    delta = max(0, alpha(n) - e), and the rule's hypothesis holds, the
    space does not embed in R^(4n - 2 alpha(n) + 1).

    Only `_euler_window(m, e)` is scanned, in ascending order; its
    docstring shows it holds every solution.  Stated for 2-power torsion
    only.
    """
    return [_lower(4 * n - 2 * alpha(n) + 2, "euler-class",
                   "Euler-class obstruction in connective K-theory (delta = 0) "
                   f"/ Brown-Peterson theory (delta > 0); n={n}, delta={delta}")
            for n, delta in _euler_solutions(space)
            if euler_class_condition(n, space.e)]


def power_of_two_lower(space: LensSpace) -> Bound | None:
    """When alpha(m) = 1 the general-position embedding in R^(4m+1) is
    optimal: no embedding in R^(4m)."""
    if space.odd_factor != 1 or space.m < 1 or alpha(space.m) != 1:
        return None
    return _lower(4 * space.m + 1, "power-of-two-floor",
                  "Gysin-sequence argument: the general-position embedding "
                  "is optimal when alpha(m) = 1")


def codim2_lower(space: LensSpace) -> Bound | None:
    """No codimension-2 embedding for lens spaces of dimension >= 5.

    Such an embedding forces stable parallelizability, and the only stably
    parallelizable lens space of even torsion and dimension >= 5 is the
    parallelizable 7-dimensional 2-torsion space, the one excluded case.
    """
    if space.dim < 5:
        return None
    if space.m == 3 and space.e == 1 and space.odd_factor == 1:
        return None
    return _lower(space.dim + 3, "codim2",
                  "codimension-2 embeddings force stable parallelizability")


def compactness_floor(space: LensSpace) -> Bound:
    """A closed manifold never embeds in its own dimension."""
    return _lower(space.dim + 1, "compactness",
                  "closed manifolds need at least one extra dimension")


def low_dim_exact(space: LensSpace) -> tuple[Bound, Bound] | None:
    """Exact values in dimensions 1 and 3: the circle needs the plane, and
    every 3-dimensional lens space needs and gets R^5 (no R^4 embedding
    exists; R^5 embeddings are smooth)."""
    if space.m == 0:
        cite = "the circle embeds optimally in the plane"
        return (_lower(2, "low-dim", cite),
                upper_bound(space.dim, 2, "low-dim", cite,
                            smooth_rule=True))
    if space.m == 1:
        return (_lower(5, "low-dim",
                       "no 3-dimensional lens space embeds in R^4 (Hantzsche)"),
                upper_bound(space.dim, 5, "low-dim",
                            "every 3-dimensional lens space embeds smoothly "
                            "in R^5 (Hirsch)", smooth_rule=True))
    return None


def hhmp_upper(space: LensSpace) -> Bound:
    """General-position embedding in R^(4m+1), any (m, e) with m >= 1."""
    if space.m < 1:
        raise ValueError("use low_dim_exact for the circle")
    return upper_bound(space.dim, 4 * space.m + 1, "hhmp",
                       "Haefliger-Hirsch-Massey-Peterson general-position "
                       "embedding", smooth_rule=True)


def spin_upper(space: LensSpace) -> Bound | None:
    """Spin embedding in R^(4m) for m = 3 mod 4.

    Spin manifolds of dimension 5, 6, 7 mod 8 and >= 7 embed with
    codimension dim-2 (Thomas); m = 3 mod 4 gives dimension 7 mod 8 >= 7,
    and the spin prerequisite (m odd) is cross-checked on the cohomology.
    """
    if space.odd_factor != 1 or space.m % 4 != 3:
        return None
    if not is_spin(space.m, space.e):
        raise AssertionError(f"spin prerequisite failed for {space}")
    return upper_bound(space.dim, 4 * space.m, "spin",
                       "spin manifolds of dimension 7 mod 8 embed with "
                       "codimension dim-2 (Thomas)", smooth_rule=True)


def conjectural_lower_bounds(space: LensSpace) -> list[Bound]:
    """Low-torsion Euler-class bounds with the valuation hypothesis waived.

    It is conjectured that the hypothesis can be dropped when delta > 0;
    these bounds are tagged conjectural and never enter a default report.
    Scans the same complete window as euler_class_lower_bounds.
    """
    return [_lower(4 * n - 2 * alpha(n) + 2, "euler-class-conjectural",
                   "low-torsion Euler-class bound, hypothesis waived; "
                   f"n={n}, delta={delta}", conjectural=True)
            for n, delta in _euler_solutions(space)
            if delta > 0 and not euler_class_condition(n, space.e)]


class Report(namedtuple("Report", "space lower upper all_bounds exact")):
    """Best lower/upper bounds with full provenance for one lens space."""

    __slots__ = ()

    @property
    def gap(self) -> int:
        return self.upper.dim - self.lower.dim


def report(space: LensSpace, conjectural: bool = False,
           external: bool = False) -> Report:
    """Aggregate every applicable rule; best lower is the max, best upper
    the min (ties keep the earlier, more specific rule).

    conjectural / external opt into the flagged rule sets; without them no
    conjectural or external-input bound is consulted (the e = 1 second
    round among them).  The round uppers are those of the 2-primary space,
    one `inductive.at(m, e)` lookup; off 2-power torsion they, like the
    other uppers of that space, count only within the metastable range,
    flagged transferred.  Raises InconsistentBoundsError if lower exceeds
    upper (an engine bug).
    """
    lowers: list[Bound] = []
    uppers: list[Bound] = []

    exact_pair = low_dim_exact(space)
    if exact_pair is not None:
        lowers.append(exact_pair[0])
        uppers.append(exact_pair[1])

    p2 = power_of_two_lower(space)
    if p2 is not None:
        lowers.append(p2)
    lowers.extend(euler_class_lower_bounds(space))
    c2 = codim2_lower(space)
    if c2 is not None:
        lowers.append(c2)
    lowers.append(compactness_floor(space))
    if conjectural:
        lowers.extend(conjectural_lower_bounds(space))

    if space.m >= 1:
        primary = (space if space.odd_factor == 1
                   else LensSpace(space.m, space.e))
        cand = [b for b in at(space.m, space.e) if external or not b.external]
        sp = spin_upper(primary)
        if sp is not None:
            cand.append(sp)
        cand.append(hhmp_upper(primary))
        if space.odd_factor != 1:
            cand = [b._replace(transferred=True) for b in cand
                    if metastable_smoothable(space.dim, b.dim)]
        uppers.extend(cand)

    # max and min keep the first of equal dims
    lower = max(lowers, key=attrgetter("dim"))
    upper = min(uppers, key=attrgetter("dim"))
    if lower.dim > upper.dim:
        raise InconsistentBoundsError(space, lower, upper)
    return Report(space, lower, upper, tuple(lowers + uppers),
                  lower.dim == upper.dim)
