"""Bounds catalog: every (non)embedding theorem as a rule emitting Bound
records, combined into a best-bounds report for a given lens space.

Each rule is one branch of one of two generators, `lower_bounds` and
`upper_bounds`, which yield the Bounds that apply to a space, most
specific first; `report()` takes the max of the one and the min of the
other.

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
                      LensSpace, SpinCriteriaError, metastable_smoothable)

__all__ = [
    "LensSpace", "Bound", "Report", "Direction", "Category",
    "metastable_smoothable", "euler_class_condition",
    "euler_class_lower_bounds", "conjectural_lower_bounds", "lower_bounds",
    "upper_bounds", "report", "InconsistentBoundsError",
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


def _upper(dim: int, rule_id: str, citation: str) -> Bound:
    return Bound(Direction.UPPER, dim, Category.SMOOTH, rule_id, citation)


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


def lower_bounds(space: LensSpace,
                 conjectural: bool = False) -> Iterator[Bound]:
    """Every lower bound that applies to `space`, most specific first: the
    exact values in dimensions 1 and 3, the power-of-two floor, the
    Euler-class bounds, codimension 2, compactness, and the conjectural
    Euler-class bounds only under `conjectural`."""
    m, dim = space.m, space.dim
    if m == 0:
        yield _lower(2, "low-dim", "the circle embeds optimally in the plane")
    elif m == 1:
        yield _lower(5, "low-dim",
                     "no 3-dimensional lens space embeds in R^4 (Hantzsche)")
    # when alpha(m) = 1 the general-position embedding in R^(4m+1) is
    # optimal: no embedding in R^(4m)
    if space.odd_factor == 1 and alpha(m) == 1:
        yield _lower(4 * m + 1, "power-of-two-floor",
                     "Gysin-sequence argument: the general-position "
                     "embedding is optimal when alpha(m) = 1")
    yield from euler_class_lower_bounds(space)
    # a codimension-2 embedding forces stable parallelizability, and the
    # only stably parallelizable lens space of even torsion and dimension
    # >= 5 is the parallelizable 7-dimensional 2-torsion space
    if dim >= 5 and space != (3, 1, 1):
        yield _lower(dim + 3, "codim2",
                     "codimension-2 embeddings force stable parallelizability")
    yield _lower(dim + 1, "compactness",
                 "closed manifolds need at least one extra dimension")
    if conjectural:
        yield from conjectural_lower_bounds(space)


def upper_bounds(space: LensSpace, external: bool = False) -> Iterator[Bound]:
    """Every upper bound that applies to `space`, most specific first.

    In dimensions 1 and 3 the exact values, which hold for any torsion.
    For m >= 1, those of the 2-primary space: the round bounds of
    `inductive.at(m, e)` (an external one only under `external`), the spin
    embedding in R^4m for m = 3 mod 4 (spin manifolds of dimension 7 mod 8
    embed with codimension dim - 2, Thomas), and general position in
    R^(4m+1).  Off 2-power torsion these count only within the metastable
    range, flagged transferred.  Every closed-form rule embeds smoothly.
    """
    m, e = space.m, space.e
    if m == 0:
        yield _upper(2, "low-dim", "the circle embeds optimally in the plane")
        return
    if m == 1:
        yield _upper(5, "low-dim", "every 3-dimensional lens space embeds "
                     "smoothly in R^5 (Hirsch)")
    primary = [b for b in at(m, e) if external or not b.external]
    if m % 4 == 3:
        # the spin prerequisite (m odd), cross-checked on the cohomology
        if not is_spin(m, e):
            raise SpinCriteriaError(
                f"spin prerequisite failed for {LensSpace(m, e)}")
        primary.append(_upper(4 * m, "spin", "spin manifolds of dimension "
                              "7 mod 8 embed with codimension dim-2 (Thomas)"))
    primary.append(_upper(4 * m + 1, "hhmp", "Haefliger-Hirsch-Massey-"
                          "Peterson general-position embedding"))
    if space.odd_factor == 1:
        yield from primary
    else:
        yield from (b._replace(transferred=True) for b in primary
                    if metastable_smoothable(space.dim, b.dim))


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
    round among them).  Raises InconsistentBoundsError if lower exceeds
    upper (an engine bug).
    """
    lowers = list(lower_bounds(space, conjectural))
    uppers = list(upper_bounds(space, external))
    # max and min keep the first of equal dims
    lower = max(lowers, key=attrgetter("dim"))
    upper = min(uppers, key=attrgetter("dim"))
    if lower.dim > upper.dim:
        raise InconsistentBoundsError(space, lower, upper)
    return Report(space, lower, upper, tuple(lowers + uppers),
                  lower.dim == upper.dim)
