"""Shared record types: lens spaces, bounds, and derivation trees.

A Bound is one lower or upper bound on the Euclidean embedding dimension,
tagged with the rule that produced it and (for engine-derived bounds) a
derivation tree whose numeric side conditions can be replayed from their
stored integer witnesses.  Each side condition is its ConditionKind and
its witness values; the kind, declared once, holds the kind's name,
witness fields, replay check and text.  The module that builds the
conditions defines their kinds, so this module keeps no table of them.
`DerivationNode.replay` is the one routine that replays a derivation, and
`on_paths` the one count of the side conditions on its paths: `derive`
and `verify rounds` both use them.  `EngineError` is the base of the
errors that mark an engine bug (inconsistent bounds, a value off its
closed form, disagreeing spin criteria): `verify` fails the check that
meets one, and the CLI exits 3.

The records here, and those of the other modules, are `namedtuple`
subclasses with `__slots__ = ()`, not data classes made by the standard
library's decorator.  Every CLI command runs as a fresh process, and
importing that decorator's module also imports `inspect`, `ast`, `dis`
and `tokenize`, while each decorated class generates and compiles its
methods at import: about 20 ms of a 52 ms `import lensbounds.cli`
(Python 3.11, bytecode not cached).  A namedtuple is built in C, so a
record is also cheaper to make: a `Bound` takes 0.9 us, and `_replace`
copies one in 1.2 us.  A record's checks run in its `__new__`.  Records
compare and hash as the tuples of their fields.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable
from enum import Enum


class Direction(Enum):
    LOWER = "lower"   # embedding dimension >= dim
    UPPER = "upper"   # embedding dimension <= dim

    def __str__(self) -> str:
        return self.value


class Category(Enum):
    SMOOTH = "smooth"
    TOPOLOGICAL = "topological"

    def __str__(self) -> str:
        return self.value


class LensSpace(namedtuple("LensSpace", "m e odd_factor")):
    """The (2m+1)-dimensional lens space of torsion 2^e * odd_factor."""

    __slots__ = ()

    def __new__(cls, m: int, e: int, odd_factor: int = 1) -> LensSpace:
        if m < 0:
            raise ValueError(f"need m >= 0, got {m}")
        if e < 1:
            raise ValueError(f"need e >= 1, got {e}")
        if odd_factor < 1 or odd_factor % 2 == 0:
            raise ValueError(f"odd_factor must be odd >= 1, got {odd_factor}")
        return tuple.__new__(cls, (m, e, odd_factor))

    @property
    def dim(self) -> int:
        return 2 * self.m + 1

    @property
    def torsion(self) -> int:
        return 2**self.e * self.odd_factor

    def __str__(self) -> str:
        torsion = f"2^{self.e}" + (f"*{self.odd_factor}"
                                   if self.odd_factor > 1 else "")
        # the interpreter's int-to-str digit limit (0 where it has none);
        # past e = 10/3 of it, 2^e alone has more digits than it prints
        # (log2(10) < 10/3), so the number is not formed
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or self.e <= limit * 10 // 3:
            try:
                torsion = str(self.torsion)
            except ValueError:  # past the digit limit all the same
                pass
        return f"L^{self.dim}({torsion})"


def metastable_smoothable(manifold_dim: int, ambient_dim: int) -> bool:
    """Whether the ambient dimension is in the metastable range.

    In the range 2*ambient >= 3*(manifold_dim + 1), topological and smooth
    embeddability of a smooth closed manifold coincide.
    """
    return 2 * ambient_dim >= 3 * (manifold_dim + 1)


class ConditionKind(namedtuple("ConditionKind", "name fields check text")):
    """A kind of side condition, declared once: its name, the field names
    of its witness, `check`, the predicate that replays a condition of the
    kind from its values, and `text`, the function of the same values that
    renders the line `derive` prints.  The fields are `check`'s positional
    parameters, read here and nowhere else, so every condition of the kind
    stores its values in that order.  Kinds that share a name and a check
    may differ in their text."""

    __slots__ = ()

    def __new__(cls, name: str, check: Callable[..., bool],
                text: Callable[..., str]) -> ConditionKind:
        code = check.__code__
        return tuple.__new__(
            cls, (name, code.co_varnames[:code.co_argcount], check, text))

    def __getnewargs__(self) -> tuple[str, Callable[..., bool],
                                      Callable[..., str]]:
        return self.name, self.check, self.text


class SideCondition(namedtuple("SideCondition", "kind args")):
    """One checked numeric condition with the integers that satisfied it:
    its kind and its witness values in the kind's field order.

    Only `derive` prints a text, so `text` formats the kind's text from the
    values when it is read.  `values` gives the witness as a dict, and
    `replay` passes the values to the kind's check.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        return self.kind.text(*self.args)

    @property
    def values(self) -> dict[str, int]:
        return dict(zip(self.kind.fields, self.args))

    def replay(self) -> bool:
        return self.kind.check(*self.args)


class DerivationNode(namedtuple(
        "DerivationNode", "rule_id conclusion premises side_conditions",
        defaults=((), ()))):
    """Rule application: premises (child nodes or axioms) and side conditions."""

    __slots__ = ()

    def replay(self, memo: dict[int, bool] | None = None) -> bool:
        """Re-evaluate every side condition in the tree from its witnesses.

        Each node of the DAG is replayed once: `memo` keeps the verdicts by
        id(node), and roots replayed with one memo share them.  A premise
        is replayed by recursion, so the depth a replay reaches is the
        depth of the tree.
        """
        memo = {} if memo is None else memo
        if id(self) not in memo:
            memo[id(self)] = (all(c.replay() for c in self.side_conditions)
                              and all(p.replay(memo) for p in self.premises))
        return memo[id(self)]

    def to_lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}{self.rule_id}: {self.conclusion}",
                 *(f"{pad}  | {c.text}" for c in self.side_conditions)]
        for p in self.premises:
            lines.extend(p.to_lines(indent + 1))
        return lines

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "conclusion": self.conclusion,
            "side_conditions": [
                {"kind": c.kind.name, "witness": c.values, "text": c.text}
                for c in self.side_conditions
            ],
            "premises": [p.to_dict() for p in self.premises],
        }


def unique_nodes(roots) -> list[DerivationNode]:
    """Every node reachable from `roots`, each once, premises first.

    Derivations built together share their prior-round nodes, so they form
    a DAG; nodes are keyed by identity (structural hashing would recurse
    through the whole tree).  The walk keeps its own stack, so it works at
    any depth.
    """
    seen: set[int] = set()
    order: list[DerivationNode] = []
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, iter(root.premises))]
        while stack:
            node, premises = stack[-1]
            for p in premises:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.premises)))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def on_paths(roots, counted) -> dict[int, int]:
    """For each node reachable from `roots`, by id, how many side
    conditions that `counted` accepts lie on the paths down from it.

    A condition is counted once per path, as the printed tree repeats a
    shared premise under each node that cites it.  The fold runs over
    `unique_nodes`, premises first, so it works at any depth.
    """
    counts: dict[int, int] = {}
    for node in unique_nodes(roots):
        counts[id(node)] = sum(map(counted, node.side_conditions)) + sum(
            counts[id(p)] for p in node.premises)
    return counts


class Bound(namedtuple("Bound", "direction dim category rule_id citation "
                       "derivation conjectural external transferred")):
    """One bound on the embedding dimension, with provenance.

    LOWER means "the embedding dimension is at least dim" (nonembedding in
    R^(dim-1)); UPPER means "at most dim".  derivation is the tree of an
    engine bound (None for the closed-form rules, and for the integer
    pass).  The closed-form rules embed smoothly; an engine upper bound
    is smooth where the ambient dimension lies in the metastable range
    (see `upper_category`).
    """

    __slots__ = ()

    def __new__(cls, direction: Direction, dim: int, category: Category,
                rule_id: str, citation: str,
                derivation: DerivationNode | None = None,
                conjectural: bool = False, external: bool = False,
                transferred: bool = False) -> Bound:
        if dim < 0:
            raise ValueError(f"need dim >= 0, got {dim}")
        return tuple.__new__(cls, (direction, dim, category, rule_id,
                                   citation, derivation, conjectural,
                                   external, transferred))

    @property
    def flags(self) -> tuple[str, ...]:
        """The names of the flags set on this bound, in a fixed order."""
        return tuple(name for name, on in (("conjectural", self.conjectural),
                                           ("external", self.external),
                                           ("transferred", self.transferred))
                     if on)

    def __str__(self) -> str:
        sense = ">=" if self.direction is Direction.LOWER else "<="
        flags = "".join(f" [{name}]" for name in self.flags)
        return f"emb {sense} {self.dim} ({self.category}, {self.rule_id}){flags}"


def upper_category(manifold_dim: int, ambient_dim: int) -> Category:
    """The category of an engine's embedding in R^ambient_dim: smooth
    exactly in the metastable range."""
    if metastable_smoothable(manifold_dim, ambient_dim):
        return Category.SMOOTH
    return Category.TOPOLOGICAL


class EngineError(Exception):
    """An engine bug, not an input error: the base of the errors that
    `verify` turns into a failed check and the CLI into exit 3."""


class InconsistentBoundsError(EngineError):
    """A lower bound exceeded an upper bound."""

    def __init__(self, space: LensSpace, lower: Bound, upper: Bound):
        self.space = space
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"internal inconsistency for {space}: lower {lower.dim} "
            f"({lower.rule_id}) > upper {upper.dim} ({upper.rule_id})")


class RoundsDivergenceError(EngineError):
    """The round-runner, or a gate it rests on, produced a value off its
    closed form."""


class SpinCriteriaError(EngineError):
    """The two routes to the spin criterion disagreed, or a space the
    catalog's spin rule takes is not spin."""
