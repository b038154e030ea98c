"""Digit identities proved for every input by a synchronous base-2 automaton.

An identity between digit sums, carry counts and valuations of numbers of
N binary digits is read as a word of N digit tuples, the low digit first:
the tuple at position i holds digit i of each input.  An automaton reads
the word with a finite state (carries and borrows) and gives each step a
weight, its share of the identity's left side minus its right side, so the
identity says that every accepted word has total weight `constant`.

That holds exactly when there is a potential phi on the live states (those
both reachable from the start and co-reachable from an accepting state)
with phi(start) = 0, phi(t) = phi(s) + w on every edge s -> t of weight w
between live states, and phi = constant at every live accepting state.  If
it exists, a word's total telescopes to phi of its last state.  If the
identity holds, the weight of any path from the start to a live state s is
one value, since the path extends to an accepted word and the deterministic
automaton reads different paths as different words; that value is phi(s).
So a search forward from the start, one back from the accepting states
and one over the live edges decide the identity for every N and every
input: the decision procedure of Buchi arithmetic, specialised to sums
(Mousavi's Walnut; Shallit, *The Logical Approach to Automatic Sequences*,
2022).

`verify dyadic` imports this module when it runs, so no other subcommand
or scope compiles or loads it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Hashable, Sequence
from itertools import product


class Proof(namedtuple("Proof", "edges failure")):
    """The live edges checked, and the first failing edge or accepting
    state (None when the identity holds for every input)."""

    __slots__ = ()


def prove(start: Hashable, alphabet: Sequence[tuple[int, ...]],
          step: Callable, accepting: Sequence[Hashable],
          constant: int) -> Proof:
    """Decide whether every accepted word has total weight `constant`;
    `step(state, digits)` is `(next state, weight)`.

    Every live edge is checked and counted, also after a failure, and
    edges come before accepting states, each in search order.
    """
    out: dict = {}  # each reachable state's edges (digits, next, weight)
    into: dict = {start: []}  # each reachable state's predecessors
    order = [start]
    for s in order:
        out[s] = [(d, *step(s, d)) for d in alphabet]
        for _, t, _ in out[s]:
            if t not in into:
                into[t] = []
                order.append(t)
            into[t].append(s)
    live = {s for s in accepting if s in into}
    stack = list(live)
    while stack:  # co-reachable from an accepting state
        for s in into[stack.pop()]:
            if s not in live:
                live.add(s)
                stack.append(s)
    if start not in live:
        return Proof(0, "no accepting state is reachable")
    phi = {start: 0}
    queue = [start]
    edges = 0
    failure = None
    for s in queue:
        for d, t, w in out[s]:
            if t not in live:
                continue
            edges += 1
            if t not in phi:
                phi[t] = phi[s] + w
                queue.append(t)
            elif phi[t] != phi[s] + w and failure is None:
                failure = (f"first failing edge {s} -{d}-> {t}: potential "
                           f"{phi[s]} + weight {w} != {phi[t]}")
    for s in accepting:
        if s in live and phi[s] != constant and failure is None:
            failure = (f"first failing accepting state {s}: potential "
                       f"{phi[s]} != constant {constant}")
    return Proof(edges, failure)


class DigitIdentity(namedtuple("DigitIdentity",
                               "start alphabet step accepting signs constant")):
    """sum(signs[j] * total of term j) = constant over every accepted word.

    `step(state, digits)` is `(next state, terms)`: one digit of each of
    the identity's quantities, each formed by the operation that names it.
    """

    __slots__ = ()

    def weighted(self, state, digits):
        nxt, terms = self.step(state, digits)
        return nxt, sum(s * t for s, t in zip(self.signs, terms))

    def prove(self) -> Proof:
        return prove(self.start, self.alphabet, self.weighted, self.accepting,
                     self.constant)

    def run(self, values: Sequence[int], n: int):
        """The last state and each term's total over the n-digit word of
        `values`."""
        state = self.start
        rows = []
        # the i-th tuple holds digit i of each value
        for digits in zip(*([(v >> i) & 1 for i in range(n)] for v in values)):
            state, terms = self.step(state, digits)
            rows.append(terms)
        return state, tuple(map(sum, zip(*rows)))


# --- the package's digit identities ----------------------------------------

def _add(x: int, y: int, carry: int) -> tuple[int, int]:
    """One digit of x + y + carry, and the carry out."""
    s = x + y + carry
    return s & 1, s >> 1


def _sub(x: int, y: int, borrow: int) -> tuple[int, int]:
    """One digit of x - y - borrow, and the borrow out."""
    d = x - y - borrow
    return d & 1, int(d < 0)


def _alpha_pred(state, digits):
    # a - 1 (borrow, 1 at the start), and whether every digit of a so far
    # is 0; terms alpha(a - 1), alpha(a), nu(a)
    borrow, low = state
    (a,) = digits
    pred, borrow = _sub(a, 0, borrow)
    return (borrow, low & (a ^ 1)), (pred, a, low & (a ^ 1))


def _pow_minus(state, digits):
    # 2^N - a as 0 - a, and a - 1; terms alpha(2^N - a), N, alpha(a - 1)
    neg, dec = state
    (a,) = digits
    p, neg = _sub(0, a, neg)
    pred, dec = _sub(a, 0, dec)
    return (neg, dec), (p, 1, pred)


def _binom_pow_minus(state, digits):
    # p = 2^N - a as 0 - a, q = p - b, the carries of b + q, a - 1 and
    # (a - 1) + b; terms nu(C(2^N - a, b)), alpha(b), alpha(a - 1),
    # alpha(a + b - 1)
    neg, sub, carry, dec, pcarry = state
    a, b = digits
    p, neg = _sub(0, a, neg)
    q, sub = _sub(p, b, sub)
    _, carry = _add(b, q, carry)
    pred, dec = _sub(a, 0, dec)
    s, pcarry = _add(pred, b, pcarry)
    return (neg, sub, carry, dec, pcarry), (carry, b, pred, s)


def _kummer(carry, digits):
    # b + c; terms carries(b, c), alpha(b), alpha(c), alpha(b + c)
    b, c = digits
    s, carry = _add(b, c, carry)
    return carry, (carry, b, c, s)


_ONE_INPUT = ((0,), (1,))
_TWO_INPUTS = tuple(product((0, 1), repeat=2))

# Accepting states say that every input and result has N digits: a >= 1
# (0 - a ends in a borrow, a - 1 in none), b <= 2^N - a and b + c < 2^N.
# alpha(a - 1) + 1 = alpha(a) + nu(a), for 1 <= a < 2^N
ALPHA_PRED = DigitIdentity((1, 1), _ONE_INPUT, _alpha_pred, ((0, 0),),
                           (1, -1, -1), -1)
# alpha(2^N - a) = N - alpha(a - 1), for 1 <= a < 2^N
POW_MINUS = DigitIdentity((0, 1), _ONE_INPUT, _pow_minus, ((1, 0),),
                          (1, -1, 1), 0)
# nu(C(2^N - a, b)) = alpha(b) + alpha(a - 1) - alpha(a + b - 1), for
# 1 <= a < 2^N and 0 <= b <= 2^N - a
BINOM_POW_MINUS = DigitIdentity((0, 0, 0, 1, 0), _TWO_INPUTS,
                                _binom_pow_minus, ((1, 0, 0, 0, 0),),
                                (1, -1, -1, 1), 0)
# Kummer's digit form: carries(b, c) = alpha(b) + alpha(c) - alpha(b + c),
# for b + c < 2^N
KUMMER = DigitIdentity(0, _TWO_INPUTS, _kummer, (0,), (1, -1, -1, 1), 0)
