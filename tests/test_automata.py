"""The automaton decision procedure against brute force over short words."""

import random

from lensbounds import automata


def _brute_force(start, alphabet, table, accepting, constant, length):
    """(every accepted word of at most `length` letters has total weight
    `constant`, some word of at most `length` letters is accepted)."""
    holds, accepted = True, False
    runs = {(start, 0)}  # (last state, total) over the words of one length
    for _ in range(length + 1):
        ends = [w for s, w in runs if s in accepting]
        accepted = accepted or bool(ends)
        holds = holds and all(w == constant for w in ends)
        runs = {(table[s, d][0], w + table[s, d][1])
                for s, w in runs for d in alphabet}
    return holds, accepted


def test_prove_agrees_with_brute_force():
    # random automata of 1 to 4 states, most of whose edges respect a
    # random potential; a failure shows on a word of at most 2k letters (a
    # path to s, an edge s -> t and a path on to an accepting state, each
    # path at most k - 1 letters), and so does an accepted word
    rng = random.Random(2022)
    alphabet = ((0,), (1,))
    verdicts = set()
    for _ in range(400):
        k = rng.randrange(1, 5)
        phi = [rng.randrange(-2, 3) for _ in range(k)]
        table = {}
        for s in range(k):
            for d in alphabet:
                t = rng.randrange(k)
                table[s, d] = (t, phi[t] - phi[s] + int(rng.random() < 0.1))
        accepting = tuple(s for s in range(k) if rng.random() < 0.5)
        constant = phi[accepting[0]] - phi[0] if accepting else 0
        constant += int(rng.random() < 0.1)
        proof = automata.prove(0, alphabet, lambda s, d: table[s, d],
                               accepting, constant)
        holds, accepted = _brute_force(0, alphabet, table, accepting,
                                       constant, 2 * k)
        assert (proof.failure is None) == (holds and accepted), (
            table, accepting, constant, proof)
        verdicts.add(proof.failure is None)
    assert verdicts == {True, False}
