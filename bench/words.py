"""Reduced words by length, computed without importing the measured program.

An element of the Weyl group of a generalized Cartan matrix ``a`` is held by
its image w(rho), in coordinates <alpha_i^vee, w(rho)>: rho lies inside the
fundamental chamber, so the orbit map is injective (Tits), and i is a left
descent of w exactly when the i-th coordinate is negative.  Keeping this
independent of ``kmchev.weyl`` means a later change to the program's own
canonical words or layer order cannot change the benchmark's inputs.
"""
from __future__ import annotations


def _reflect(a, i: int, mu: tuple) -> tuple:
    c = mu[i]
    if c == 0:
        return mu
    return tuple(x - c * a[k][i] for k, x in enumerate(mu))


def canonical_word(a, mu: tuple) -> tuple:
    """Reduced word read off by peeling the smallest left descent."""
    word = []
    while any(x < 0 for x in mu):
        i = next(k for k, x in enumerate(mu) if x < 0)
        word.append(i)
        mu = _reflect(a, i, mu)
    return tuple(word)


def layer(a, length: int) -> list[tuple]:
    """Canonical reduced words of every element of the given length, sorted."""
    n = len(a)
    current = {(1,) * n}
    for _ in range(length):
        nxt = set()
        for mu in current:
            for i in range(n):
                if mu[i] > 0:  # s_i w is longer than w
                    nxt.add(_reflect(a, i, mu))
        current = nxt
    return sorted(canonical_word(a, mu) for mu in current)
