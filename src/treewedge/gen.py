"""Seeded random fixture generators, and one fixed grid of positions.

Every draw takes an explicit random.Random so that suite reports are
reproducible bit for bit from (config, seed).  ``grid_below`` draws
nothing: it enumerates a fixed set of positions below a bound, so a suite
can check each distinct position once instead of redrawing the same few.

The hot draws (``rand_below``, ``rand_bit_node``, ``rand_digit_node``) bind
``below = rng._randbelow`` once and call it in place of ``randrange(n)``,
``randrange(a, b)`` and ``choice(s)``, which are ``_randbelow(n)``,
``a + _randbelow(b - a)`` and ``s[_randbelow(len(s))]`` on every supported
Python.  That skips randrange's argument handling and consumes exactly
the same random bits, so the stream and every report stay the same;
``tests/test_gen.py`` pins it against randrange-based reference copies.
"""

from __future__ import annotations

import random

from itertools import islice
from typing import Iterator

from .families import BitFamily, BitNode, DigitFamily, DigitNode, InjFamily
from .ordinal import Ordinal, block_decompose, from_canonical, from_nat


def rand_ordinal(rng: random.Random, depth: int = 2, coeff_cap: int = 5) -> Ordinal:
    if depth == 0 or rng.random() < 0.3:
        return from_nat(rng.randrange(0, 30))
    exps = []
    for _ in range(rng.randrange(1, 4)):
        e = rand_ordinal(rng, depth - 1, coeff_cap)
        if all(e != x for x in exps):
            exps.append(e)
    exps.sort(reverse=True)
    terms = [(e, rng.randrange(1, coeff_cap + 1)) for e in exps]
    return Ordinal(terms)


def rand_below(rng: random.Random, bound: Ordinal, coeff_cap: int = 5) -> Ordinal:
    """Uniform-ish ordinal strictly below ``bound``.  The result is canonical
    by construction: a prefix of bound's terms, then distinct exponents
    below the next one, in descending order."""
    if not bound:
        raise ValueError("no ordinal below zero")
    below = rng._randbelow
    i = below(len(bound))  # drawn even from one term: it consumes bits
    e, c = bound[i]
    if not i and not e:  # a natural bound: the same two draws
        return from_nat(below(c))
    c2 = below(c)
    prefix = bound[:i] + ((e, c2),) if c2 else bound[:i]
    if not e:
        return from_canonical(prefix)
    exps = []
    for _ in range(below(3)):
        x = rand_below(rng, e, coeff_cap)
        if all(x != y for y in exps):
            exps.append(x)
    exps.sort(reverse=True)
    return from_canonical(prefix + tuple([(x, 1 + below(coeff_cap)) for x in exps]))


def rand_positions(rng: random.Random, bound: Ordinal, k: int) -> list[Ordinal]:
    out = set()
    for _ in range(4 * k):
        if len(out) >= k:
            break
        out.add(rand_below(rng, bound))
    return sorted(out)


def rand_bit_node(rng: random.Random, bits: BitFamily, alpha: Ordinal) -> BitNode:
    below = rng._randbelow
    gamma, m = block_decompose(alpha)
    flips = tuple(rand_positions(rng, gamma, below(4))) if gamma else ()
    tail = tuple([below(2) for _ in range(m)])
    return bits.node(alpha, flips, tail)


def rand_digit_node(rng: random.Random, digits: DigitFamily, alpha: Ordinal) -> DigitNode:
    below = rng._randbelow
    gamma, m = block_decompose(alpha)
    trail = tuple([below(5) for _ in range(m)])
    if not gamma:
        return DigitNode(None, (), trail)
    base = rand_bit_node(rng, digits.bits, gamma)
    overrides = {p: below(5) for p in rand_positions(rng, gamma, below(4))}
    return digits.assemble(base, overrides, trail)


def rand_inj_node(rng: random.Random, injs: InjFamily, alpha: Ordinal):
    """Random member of the injective family at height alpha: even values are
    always fresh, so overrides draw from a disjoint even pool."""
    over = {}
    pool = rng.sample(range(0, 200, 2), 6)
    for p in rand_positions(rng, alpha, rng.randrange(0, 4)) if not alpha.is_zero() else []:
        over[p] = pool.pop()
    return injs.node(alpha, over)


def grid_below(bound: Ordinal, limit: int | None = None, coeff_cap: int = 8) -> Iterator[Ordinal]:
    """The first ``limit`` points (all when None) of a fixed grid strictly
    below ``bound``, in increasing order, canonical and without repeats.

    Below a natural n the grid is 0..n-1.  Otherwise a point keeps a prefix
    of bound's terms, lowers the next coefficient to one of 0..coeff_cap
    (its natural last term to any lower n), and goes on with terms whose
    coefficients are 1..coeff_cap and whose exponents come from the grid
    below that term's exponent.  Points are built as they are taken, so a
    huge grid (below ``w^(w^2)``, say) costs only its first ``limit``.
    Naturals come from ``from_nat``, so memo keys share their instances.
    """
    if bound.is_nat():
        return islice(map(from_nat, range(bound.to_nat())), limit)
    return islice(map(from_canonical, _grid_terms(bound, coeff_cap)), limit)


def _grid_terms(terms: tuple, cap: int) -> Iterator[tuple]:
    """Term tuples of the grid below the ordinal with these terms."""
    if not terms:
        return
    (e, c), rest = terms[0], terms[1:]
    if not e:  # a natural last term: every n below it
        yield ()
        yield from (((e, n),) for n in range(1, c))
        return
    for k in range(min(c, cap + 1)):  # below w^e*c: w^e*k + (a point below w^e)
        head = ((e, k),) if k else ()
        for tail in _power_terms(e, cap):
            yield head + tail
    for tail in _grid_terms(rest, cap):  # then bound's own w^e*c + (a point below rest)
        yield ((e, c),) + tail


def _power_terms(e: Ordinal, cap: int) -> Iterator[tuple]:
    """Term tuples of the grid below w^e: zero, then w^x*k + (a point below
    w^x) for x up the grid below e and k in 1..cap."""
    yield ()
    for x in grid_below(e, None, cap):
        for k in range(1, cap + 1):
            for tail in _power_terms(x, cap):
                yield ((x, k),) + tail
