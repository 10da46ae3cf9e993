"""Seeded random fixture generators.

Everything takes an explicit random.Random so that suite reports are
reproducible bit for bit from (config, seed).
"""

from __future__ import annotations

import random

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
    if bound.is_zero():
        raise ValueError("no ordinal below zero")
    terms = bound.terms
    i = rng.randrange(len(terms))
    e, c = terms[i]
    if not i and e.is_zero():  # a natural bound: the same two draws
        return from_nat(rng.randrange(c))
    prefix = list(terms[:i])
    c2 = rng.randrange(c)
    if c2:
        prefix.append((e, c2))
    if e.is_zero():
        return from_canonical(tuple(prefix))
    exps = []
    for _ in range(rng.randrange(0, 3)):
        x = rand_below(rng, e, coeff_cap)
        if all(x != y for y in exps):
            exps.append(x)
    exps.sort(reverse=True)
    prefix.extend((x, rng.randrange(1, coeff_cap + 1)) for x in exps)
    return from_canonical(tuple(prefix))


def rand_positions(rng: random.Random, bound: Ordinal, k: int) -> list[Ordinal]:
    out = set()
    for _ in range(4 * k):
        if len(out) >= k:
            break
        out.add(rand_below(rng, bound))
    return sorted(out)


def rand_bit_node(rng: random.Random, bits: BitFamily, alpha: Ordinal) -> BitNode:
    gamma, m = block_decompose(alpha)
    flips = () if gamma.is_zero() else tuple(rand_positions(rng, gamma, rng.randrange(0, 4)))
    tail = tuple(rng.randrange(2) for _ in range(m))
    return bits.node(alpha, flips, tail)


def rand_digit_node(rng: random.Random, digits: DigitFamily, alpha: Ordinal) -> DigitNode:
    gamma, m = block_decompose(alpha)
    trail = tuple(rng.randrange(0, 5) for _ in range(m))
    if gamma.is_zero():
        return DigitNode(None, (), trail)
    base = rand_bit_node(rng, digits.bits, gamma)
    overrides = {p: rng.randrange(0, 5) for p in rand_positions(rng, gamma, rng.randrange(0, 4))}
    return digits.assemble(base, overrides, trail)


def rand_inj_node(rng: random.Random, injs: InjFamily, alpha: Ordinal):
    """Random member of the injective family at height alpha: even values are
    always fresh, so overrides draw from a disjoint even pool."""
    over = {}
    pool = rng.sample(range(0, 200, 2), 6)
    for p in rand_positions(rng, alpha, rng.randrange(0, 4)) if not alpha.is_zero() else []:
        over[p] = pool.pop()
    return injs.node(alpha, over)
