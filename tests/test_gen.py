"""The fixture draws go through ``rng._randbelow``; these tests pin that they
give the same values and leave the generator in the same state as the
``randrange``/``choice`` forms they replace, draw by draw.  The reference
copies below are those forms, kept verbatim.  The last tests check
``grid_below``, the fixed enumeration of positions, which draws nothing."""

import random

from itertools import product

from treewedge import gen, suites
from treewedge.coherent import CoherentSystem
from treewedge.families import BitFamily, DigitFamily, DigitNode
from treewedge.ordinal import Ordinal, block_decompose, from_canonical, from_nat, parse_cnf

DEEP_BOUNDS = ("w^(w)", "w^(w+1)+w^(w)*3", "w^(w^2)")


def randrange_below(rng, bound, coeff_cap=5):
    """gen.rand_below drawn through randrange."""
    if bound.is_zero():
        raise ValueError("no ordinal below zero")
    terms = bound.terms
    i = rng.randrange(len(terms))
    e, c = terms[i]
    if not i and e.is_zero():
        return from_nat(rng.randrange(c))
    prefix = list(terms[:i])
    c2 = rng.randrange(c)
    if c2:
        prefix.append((e, c2))
    if e.is_zero():
        return from_canonical(tuple(prefix))
    exps = []
    for _ in range(rng.randrange(0, 3)):
        x = randrange_below(rng, e, coeff_cap)
        if all(x != y for y in exps):
            exps.append(x)
    exps.sort(reverse=True)
    prefix.extend((x, rng.randrange(1, coeff_cap + 1)) for x in exps)
    return from_canonical(tuple(prefix))


def randrange_positions(rng, bound, k):
    out = set()
    for _ in range(4 * k):
        if len(out) >= k:
            break
        out.add(randrange_below(rng, bound))
    return sorted(out)


def randrange_bit_node(rng, bits, alpha):
    gamma, m = block_decompose(alpha)
    flips = () if gamma.is_zero() else tuple(randrange_positions(rng, gamma, rng.randrange(0, 4)))
    tail = tuple(rng.randrange(2) for _ in range(m))
    return bits.node(alpha, flips, tail)


def randrange_digit_node(rng, digits, alpha):
    gamma, m = block_decompose(alpha)
    trail = tuple(rng.randrange(0, 5) for _ in range(m))
    if gamma.is_zero():
        return DigitNode(None, (), trail)
    base = randrange_bit_node(rng, digits.bits, gamma)
    overrides = {p: rng.randrange(0, 5) for p in randrange_positions(rng, gamma, rng.randrange(0, 4))}
    return digits.assemble(base, overrides, trail)


class Recording(random.Random):
    """A generator that logs the width of every getrandbits request, which is
    all that _randbelow draws.  Two generators from one seed that made the
    same requests are in the same state, so comparing the logs after each
    draw checks the state at the cost of a short list compare, where two
    getstate() tuples of 625 ints per draw would add seconds here; the
    tests still compare getstate() itself at every draw on the named and
    deep bounds and the nodes, and at intervals elsewhere."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.log.append(k)
        return super().getrandbits(k)


def same_state(fast, slow, full=False):
    same = fast.log == slow.log
    fast.log.clear()
    slow.log.clear()
    return same and (not full or fast.getstate() == slow.getstate())


def test_recording_draws_the_plain_generator_stream():
    plain, recording = random.Random(15), Recording(15)
    for n in list(range(1, 70)) * 30:
        assert plain.randrange(n) == recording.randrange(n)
    assert plain.getstate() == recording.getstate()


def test_rand_below_draws_the_randrange_stream():
    named = [parse_cnf(a) for a in suites.DEFAULT_ANCHORS]
    fast, slow = Recording(16), Recording(16)
    for bound in named + [from_nat(n) for n in range(2, 65)]:
        for _ in range(2000):
            a, b = gen.rand_below(fast, bound), randrange_below(slow, bound)
            assert a._key == b._key, (bound, a, b)
            assert same_state(fast, slow, full=bound in named)
        assert same_state(fast, slow, full=True)


def test_rand_below_draws_the_randrange_stream_on_deep_bounds():
    fast, slow = Recording(17), Recording(17)
    for text in DEEP_BOUNDS:
        bound = parse_cnf(text)
        for _ in range(2000):
            a, b = gen.rand_below(fast, bound), randrange_below(slow, bound)
            assert a._key == b._key and a < bound, (bound, a, b)
            assert same_state(fast, slow, full=True)


def test_node_draws_keep_the_randrange_stream():
    bits = BitFamily(CoherentSystem())
    digits = DigitFamily(bits)
    anchors = [parse_cnf(a) for a in suites.DEFAULT_ANCHORS + ("w^2+w+3", "w^3+5") + DEEP_BOUNDS] + [from_nat(7)]
    fast, slow = Recording(18), Recording(18)
    for _ in range(20):
        for alpha in anchors:
            assert gen.rand_bit_node(fast, bits, alpha) == randrange_bit_node(slow, bits, alpha)
            assert same_state(fast, slow, full=True)
            assert gen.rand_digit_node(fast, digits, alpha) == randrange_digit_node(slow, digits, alpha)
            assert same_state(fast, slow, full=True)


# --- grid_below: a fixed enumeration, no draws ---

GRID_BOUNDS = suites.DEFAULT_ANCHORS + ("w+20", "w*100+5", "w^2*3+w+4", "w^3+5") + DEEP_BOUNDS


def test_grid_points_are_canonical_below_the_bound_and_increasing():
    for text in GRID_BOUNDS:
        bound = parse_cnf(text)
        points = list(gen.grid_below(bound, 2000))
        assert points, text
        for x in points:
            assert Ordinal(x.terms) == x and x < bound, (text, x)  # the checked constructor agrees
        assert all(a < b for a, b in zip(points, points[1:])), text


def test_grid_below_a_natural_is_every_natural_below_it():
    for n in range(70):
        assert list(gen.grid_below(from_nat(n))) == [from_nat(i) for i in range(n)]
        assert list(gen.grid_below(from_nat(n), 10)) == [from_nat(i) for i in range(min(n, 10))]


def test_grid_below_the_named_anchors_is_every_bounded_combination():
    # brute force: every w^2*a + w*b + c below the bound with a, b, c <= 8
    combos = [
        Ordinal([(from_nat(e), c) for e, c in zip((2, 1, 0), digits) if c])
        for digits in product(range(9), repeat=3)
    ]
    for text in suites.DEFAULT_ANCHORS:
        bound = parse_cnf(text)
        assert list(gen.grid_below(bound)) == sorted(x for x in combos if x < bound), text
    sizes = [len(list(gen.grid_below(parse_cnf(a)))) for a in suites.DEFAULT_ANCHORS]
    assert sizes == [9, 18, 81, 90, 729]
    assert len(list(gen.grid_below(parse_cnf("w^3"), coeff_cap=3))) == 64


def test_grid_below_is_deterministic_and_capped_by_its_limit():
    for text in GRID_BOUNDS:
        bound = parse_cnf(text)
        full = list(gen.grid_below(bound, 3000))
        assert list(gen.grid_below(bound, 3000)) == full
        for limit in (0, 1, 7, 60, 1000):
            assert list(gen.grid_below(bound, limit)) == full[:limit], (text, limit)
    # a huge grid costs only what is taken
    assert len(list(gen.grid_below(parse_cnf("w^(w^(w))"), 5))) == 5
