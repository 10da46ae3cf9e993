import random
from fractions import Fraction

import pytest

from treewedge.coherent import CoherentSystem
from treewedge.families import BitFamily, DigitFamily
from treewedge.forcing import (
    ExtensionError,
    cond_leq,
    delta_system,
    extend_above,
    extend_to_include,
    incomparable_pair,
    is_valid_condition,
    is_valid_spec,
    simplest_between,
    simulate_filter,
    spec_extend,
    union_compatible,
)
from treewedge.gen import rand_below, rand_digit_node
from treewedge.ordinal import OMEGA, ZERO, from_nat, parse_cnf
from treewedge.suites import _random_tree
from treewedge.trees import ExplicitTree

LIMITS = [parse_cnf(s) for s in ("w", "w*2", "w^2")]


@pytest.fixture(scope="module")
def fam():
    return ExplicitTree.complete(2, 4)


@pytest.fixture(scope="module")
def digits():
    return DigitFamily(BitFamily(CoherentSystem()))


# --- validity -----------------------------------------------------------------

def test_valid_example(fam):
    p = {"r": frozenset({"0"}), "0": frozenset({"01"})}
    assert is_valid_condition(fam, p)


def test_invalid_routing(fam):
    p = {"r": frozenset({"1"}), "0": frozenset({"00"})}
    assert not is_valid_condition(fam, p)


def test_invalid_empty_value(fam):
    assert not is_valid_condition(fam, {"0": frozenset()})


def test_invalid_non_successor(fam):
    assert not is_valid_condition(fam, {"r": frozenset({"00"})})


def test_cond_leq(fam):
    q = {"r": frozenset({"0"})}
    p = {"r": frozenset({"0"}), "0": frozenset({"01"})}
    assert cond_leq(fam, p, q)
    assert not cond_leq(fam, q, p)
    assert not cond_leq(fam, {"r": frozenset({"1"})}, q)


# --- union --------------------------------------------------------------------

def test_union_idempotent(fam):
    p = {"r": frozenset({"0"})}
    assert union_compatible(fam, p, p) == p


def test_union_conflicting_key(fam):
    p = {"r": frozenset({"0"})}
    q = {"r": frozenset({"1"})}
    assert union_compatible(fam, p, q) is None


def test_union_ccc_shape(fam):
    # equal root part, off-root keys pairwise incomparable
    p = {"r": frozenset({"0", "1"}), "00": frozenset({"000"})}
    q = {"r": frozenset({"0", "1"}), "10": frozenset({"100"})}
    r = union_compatible(fam, p, q)
    assert r is not None
    assert is_valid_condition(fam, r)
    assert cond_leq(fam, r, p) and cond_leq(fam, r, q)


# --- extension -----------------------------------------------------------------

def test_extend_include_below_domain(fam):
    p = {"01": frozenset({"010"})}
    r = extend_to_include(fam, p, "0")
    assert r["0"] == frozenset({"01"})
    assert is_valid_condition(fam, r)
    assert cond_leq(fam, r, p)


def test_extend_include_fresh(fam):
    r = extend_to_include(fam, {}, "10")
    assert r == {"10": frozenset({"100"})}
    assert is_valid_condition(fam, r)


def test_extend_include_promised(fam):
    # include a promised successor: both branch shapes of the density proof
    p = {"0": frozenset({"01"})}
    r = extend_to_include(fam, p, "01")
    assert is_valid_condition(fam, r)
    assert "01" in r


def test_extend_include_harvests_all_steps(fam):
    # two incomparable nodes above x both contribute their steps
    p = {"00": frozenset({"000"}), "01": frozenset({"010"})}
    r = extend_to_include(fam, p, "0")
    assert r["0"] == frozenset({"00", "01"})
    assert is_valid_condition(fam, r)


def test_extend_include_unroutable(fam):
    p = {"r": frozenset({"1"})}
    with pytest.raises(ExtensionError):
        extend_to_include(fam, p, "00")


def test_extend_above_empty(fam):
    r = extend_above(fam, {}, from_nat(2))
    assert "00" in r
    assert is_valid_condition(fam, r)


def test_extend_above_zero(fam):
    p = {"0": frozenset({"01"})}
    assert extend_above(fam, p, ZERO) == p


def test_extend_above_random(fam):
    # alpha stays below the top level so the new key can still promise a child
    rng = random.Random(60)
    for _ in range(200):
        p = _random_condition(rng, fam)
        alpha = from_nat(rng.randrange(0, 3))
        r = extend_above(fam, p, alpha)
        assert is_valid_condition(fam, r)
        assert cond_leq(fam, r, p)
        assert any(not fam.height(x) < alpha for x in r)


def test_extend_above_on_a_forest_needs_no_root():
    # a tree with two roots has no root(); a non-empty condition extends
    # above its tallest promised node without asking for one
    forest = ExplicitTree.from_text("a -\nb -\na0 a\na1 a\na00 a0\na000 a00\nb0 b")
    p = extend_to_include(forest, {}, "a")
    r = extend_above(forest, p, from_nat(2))
    assert r == {"a": frozenset({"a0"}), "a00": frozenset({"a000"})}
    assert is_valid_condition(forest, r)
    with pytest.raises(ValueError, match="needs one root"):
        extend_above(forest, {}, from_nat(2))


def test_extend_above_leaf_level_errors(fam):
    with pytest.raises(ExtensionError):
        extend_above(fam, {}, from_nat(3))


def _random_condition(rng, family, tries=4):
    p = {}
    for _ in range(rng.randrange(0, tries)):
        node = rng.choice(list(family.parent))
        if family.children[node]:
            try:
                p = extend_to_include(family, p, node)
            except ExtensionError:
                continue
    return p


def test_extend_symbolic_digits(digits):
    rng = random.Random(61)
    for _ in range(50):
        alpha = rng.choice(LIMITS)
        u = rand_digit_node(rng, digits, rand_below(rng, alpha))
        p = extend_to_include(digits, {}, u)
        assert is_valid_condition(digits, p)
        r = extend_above(digits, p, alpha)
        assert is_valid_condition(digits, r)
        assert cond_leq(digits, r, p)
        assert any(not digits.height(x) < alpha for x in r)


# --- delta systems ---------------------------------------------------------------

def test_delta_system_shared_root():
    got = delta_system([{1, 2}, {1, 3}, {1, 4}], 3)
    assert got is not None
    root, subfam = got
    assert root == {1}
    assert len(subfam) == 3


def test_delta_system_disjoint():
    root, subfam = delta_system([{1}, {2}, {3}], 3)
    assert root == frozenset()


def test_delta_system_none():
    assert delta_system([{1, 2}, {2, 3}, {1, 3}], 3) is None


def test_incomparable_pair(fam):
    got = incomparable_pair(fam, [["0", "00"], ["01"], ["10", "11"]])
    assert got is not None
    a, b = got
    for x in a:
        for y in b:
            assert fam.order(x, y) == "incomparable"
    assert incomparable_pair(fam, [["r"], ["0"]]) is None


# --- specializing ------------------------------------------------------------------

def test_simplest_rational_examples(fam):
    q = spec_extend(fam, {"r": Fraction(0)}, "0")
    assert q["0"] == 1
    q = spec_extend(fam, {"r": Fraction(0), "00": Fraction(1)}, "0")
    assert q["0"] == Fraction(1, 2)
    q = spec_extend(fam, {"0": Fraction(5)}, "1")
    assert q["1"] == 0


def test_simplest_between_directly():
    assert simplest_between(None, None) == 0
    assert simplest_between(Fraction(-5), Fraction(-2)) == -3
    assert simplest_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    z = simplest_between(Fraction(3, 2), Fraction(2))
    assert Fraction(3, 2) < z < 2
    # nothing simpler fits: integers are out, and halves/thirds miss or tie
    for den in range(1, z.denominator):
        for num in range(den * 3 // 2, den * 2 + 1):
            assert not (Fraction(3, 2) < Fraction(num, den) < 2)


def is_valid_spec_by_ordered_pairs(family, q):
    """The reference: ``order`` asked for every ordered pair of keys."""
    for x in q:
        for y in q:
            if family.order(x, y) == "below" and not q[x] < q[y]:
                return False
    return True


def test_is_valid_spec_matches_the_ordered_pair_check():
    # seeded labellings of random explicit trees: spec_extend's valid ones,
    # the same with two values swapped, and random values on random keys
    rng = random.Random(63)
    valid = invalid = 0
    for _ in range(80):
        tree = _random_tree(rng, rng.randrange(2, 20))
        nodes = list(tree.parent)
        keys = rng.sample(nodes, rng.randrange(1, len(nodes) + 1))
        q = {}
        for x in keys:
            q = spec_extend(tree, q, x)
        swapped = dict(q)
        if len(keys) > 1:
            a, b = rng.sample(keys, 2)
            swapped[a], swapped[b] = q[b], q[a]
        drawn = {x: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for x in keys}
        for labelling in (q, swapped, drawn):
            want = is_valid_spec_by_ordered_pairs(tree, labelling)
            assert is_valid_spec(tree, labelling) == want, labelling
            valid += want
            invalid += not want
    assert valid > 80 and invalid > 20


def test_spec_totalizes_order_preserving(fam):
    rng = random.Random(62)
    q = {}
    nodes = list(fam.parent)
    rng.shuffle(nodes)
    for x in nodes:
        q = spec_extend(fam, q, x)
    assert len(q) == len(nodes)
    assert is_valid_spec(fam, q)


# --- simulation ----------------------------------------------------------------------

def test_simulate_empty(fam):
    p, report = simulate_filter(fam, [])
    assert p == {}
    assert report["fragment"] == []


def test_simulate_reach(fam):
    p, report = simulate_filter(fam, [("reach", from_nat(2))])
    assert report["checks"]["valid"]
    assert report["checks"]["window_downward_closed"]
    assert report["checks"]["fragment_successors_promised"]
    assert any(fam.depth[x] >= 2 for x in p)


def test_simulate_include_chain(fam):
    # the second target is the first's promised successor, so routing holds
    p, report = simulate_filter(fam, [("include", "0"), ("include", "00")])
    assert "0" in p and "00" in p
    assert is_valid_condition(fam, p)
    assert report["checks"]["window_downward_closed"]


def test_simulate_include_top_down(fam):
    # including the upper node first routes the lower promise through it
    p, report = simulate_filter(fam, [("include", "01"), ("include", "0")])
    assert p["0"] == frozenset({"01"})
    assert report["checks"]["valid"]


def test_simulate_symbolic(digits):
    stem = digits.embed_bits(digits.bits.canonical_extension(digits.bits.root(), OMEGA))
    p, report = simulate_filter(digits, [("include", stem), ("reach", parse_cnf("w*2"))])
    assert report["checks"]["valid"]
    assert report["checks"]["window_downward_closed"]
    assert report["checks"]["fragment_successors_promised"]
