import random
from itertools import islice

import pytest

from treewedge.ordinal import add_ord, from_nat
from treewedge.suites import _random_tree, _steps_down
from treewedge.trees import ExplicitTree, TreeFamily, branch_to_antichain


@pytest.fixture
def binary3():
    return ExplicitTree.complete(2, 4)  # levels 0..3, 15 nodes


def test_complete_tree_shape(binary3):
    assert len(binary3.parent) == 15
    assert binary3.tree_height() == 4
    assert sorted(binary3.level_nodes(2)) == ["00", "01", "10", "11"]


def test_text_round_trip(binary3):
    text = binary3.to_text()
    again = ExplicitTree.from_text(text)
    assert again.parent == binary3.parent
    assert again.children == binary3.children


def test_explicit_family_order(binary3):
    assert binary3.order("0", "01") == "below"
    assert binary3.order("01", "0") == "above"
    assert binary3.order("0", "0") == "equal"
    assert binary3.order("0", "10") == "incomparable"
    assert binary3.restrict("010", from_nat(1)) == "0"


def test_explicit_family_streams(binary3):
    # a budget b is exceeded when an islice of b + 1 items is longer than b
    assert list(islice(binary3.successors("r"), 11)) == ["0", "1"]
    assert list(islice(binary3.successors("r"), 2)) == ["0", "1"]  # 2 > 1: budget 1 truncates


def test_immediate_successor(binary3):
    assert binary3.is_child("0", "01")
    assert not binary3.is_child("0", "011")
    assert not binary3.is_child("0", "10")


def test_canonical_extension_first_children(binary3):
    assert binary3.canonical_extension("r", from_nat(2)) == "00"
    assert binary3.canonical_extension("1", from_nat(3)) == "100"


def test_root_needs_a_single_root(binary3):
    assert binary3.root() == "r"
    two = ExplicitTree().add("a", None).add("b", None)
    with pytest.raises(ValueError, match="this tree has 2"):
        two.root()


def test_branch_to_antichain_example(binary3):
    picks = branch_to_antichain(binary3, ["r", "0", "00"])
    assert picks == {"1", "01", "000"}


def test_branch_to_antichain_root_only(binary3):
    assert branch_to_antichain(binary3, ["r"]) == {"0"}


def test_branch_to_antichain_rejects_non_chain(binary3):
    with pytest.raises(ValueError):
        branch_to_antichain(binary3, ["0", "1"])


def test_branch_to_antichain_rejects_leaf(binary3):
    with pytest.raises(ValueError):
        branch_to_antichain(binary3, ["r", "0", "00", "000"])


def test_branch_to_antichain_random_chains():
    rng = random.Random(9)
    for _ in range(50):
        arity = rng.choice([2, 3])
        height = rng.choice([3, 4])
        tree = ExplicitTree.complete(arity, height)
        # random chain from the root, stopping above the leaves
        chain = ["r"]
        while True:
            kids = tree.children[chain[-1]]
            if not kids or not tree.children[kids[0]]:
                break
            chain.append(rng.choice(kids))
            if rng.random() < 0.3:
                break
        picks = branch_to_antichain(tree, chain)
        assert len(picks) == len(chain)
        picks = sorted(picks)
        for i, a in enumerate(picks):
            for b in picks[i + 1 :]:
                assert tree.order(a, b) == "incomparable"


@pytest.mark.parametrize(
    "tree",
    [ExplicitTree.complete(2, 4), ExplicitTree.complete(3, 3)]
    + [_random_tree(random.Random(seed), 15) for seed in (0, 1, 2)],
    ids=["binary-h4", "ternary-h3", "ragged-0", "ragged-1", "ragged-2"],
)
def test_int_order_matches_the_generic_bodies(tree):
    # the generic bodies, read off Ordinal heights and restrictions, are the
    # reference for the int-depth overrides of an explicit tree
    for x in tree.parent:
        for y in tree.parent:
            assert tree.order(x, y) == TreeFamily.order(tree, x, y), (x, y)
            assert tree.is_child(x, y) == TreeFamily.is_child(tree, x, y), (x, y)


def routing_step_by_order(family, u, x):
    """The routing step as the routing-law sites wrote it out before
    ``step``: the order test, then the (height(u)+1)-prefix of x."""
    if family.order(u, x) == "below":
        return family.restrict(x, add_ord(family.height(u), from_nat(1)))
    return None


@pytest.mark.parametrize(
    "tree",
    [ExplicitTree.complete(3, 3), _random_tree(random.Random(5), 20)],
    ids=["ternary-h3", "ragged-5"],
)
def test_step_matches_the_generic_body_and_the_order_formula(tree):
    steps = 0
    for u in tree.parent:
        for x in tree.parent:
            want = routing_step_by_order(tree, u, x)
            assert tree.step(u, x) == want, (u, x)
            assert TreeFamily.step(tree, u, x) == want, (u, x)
            steps += want is not None
    # every node strictly below another has a step towards it
    assert steps == sum(tree.depth[x] for x in tree.parent)


def unrouted_by_parent_links(tree, table, x):
    """The routing law without ``step``: walk up x's parent links, noting
    the child each ancestor passes on towards x, and return the first key of
    the table (in table order) that is such an ancestor and misses it."""
    toward = {u: s for s, u in _steps_down(tree, x)}
    for u, succ in table.items():
        if u in toward and toward[u] not in succ:
            return u
    return None


def test_unrouted_matches_a_walk_up_the_parent_links():
    # seeded ragged trees and tables whose sets may be empty or hold nodes
    # that are not children of their key
    rng = random.Random(71)
    routed = unrouted = 0
    for _ in range(60):
        tree = _random_tree(rng, rng.randrange(2, 25))
        nodes = list(tree.parent)
        table = {}
        for u in rng.sample(nodes, rng.randrange(0, min(6, len(nodes)) + 1)):
            kids = tree.children[u]
            row = set(rng.sample(kids, rng.randrange(0, len(kids) + 1)))
            if rng.random() < 0.3:
                row.add(rng.choice(nodes))
            table[u] = frozenset(row) if rng.random() < 0.5 else tuple(row)
        for x in nodes:
            want = unrouted_by_parent_links(tree, table, x)
            assert tree.unrouted(table, x) == want, (table, x)
            assert TreeFamily.unrouted(tree, table, x) == want, (table, x)
            routed += want is None
            unrouted += want is not None
    assert routed and unrouted
