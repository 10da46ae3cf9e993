import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations, product
from typing import NamedTuple

import pytest

from treewedge.coherent import CoherentSystem
from treewedge.families import BitFamily, DigitFamily, DigitNode
from treewedge.gen import rand_below, rand_digit_node
from treewedge.literals import format_node, parse_cover
from treewedge.ordinal import OMEGA, ZERO, add_ord, from_nat, parse_cnf, pred
from treewedge.suites import _random_tree
from treewedge.trees import ExplicitTree
from treewedge import oracle
from treewedge.oracle import ExplosionGuard, RuleSpace, lindelof_oracle
from treewedge.wedge import (
    BinaryInsideDigits,
    ExplicitSubtree,
    PatchedCover,
    SafeSubtree,
    TruncatedSubtree,
    covers_within,
    find_safe_point,
    is_safe,
)

LIMITS = [parse_cnf(s) for s in ("w", "w*2", "w^2", "w^2+w", "w^3")]


@pytest.fixture(scope="module")
def digits():
    return DigitFamily(BitFamily(CoherentSystem()))


@pytest.fixture(scope="module")
def tinu(digits):
    return BinaryInsideDigits(digits)


def _table(tree, rows):
    """A table as its literal builds it: a patch over the root-only subtree."""
    return ExplicitSubtree(tree, {tree.root()}).patched(rows)


@pytest.fixture
def table_fixture():
    tree = ExplicitTree.complete(2, 3)
    return tree, _table(tree, {"r": {"0"}})


# --- wedges ------------------------------------------------------------------

class Wedge(NamedTuple):
    """Basic open set: everything above ``apex`` except the cones over
    ``excluded`` immediate successors.  With ``wedge_contains`` it is the
    reference that RuleSpace.wedge_masks and the cover engine are checked
    against."""
    apex: object
    excluded: tuple


def wedge_contains(family, w: Wedge, y) -> bool:
    if family.order(w.apex, y) not in ("below", "equal"):
        return False
    return all(family.order(z, y) not in ("below", "equal") for z in w.excluded)


def test_wedge_contains(digits):
    x = digits.node([("d", 1)])
    z = digits.node([("d", 1), ("d", 0)])
    other = digits.node([("d", 1), ("d", 2)])
    assert wedge_contains(digits, Wedge(x, ()), x)
    assert not wedge_contains(digits, Wedge(x, (z,)), digits.node([("d", 1), ("d", 0), ("d", 5)]))
    assert wedge_contains(digits, Wedge(x, (z,)), x)
    assert wedge_contains(digits, Wedge(x, (z,)), other)


# --- rule values -----------------------------------------------------------------

def test_subtree_cover_bit_children(digits, tinu):
    u = digits.embed_bits(digits.bits.canonical_extension(digits.bits.root(), OMEGA))
    kids = tinu.values(u)
    assert len(kids) == 2
    assert sorted(k.trail[-1] for k in kids) == [0, 1]


def test_subtree_cover_outside_empty(digits, tinu):
    u = digits.node([("d", 7)])
    assert tinu.values(u) == []


def test_patched_cover_override(digits, tinu):
    u = digits.node([("d", 0)])
    override = (digits.node([("d", 0), ("d", 3)]),)
    f = PatchedCover(tinu, {u: override})
    assert tuple(f.values(u)) == override
    other = digits.node([("d", 1)])
    assert f.values(other) == tinu.values(other)


# --- safety ---------------------------------------------------------------------

def test_root_safe_for_every_cover(digits, tinu, table_fixture):
    tree, table = table_fixture
    assert is_safe(tinu, digits.root())
    assert is_safe(table, tree.root())


def test_safety_at_the_root_reads_no_row(monkeypatch):
    # a chain table of 3,000 rows, each listing the next: a node it reaches
    # hangs from the root, below which no row lies, so no row is tested
    tree = ExplicitTree().add("r", None)
    chain = ["r"] + [f"n{i}" for i in range(3000)]
    for parent, child in zip(chain, chain[1:]):
        tree.add(child, parent)
    f = _table(tree, {parent: (child,) for parent, child in zip(chain, chain[1:])})
    heights = []
    monkeypatch.setattr(tree, "height", lambda x: heights.append(x) or from_nat(tree.depth[x]))
    monkeypatch.setattr(tree, "step", lambda u, x: pytest.fail(f"row {u!r} tested"))
    assert is_safe(f, "r")
    assert heights == ["r"]
    assert is_safe(f, chain[-1])
    assert len(heights) == 1 + len(chain)


def test_nonbinary_digit_unsafe(digits, tinu):
    u = digits.node([("d", 7), ("d", 0)])
    assert not is_safe(tinu, u)


def test_embedded_node_safe(digits, tinu):
    u = digits.embed_bits(digits.bits.canonical_extension(digits.bits.root(), OMEGA))
    assert is_safe(tinu, u)


def test_find_safe_point_canonical(digits, tinu):
    w = find_safe_point(tinu, OMEGA)
    assert w == digits.embed_bits(digits.bits.canonical_extension(digits.bits.root(), OMEGA))
    assert is_safe(tinu, w)


def _level_zero_rules(tinu):
    """Every rule kind, each over a core that makes level 0 its own case."""
    digits = tinu.family
    patch = parse_cover("patched(subtree(T-in-U); u:[d1]=>{u:[d1,d0], u:[d1,d2]})", digits)
    tree = ExplicitTree.complete(2, 4)
    explicit = ExplicitSubtree(tree, {"r", "0", "01"})
    return [
        tinu,
        TruncatedSubtree(tinu, ZERO),
        TruncatedSubtree(tinu, from_nat(3)),
        TruncatedSubtree(explicit, ZERO),
        TruncatedSubtree(explicit, from_nat(3)),
        ExplicitSubtree(tree, set()),  # the root is safe, though no member
        ExplicitSubtree(tree, {"r"}),
        explicit,
        patch,
        SafeSubtree(patch),
        _table(tree, {"r": {"1"}, "1": {"10", "11"}}),  # the root has a row
    ]


def test_find_safe_point_zero(digits, tinu, table_fixture):
    tree, table = table_fixture
    assert find_safe_point(tinu, ZERO) == digits.root()
    assert find_safe_point(table, ZERO) == "r"
    # find_safe_point and covers_within ask the rule at level 0 too
    for rule in _level_zero_rules(tinu):
        root = rule.family.root()
        assert rule.safe_above(root, ZERO) == root, rule
        assert find_safe_point(rule, ZERO) == root, rule
        assert covers_within(rule, ZERO) is False, rule


def test_table_fixture_safe_set(table_fixture):
    tree, table = table_fixture
    safe = [x for x in tree.parent if is_safe(table, x)]
    assert sorted(safe) == ["0", "r"]
    assert find_safe_point(table, from_nat(2)) is None
    assert covers_within(table, from_nat(2))
    assert not covers_within(table, from_nat(1))


def test_covers_within_tinu_false_at_limits(digits, tinu):
    for alpha in LIMITS:
        assert not covers_within(tinu, alpha)
        assert find_safe_point(tinu, alpha) is not None


def test_truncated_subtree(digits, tinu):
    trunc = TruncatedSubtree(tinu, OMEGA)
    # above the cut everything is covered from below
    for alpha in [parse_cnf("w*2"), parse_cnf("w^2"), add_ord(OMEGA, from_nat(1))]:
        assert covers_within(trunc, alpha)
        assert find_safe_point(trunc, alpha) is None
    # at and below the (limit) cut there are still safe points
    assert not covers_within(trunc, OMEGA)
    assert not covers_within(trunc, from_nat(3))


@pytest.mark.parametrize("cut", ["3", "w+1", "w*2+2"])
def test_truncated_successor_cut_covers_from_its_height(tinu, cut):
    # members have height < h = b+1, so level b keeps its safe points and the
    # levels h and h+1 are covered
    h = parse_cnf(cut)
    trunc = TruncatedSubtree(tinu, h)
    assert not covers_within(trunc, pred(h))
    assert find_safe_point(trunc, pred(h)) is not None
    for alpha in (h, add_ord(h, from_nat(1))):
        assert covers_within(trunc, alpha)
        assert find_safe_point(trunc, alpha) is None


def test_truncated_finite_height(digits, tinu):
    trunc = TruncatedSubtree(tinu, from_nat(3))
    assert not covers_within(trunc, from_nat(2))
    assert covers_within(trunc, from_nat(3))
    assert covers_within(trunc, OMEGA)


def test_patched_symbolic_reroute(digits, tinu):
    root = digits.root()
    d1 = digits.node([("d", 1)])
    f = PatchedCover(tinu, {root: (d1,)})
    # the canonical all-zeros witness is now rerouted at the root
    w = find_safe_point(f, OMEGA)
    assert w is not None
    assert is_safe(f, w)
    assert digits.query(w, ZERO) == 1
    assert not covers_within(f, OMEGA)


def test_patched_search_stops_at_the_core_witness(digits, tinu, monkeypatch):
    f = parse_cover("patched(subtree(T-in-U); u:[d1]=>{u:[d1,d0]})", digits)

    def no_search(x, alpha):
        raise AssertionError("the level was searched")

    monkeypatch.setattr(f, "_search", no_search)
    assert find_safe_point(f, OMEGA) == tinu.safe_above(digits.root(), OMEGA)


@pytest.mark.parametrize("level", ["3", "w", "w*2"])
def test_patched_search_skips_a_covered_level(digits, level):
    # the root's only row leaves the binary subtree, so no level above 1 has
    # a safe node, and the exact level search says so
    f = parse_cover("patched(subtree(T-in-U); u:[]=>{u:[d5]})", digits)
    alpha = parse_cnf(level)
    assert covers_within(f, alpha) is True
    assert find_safe_point(f, alpha) is None


def test_patched_search_climbs_the_gates_above_a_core_without_the_level(digits):
    # the truncated core has no node of height 3, so nothing settles in the
    # core above the root; the rows still carry a safe node there through
    # the gate u:[d0], which the search climbs all the same
    f = parse_cover("patched(subtree(T-in-U<2); u:[d0]=>{u:[d0,d1]}, u:[d0,d1]=>{u:[d0,d1,d0]})", digits)
    w = f._search(digits.root(), from_nat(3))
    assert w is not None and format_node(digits, w) == "u:[d0,d1,d0]" and is_safe(f, w)


def test_find_safe_on_a_patch_over_a_safe_set_answers_exactly(digits, tinu):
    # the row leaves the binary subtree, so the core witness is not safe, and
    # the level search asks the safe set what it reaches above u:[d1]: its
    # rule's canonical node there
    f = SafeSubtree(tinu).patched({digits.node([("d", 0)]): (digits.node([("d", 0), ("d", 5)]),)})
    assert covers_within(f, OMEGA) is False
    w = find_safe_point(f, OMEGA)
    assert format_node(digits, w) == "u:[tail(t:w:{0}:[])@w]"
    assert digits.height(w) == OMEGA and is_safe(f, w) and digits.query(w, ZERO) == 1


def test_patch_over_a_safe_set_decides_a_level_its_rows_close(digits, tinu):
    # every safe node passes u:[d0] or u:[d1], whose rows leave the binary
    # subtree, so the search asks the safe set about the root only
    f = SafeSubtree(tinu).patched({digits.node([("d", b)]): (digits.node([("d", b), ("d", 5)]),) for b in (0, 1)})
    assert covers_within(f, OMEGA) is True
    assert find_safe_point(f, OMEGA) is None


def test_patched_blocking_is_covered(digits, tinu):
    root = digits.root()
    d7 = digits.node([("d", 7)])
    f = PatchedCover(tinu, {root: (d7,)})
    # every safe point must start with digit 7, leaving the binary subtree
    # at height 1 with no patch to carry it on: nothing above height 1 is safe
    assert find_safe_point(f, OMEGA) is None
    assert covers_within(f, OMEGA) is True
    assert covers_within(f, from_nat(1)) is False


def test_patch_over_a_safe_set_answers_exactly(digits, tinu):
    # the row at u:[d1] leaves the all-zeros witness alone, so the core
    # witness is safe for the patch
    f = SafeSubtree(tinu).patched({digits.node([("d", 1)]): (digits.node([("d", 1), ("d", 5)]),)})
    assert covers_within(f, OMEGA) is False
    w = find_safe_point(f, OMEGA)
    assert format_node(digits, w) == "u:[tail(t:w:{}:[])@w]"
    assert digits.height(w) == OMEGA and is_safe(f, w) and digits.query(w, ZERO) == 0


# --- canonical safe nodes -------------------------------------------------------------

DIGIT_LEVELS = [*map(from_nat, range(1, 5)), *LIMITS, *(parse_cnf(s) for s in ("w+1", "w*2+3", "w^2+2"))]


def _subtree_rules(tinu):
    """Each subtree rule kind, over the digit family and over explicit trees,
    with the levels it is asked about."""
    digits = tinu.family
    patch = parse_cover("patched(subtree(T-in-U); u:[d1]=>{u:[d1,d0], u:[d1,d2]}, u:[d1,d2]=>{u:[d1,d2,d3]})", digits)
    tree = ExplicitTree.complete(3, 4)
    fmap = {"r": {"0", "2"}, "0": {"00", "01"}, "2": {"21"}, "00": {"000"}, "21": {"210", "212"}}
    members = {x for x in tree.parent if is_safe(_table(tree, fmap), x)}
    explicit = ExplicitSubtree(tree, members)
    explicit_levels = list(map(from_nat, range(1, tree.tree_height())))
    return [
        (tinu, DIGIT_LEVELS),
        *((TruncatedSubtree(tinu, parse_cnf(h)), DIGIT_LEVELS) for h in ("3", "w", "w+2", "w^2")),
        (SafeSubtree(tinu), DIGIT_LEVELS),
        (SafeSubtree(patch), DIGIT_LEVELS),
        (explicit, explicit_levels),
        *((TruncatedSubtree(explicit, from_nat(h)), explicit_levels) for h in (1, 2, 3)),
        (SafeSubtree(_table(tree, fmap)), explicit_levels),
    ]


def test_subtree_witnesses_are_safe(tinu):
    # every node safe_above returns is safe, of the asked height and above the
    # node it was asked about, so a subtree's level answer needs no recheck
    returned = 0
    for rule, levels in _subtree_rules(tinu):
        fam = rule.family
        root = fam.root()
        for i, alpha in enumerate(levels):
            w = rule.safe_above(root, alpha)
            assert covers_within(rule, alpha) == (w is None)
            if w is None:
                continue
            returned += 1
            assert fam.height(w) == alpha and is_safe(rule, w), (rule, alpha)
            # above the lower witnesses and their promised children
            for beta in levels[:i]:
                x = rule.safe_above(root, beta)
                for y in [] if x is None else [x, *rule.values(x)]:
                    if fam.height(y) <= alpha:
                        z = rule.safe_above(y, alpha)
                        if z is not None:
                            returned += 1
                            assert fam.height(z) == alpha and is_safe(rule, z), (rule, y, alpha)
                            assert fam.order(y, z) in ("below", "equal")
    assert returned >= 100


# --- own levels and the patch constructor ------------------------------------------

def test_safe_above_at_its_own_height_is_the_node(tinu):
    # the root and each rule's witnesses answer their own level with
    # themselves
    checked = Counter()
    for rule in _level_zero_rules(tinu):
        fam = rule.family
        root = fam.root()
        levels = DIGIT_LEVELS if fam is tinu.family else map(from_nat, range(1, fam.tree_height()))
        for x in [root, *(rule.safe_above(root, alpha) for alpha in levels)]:
            if x is not None:
                assert is_safe(rule, x) and rule.safe_above(x, fam.height(x)) == x, (rule, x)
                checked[type(rule).__name__] += 1
    assert set(checked) == {"BinaryInsideDigits", "TruncatedSubtree", "ExplicitSubtree", "PatchedCover", "SafeSubtree"}
    assert min(checked.values()) >= 3


def test_a_patch_is_never_a_core(digits, tinu):
    kid = lambda *ds: digits.node([("d", d) for d in ds])
    patch = tinu.patched({kid(0): (kid(0, 3),), kid(1): (kid(1, 0),)})
    assert type(patch) is PatchedCover and patch.core is tinu
    for core in (patch, _table(ExplicitTree.complete(2, 3), {"r": {"0"}})):
        with pytest.raises(TypeError, match=re.escape("patches apply to a subtree rule; use its patched()")):
            PatchedCover(core, {})
    # patching a patch merges the rows over the same core, outer rows winning
    merged = patch.patched({kid(1): (kid(1, 2),), kid(2): (kid(2, 0),)})
    assert type(merged) is PatchedCover and merged.core is tinu
    assert merged.table == {kid(0): (kid(0, 3),), kid(1): (kid(1, 2),), kid(2): (kid(2, 0),)}
    assert patch.table == {kid(0): (kid(0, 3),), kid(1): (kid(1, 0),)}
    # a patch's safe set is a subtree, so it can be patched in turn
    over_safe = SafeSubtree(patch).patched({kid(1): (kid(1, 5),)})
    assert type(over_safe) is PatchedCover and type(over_safe.core) is SafeSubtree
    assert over_safe.core.f is patch and over_safe.table == {kid(1): (kid(1, 5),)}


# --- safe subtree ------------------------------------------------------------------

def test_safe_subtree_membership(digits, tinu):
    S = SafeSubtree(tinu)
    u = digits.embed_bits(digits.bits.canonical_extension(digits.bits.root(), OMEGA))
    assert is_safe(S, u)
    assert not is_safe(S, digits.node([("d", 5)]))


def test_safe_subtree_table(table_fixture):
    tree, table = table_fixture
    S = SafeSubtree(table)
    assert {x for x in tree.parent if is_safe(S, x)} == {"r", "0"}
    assert S.values("r") == ["0"]
    assert S.values("1") == []


def test_safe_subtree_downward_closed(digits, tinu):
    rng = random.Random(41)
    S = SafeSubtree(tinu)
    for _ in range(100):
        alpha = rng.choice(LIMITS)
        u = rand_digit_node(rng, digits, alpha)
        if is_safe(S, u):
            beta = rand_below(rng, alpha)
            assert is_safe(S, digits.restrict(u, beta))


def test_safe_child_iff_promised(digits, tinu):
    # the hereditary rule: a child of a safe node is safe exactly when the
    # rule promises it
    rng = random.Random(43)
    for _ in range(50):
        alpha = rng.choice(LIMITS)
        u = rand_digit_node(rng, digits, alpha)
        if not is_safe(tinu, u):
            continue
        promised = set(tinu.values(u))
        import itertools

        for child in itertools.islice(digits.successors(u), 6):
            assert is_safe(tinu, child) == (child in promised)


def test_safe_subtree_round_trip(digits, tinu):
    # safety for the derived rule equals safety for the base rule
    derived = SafeSubtree(tinu)
    rng = random.Random(42)
    for _ in range(50):
        alpha = rng.choice(LIMITS)
        u = rand_digit_node(rng, digits, alpha)
        assert is_safe(derived, u) == is_safe(tinu, u)
    for alpha in LIMITS:
        assert not covers_within(derived, alpha)


# --- finite oracle ---------------------------------------------------------------------

def test_explicit_subtree_cover(table_fixture):
    tree, _ = table_fixture
    cover = ExplicitSubtree(tree, {"r", "0"})
    assert cover.values("r") == ["0"]
    assert cover.values("0") == []
    assert [x for x in tree.parent if is_safe(cover, x)] == ["r", "0"]
    assert covers_within(cover, from_nat(2))
    assert not covers_within(cover, from_nat(1))
    with pytest.raises(ValueError):
        ExplicitSubtree(tree, {"0"})  # not downward closed


def test_oracle_singleton():
    tree = ExplicitTree().add("r", None)
    report = lindelof_oracle(tree)
    assert report["counterexamples"] == []
    assert report["covers_checked"] == 1


def test_oracle_binary_h3_exhaustive():
    tree = ExplicitTree.complete(2, 3)
    report = lindelof_oracle(tree)
    assert report["counterexamples"] == []
    assert report["covers_checked"] == report["space"] == 4**3


def _safe_sets(tree, fmap):
    """Dynamic program over nodes, independent of the oracle's bitmask pass:
    a child is safe iff its parent is safe and promised."""
    safe = {}
    for x in tree.parent:  # insertion order is top-down for our builders
        p = tree.parent[x]
        if p is None:
            safe[x] = True
        else:
            safe[x] = safe[p] and x in fmap.get(p, frozenset())
    return safe


def _safe_mask(tree, fmap):
    safe = _safe_sets(tree, fmap)
    return sum(1 << i for i, x in enumerate(tree.parent) if safe[x])


def test_oracle_matches_symbolic_fixture(table_fixture):
    tree, table = table_fixture
    # cross-check the symbolic safe set against the DP on one cover
    fmap = {"r": frozenset({"0"})}
    safe = _safe_sets(tree, fmap)
    for x in tree.parent:
        assert safe[x] == is_safe(table, x)


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_oracle_explosion_guard():
    tree = ExplicitTree.complete(3, 4)
    assert RuleSpace(tree, 2).size == 7**13
    with pytest.raises(ExplosionGuard):
        lindelof_oracle(tree, max_covers=10**6)
    report = lindelof_oracle(tree, max_covers=10**6, sample=200, rng=random.Random(1))
    assert report["sampled"]
    assert report["covers_checked"] == 200
    assert report["counterexamples"] == []


def test_oracle_rejects_bad_arguments():
    tree = ExplicitTree.complete(3, 4)
    # checked before any work: no rule space is built, nothing is drawn
    with pytest.raises(ValueError, match="needs an rng"):
        lindelof_oracle(tree, max_covers=10**6, sample=200)
    rng = _CountingRandom(1)
    with pytest.raises(ValueError, match="must not be negative"):
        lindelof_oracle(tree, max_covers=10**6, sample=-1, rng=rng)
    # a negative size bound would give a step no option, and radix 0
    small = ExplicitTree.complete(2, 3)
    with pytest.raises(ValueError, match="size_bound must not be negative"):
        lindelof_oracle(small, size_bound=-1, sample=200, rng=rng)
    with pytest.raises(ValueError, match="size_bound must not be negative"):
        RuleSpace(small, -1)
    assert rng.draws == 0


def _transpose(masks, width):
    """out[j] has bit i iff masks[i] has bit j: per-rank masks from
    bit-sliced ones, and back."""
    out = [0] * width
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= 1 << i
            m ^= low
    return out


def _wedge_table(tree, space):
    return space.wedge_masks(oracle._cone_masks(tree))


def _unions(tree, space, table, digits):
    """unions[d]: the union of the wedge_masks rows (``table``) of the nodes
    of depth d under these digits."""
    unions = [0] * tree.tree_height()
    for y, row, k in zip(space.nodes, table, digits):
        unions[tree.depth[y]] |= row[k]
    return unions


def _reference_failures(tree, safe, unions):
    """Both phrasings for one rule, level by level, from its safe mask and
    its wedge unions by depth."""
    nodes = list(tree.parent)
    failures, union = [], 0
    for a in range(tree.tree_height()):
        level = sum(1 << i for i, x in enumerate(nodes) if tree.depth[x] == a)
        deep = sum(1 << i for i, x in enumerate(nodes) if tree.depth[x] >= a)
        if safe & level != level & ~union:
            failures.append(("level", a))
        if (deep & ~union == 0) != (safe & level == 0):
            failures.append(("whole-tree", a))
        union |= unions[a]
    return failures


def _broken_safe_mask(tree, fmap, fault):
    """_safe_mask with one fault: forgetful counts the root's children safe
    whatever the root promises, unguarded counts a promise even when its
    node is not safe."""
    safe = {}
    for x, p in tree.parent.items():
        promised = p is not None and x in fmap.get(p, frozenset())
        if p is None or (fault == "forgetful" and tree.parent[p] is None):
            safe[x] = True
        elif fault == "unguarded":
            safe[x] = promised
        else:
            safe[x] = safe[p] and promised
    return sum(1 << i for i, x in enumerate(tree.parent) if safe[x])


def _divmod_columns(space, ranks):
    """The kernel columns of these ranks, by divmod rank by rank: one per
    group, each rule's rank // place % radix, as bytes or, for a group
    wider than a byte, a list."""
    return [(bytes if radix <= 256 else list)(r // place % radix for r in ranks) for place, radix, *_ in space._groups]


def _broken_kernel(tree, fault):
    """RuleSpace.block_masks with one fault in its safe masks: each rule's
    safe mask comes from _broken_safe_mask and is sliced into the block."""
    real = RuleSpace.block_masks

    def block_masks(self, columns, n):
        _, cover = real(self, columns, n)
        broken = [_broken_safe_mask(tree, self.rule(self.digits(self.rank(columns, j))), fault) for j in range(n)]
        return _transpose(broken, self.count), cover

    return block_masks


def test_oracle_catches_a_broken_dp(monkeypatch):
    tree = ExplicitTree.complete(2, 3)
    space = RuleSpace(tree, 2)
    # the first offending rule and level of each fault: forgetful fails on
    # the empty rule at level 1, unguarded once the unsafe node 1 promises
    for fault, cover, level in [("forgetful", "", 1), ("unguarded", "1=>{10}", 2)]:
        monkeypatch.setattr(RuleSpace, "block_masks", _broken_kernel(tree, fault))
        report = lindelof_oracle(tree)
        monkeypatch.undo()
        assert report["counterexamples"], fault
        assert report["counterexamples"][0]["cover"] == cover, fault
        assert report["counterexamples"][0]["level"] == level, fault
        # the sweep stops at the first offending rank, and only its rule is
        # formatted
        rank = report["covers_checked"] - 1
        fmap = space.rule(space.digits(rank))
        assert _broken_safe_mask(tree, fmap, fault) != _safe_mask(tree, fmap), fault
        assert all(c["cover"] == oracle._show(fmap) for c in report["counterexamples"]), fault
    # a sampled sweep catches both faults too: replaying its draw, it stops
    # at the first drawn rule whose broken safe mask differs and formats it
    tree = ExplicitTree.complete(3, 4)
    space = RuleSpace(tree, 2)
    columns = space.draw(random.Random(2), 100)
    ranks = [space.rank(columns, j) for j in range(100)]
    assert _divmod_columns(space, ranks) == columns
    for fault in ("forgetful", "unguarded"):
        monkeypatch.setattr(RuleSpace, "block_masks", _broken_kernel(tree, fault))
        report = lindelof_oracle(tree, max_covers=10**5, sample=100, rng=random.Random(2))
        monkeypatch.undo()
        assert report["sampled"] and report["counterexamples"], fault
        rules = [space.rule(space.digits(r)) for r in ranks[:report["covers_checked"]]]
        differs = [_broken_safe_mask(tree, fmap, fault) != _safe_mask(tree, fmap) for fmap in rules]
        assert differs.index(True) == len(rules) - 1, fault
        assert all(c["cover"] == oracle._show(rules[-1]) for c in report["counterexamples"]), fault


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
def test_fault_in_the_second_block(monkeypatch, sampled):
    # one wrong safe bit, for the rule at sweep position BLOCK + 5 only
    tree = ExplicitTree.complete(3, 4) if sampled else ExplicitTree.complete(2, 4)
    space = RuleSpace(tree, 2)
    target, leaf = oracle.BLOCK + 5, space.count - 1
    real = RuleSpace.block_masks
    swept, hit = [0], []

    def faulty(self, columns, n):
        safe, cover = real(self, columns, n)
        j = target - swept[0]
        if 0 <= j < n:
            safe[leaf] ^= 1 << j
            hit.append(self.rank(columns, j))
        swept[0] += n
        return safe, cover

    monkeypatch.setattr(RuleSpace, "block_masks", faulty)
    rng, replay = random.Random(4), random.Random(4)
    report = lindelof_oracle(tree, sample=3 * oracle.BLOCK, rng=rng, max_covers=10**5 if sampled else 10**6)
    assert report["sampled"] == sampled
    assert report["covers_checked"] == target + 1
    # the rng advances by whole blocks: both blocks up to the failing rule
    # are drawn, and no more
    rank, = hit
    if sampled:
        for _ in range(2):
            columns = space.draw(replay, oracle.BLOCK)
        assert _divmod_columns(space, [rank]) == [column[5:6] for column in columns]
    else:
        assert rank == target
    assert rng.getstate() == replay.getstate()
    fmap = space.rule(space.digits(rank))
    unions = _unions(tree, space, _wedge_table(tree, space), space.digits(rank))
    failures = _reference_failures(tree, _safe_mask(tree, fmap) ^ 1 << leaf, unions)
    assert failures
    shown = oracle._show(fmap)
    assert report["counterexamples"] == [{"cover": shown, "kind": kind, "level": a} for kind, a in failures]


def test_oracle_exhaustive_on_ragged_tree():
    tree = _random_tree(random.Random(1), 15)
    report = lindelof_oracle(tree)
    assert not report["sampled"]
    assert report["covers_checked"] == report["space"] == 6776
    assert report["counterexamples"] == []


RULE_TREES = [ExplicitTree.complete(2, 3), ExplicitTree.complete(3, 3), _random_tree(random.Random(1), 15)]


@pytest.mark.parametrize("tree", RULE_TREES, ids=["binary", "ternary", "ragged"])
def test_rank_order_is_product_order(tree):
    # the enumeration before rules had ranks: subsets by size, then a product
    # over the nodes with children, the last one varying fastest
    internal = [x for x in tree.parent if tree.children[x]]
    options = [
        [frozenset(c) for size in range(3) for c in combinations(tree.children[x], size)]
        for x in internal
    ]
    expected = [dict(zip(internal, combo)) for combo in product(*options)]
    space = RuleSpace(tree, 2)
    assert space.size == len(expected)
    assert [space.rule(space.digits(r)) for r in range(space.size)] == expected


@pytest.mark.parametrize("tree", RULE_TREES, ids=["binary", "ternary", "ragged"])
def test_wedge_masks_are_wedges(tree):
    nodes = list(tree.parent)

    def members(w):
        return sum(1 << i for i, x in enumerate(nodes) if wedge_contains(tree, w, x))

    cone = oracle._cone_masks(tree)
    assert cone == {y: members(Wedge(y, ())) for y in nodes}
    space = RuleSpace(tree, 2)
    table = space.wedge_masks(cone)
    for y, options, row in zip(space.nodes, space.options, table):
        assert row == [members(Wedge(y, tuple(option))) for option in options], y


def _star(arity, grandchildren):
    """A root with ``arity`` children, the first of which has ``grandchildren``
    children: at size bound 2 the root has more options than a byte holds
    once arity >= 23."""
    tree = ExplicitTree().add("r", None)
    for i in range(arity):
        tree.add(f"c{i}", "r")
    for i in range(grandchildren):
        tree.add(f"g{i}", "c0")
    return tree


def _assert_block_matches(tree, space, ranks, safe, cover):
    """The transposed per-rank safe masks equal _safe_sets, and the
    transposed covers the wedge_masks rows."""
    table = _wedge_table(tree, space)
    safe_by_rank = _transpose(safe, len(ranks))
    cover_by_rank = [_transpose(row, len(ranks)) for row in cover]
    for j, rank in enumerate(ranks):
        digits = space.digits(rank)
        assert safe_by_rank[j] == _safe_mask(tree, space.rule(digits)), rank
        assert [row[j] for row in cover_by_rank] == _unions(tree, space, table, digits), rank


def _kernel_cases():
    ternary4 = ExplicitTree.complete(3, 4)
    rng = random.Random(11)
    size = RuleSpace(ternary4, 2).size
    trees = [*RULE_TREES, _star(23, 3)]
    cases = [(tree, range(RuleSpace(tree, 2).size)) for tree in trees]
    return cases + [(ternary4, [rng.randrange(size) for _ in range(2000)])]


@pytest.mark.parametrize(
    "tree, ranks", _kernel_cases(), ids=["binary", "ternary", "ragged", "wide-star", "ternary-h4-seeded"]
)
def test_kernel_matches_safe_sets(tree, ranks):
    space = RuleSpace(tree, 2)
    for start in range(0, len(ranks), oracle.BLOCK):
        block = ranks[start:start + oracle.BLOCK]
        masks = space.block_masks(_divmod_columns(space, block), len(block))
        _assert_block_matches(tree, space, block, *masks)


B = oracle.BLOCK


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize(
    "tree", [ExplicitTree.complete(3, 4), _random_tree(random.Random(1), 15)], ids=["ternary-h4", "ragged"]
)
def test_kernel_at_block_boundaries(monkeypatch, tree, count):
    space = RuleSpace(tree, 2)
    blocks = []
    real = RuleSpace.block_masks

    def recording(self, columns, n):
        safe, cover = real(self, columns, n)
        blocks.append((columns, n, safe, cover))
        return safe, cover

    monkeypatch.setattr(RuleSpace, "block_masks", recording)
    report = lindelof_oracle(tree, max_covers=0, sample=count, rng=random.Random(count))
    assert report["covers_checked"] == count
    assert report["counterexamples"] == []
    sizes = [min(B, count - s) for s in range(0, count, B)]
    assert [n for _, n, *_ in blocks] == sizes
    replay = random.Random(count)
    assert [columns for columns, *_ in blocks] == [space.draw(replay, n) for n in sizes]
    for columns, n, safe, cover in blocks:
        ranks = [space.rank(columns, j) for j in range(n)]
        assert _divmod_columns(space, ranks) == columns
        _assert_block_matches(tree, space, ranks, safe, cover)


def test_kernel_across_radices():
    # stars of 1..20 leaves at size bounds 0, 1 and 2 have one step of radix
    # 1 (no planes), k + 1 and 1 + k + k(k - 1)/2, checked at every rank;
    # complete(2, 4) at a seeded sample, its first group four radix-4 steps
    # with product exactly 256
    cases = [(_star(k, 0), bound, None) for bound in (0, 1, 2) for k in range(1, 21)]
    binary4 = ExplicitTree.complete(2, 4)
    rng = random.Random(13)
    cases.append((binary4, 2, [rng.randrange(RuleSpace(binary4, 2).size) for _ in range(2000)]))
    assert [radix for _, radix, *_ in RuleSpace(binary4, 2)._groups] == [256, 64]
    for tree, bound, ranks in cases:
        space = RuleSpace(tree, bound)
        ranks = range(space.size) if ranks is None else ranks
        for start in range(0, len(ranks), oracle.BLOCK):
            block = ranks[start:start + oracle.BLOCK]
            masks = space.block_masks(_divmod_columns(space, block), len(block))
            _assert_block_matches(tree, space, block, *masks)


def test_digit_tables_are_bit_planes():
    for radix in range(1, 257):
        for inner in range(1, 256 // radix + 1):
            planes = oracle._digit_tables(inner, radix)
            assert len(planes) == (radix - 1).bit_length(), (inner, radix)
            for j, plane in enumerate(planes):
                assert plane == bytes(48 + (v // inner % radix >> j & 1) for v in range(256)), (inner, radix, j)
        reject, reduce = oracle._byte_tables(radix)
        assert reduce == bytes(v % radix for v in range(256)), radix
        assert reject == bytes(v for v in range(256) if v >= 256 - 256 % radix), radix


@pytest.mark.parametrize(
    "tree, parses", [(ExplicitTree.complete(3, 4), 39), (ExplicitTree.complete(2, 4), 14), (_star(23, 3), 3)],
    ids=["ternary-h4", "binary-h4", "wide-star"],
)
def test_kernel_parses_one_int_per_bit_plane(monkeypatch, tree, parses):
    # a byte step of radix r parses (r - 1).bit_length() ints per block, not
    # r; the wide step of the star parses none
    space = RuleSpace(tree, 2)
    steps = [step for *_, steps, _, reduce in space._groups if reduce is not None for step in steps]
    assert sum((radix - 1).bit_length() for _, radix, *_ in steps) == parses
    calls = []

    def counting_int(*args):
        calls.append(args)
        return int(*args)

    monkeypatch.setattr(oracle, "int", counting_int, raising=False)
    for n in (1, oracle.BLOCK):
        calls.clear()
        space.block_masks(space.columns(0, n), n)
        assert len(calls) == parses, n


def test_kernel_of_an_empty_block():
    space = RuleSpace(ExplicitTree.complete(2, 3), 2)
    safe, cover = space.block_masks(space.columns(0, 0), 0)
    assert safe == [0] * space.count
    assert cover == [[0] * space.count for _ in range(3)]


@pytest.mark.parametrize(
    "tree", [*RULE_TREES, _star(23, 3), ExplicitTree.complete(3, 4)],
    ids=["binary", "ternary", "ragged", "wide-star", "ternary-h4"],
)
def test_tiled_columns_match_divmod(tree):
    space = RuleSpace(tree, 2)
    size = space.size
    for start in sorted({0, B - 1, B, B + 1, max(0, size - B), size - 1}):
        if start >= size:
            continue
        n = min(B, size - start)
        columns = space.columns(start, n)
        assert columns == _divmod_columns(space, range(start, start + n)), start
        # each rule's rank reads back off the columns
        assert [space.rank(columns, j) for j in range(n)] == list(range(start, start + n)), start


class _ByteSource:
    """Stands in for an rng: getrandbits(8 * m) gives the next m bytes of
    ``stream``, read little-endian, and fails past its end."""

    def __init__(self, stream):
        self.stream = stream

    def getrandbits(self, k):
        m = k // 8
        chunk, self.stream = self.stream[:m], self.stream[m:]
        assert len(chunk) == m, "read past the byte source"
        return int.from_bytes(chunk, "little")


@pytest.mark.parametrize(
    "tree", [*RULE_TREES, ExplicitTree.complete(3, 4)], ids=["binary", "ternary", "ragged", "ternary-h4"]
)
def test_column_draw_is_exactly_uniform(tree):
    # every byte value once, in a seeded order: a group of radix r keeps the
    # 256 - 256 % r values below that multiple, each residue as often
    stream = bytes(random.Random(5).sample(range(256), 256))
    for _, radix, _, reject, reduce in RuleSpace(tree, 2)._groups:
        kept = 256 - 256 % radix
        column = oracle._uniform_bytes(_ByteSource(stream), kept, reject, reduce)
        assert column == bytes(v % radix for v in stream if v < kept), radix
        assert Counter(column) == {k: kept // radix for k in range(radix)}, radix


def test_oracle_memory_scales_with_the_block():
    tree = ExplicitTree.complete(3, 4)
    peaks = []
    for sample in (20_000, 100_000):
        tracemalloc.start()
        try:
            report = lindelof_oracle(tree, max_covers=0, sample=sample, rng=random.Random(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report["covers_checked"] == sample
    assert peaks[1] <= 2 * peaks[0], peaks


# --- the engine against real wedges ---------------------------------------------------

def _wedge_covered(tree, fmap, x):
    """Whether x lies in the wedge of fmap at some node of lower depth."""
    depth = tree.depth
    return any(
        wedge_contains(tree, Wedge(y, tuple(fmap.get(y, ()))), x)
        for y in tree.parent
        if depth[y] < depth[x]
    )


def _assert_engine_matches_wedges(tree, rule, fmap):
    for x in tree.parent:
        assert is_safe(rule, x) == (not _wedge_covered(tree, fmap, x)), x
    for d in range(1, tree.tree_height()):
        covered = all(_wedge_covered(tree, fmap, x) for x in tree.level_nodes(d))
        assert covers_within(rule, from_nat(d)) == covered, d
        _assert_find_safe_is_exact(rule, from_nat(d), covered)


def _assert_find_safe_is_exact(rule, alpha, covered):
    """find_safe_point answers None exactly on a covered level, and otherwise
    a safe node of that height."""
    found = find_safe_point(rule, alpha)
    if covered:
        assert found is None, alpha
    else:
        assert found is not None and rule.family.height(found) == alpha and is_safe(rule, found), alpha


def _seeded_rules(tree, count, rng):
    internal = [x for x in tree.parent if tree.children[x]]
    return [
        {x: frozenset(rng.sample(tree.children[x], rng.randrange(len(tree.children[x]) + 1)))
         for x in internal}
        for _ in range(count)
    ]


def _rule_cases():
    rng = random.Random(3)
    binary = ExplicitTree.complete(2, 3)
    ternary = ExplicitTree.complete(3, 3)
    ragged = _random_tree(random.Random(0), 15)
    space = RuleSpace(binary, 2)
    return [
        (binary, [space.rule(space.digits(r)) for r in range(space.size)]),
        (ternary, _seeded_rules(ternary, 200, rng)),
        (ragged, _seeded_rules(ragged, 200, rng)),
    ]


@pytest.mark.parametrize("tree, rules", _rule_cases(), ids=["binary-all", "ternary", "ragged"])
def test_engine_matches_wedges(tree, rules):
    for fmap in rules:
        _assert_engine_matches_wedges(tree, _table(tree, fmap), fmap)
    rng = random.Random(5)
    for fmap, patch in zip(rules[:5], _seeded_rules(tree, 5, rng)):
        rows = dict(rng.sample(sorted(patch.items()), 2))
        patched = _table(tree, fmap).patched(rows)
        _assert_engine_matches_wedges(tree, patched, {**fmap, **rows})
    # subtree rules over explicit trees: the safe set S of each rule, cut at a
    # seeded height h, promises the children that stay inside it
    for fmap in rules:
        S = {x for x in tree.parent if not _wedge_covered(tree, fmap, x)}
        h = rng.randrange(1, tree.tree_height() + 1)
        inside = {x: frozenset(c for c in tree.children[x] if c in S) for x in tree.parent}
        cut = {x: frozenset(c for c in inside[x] if tree.depth[c] < h) for x in tree.parent}
        subtree = ExplicitSubtree(tree, S)
        _assert_engine_matches_wedges(tree, subtree, inside)
        _assert_engine_matches_wedges(tree, TruncatedSubtree(subtree, from_nat(h)), cut)
        _assert_engine_matches_wedges(tree, SafeSubtree(_table(tree, fmap)), inside)


# --- patched covers decide their levels -------------------------------------------------
# The oracles below read safety off wedges or off is_safe, node by node, and
# never call the row search behind PatchedCover.safe_above.

def _random_patched_explicit(rng):
    """A seeded ragged tree, a downward-closed core on it and a few patch
    rows; a row now and then holds a node that is no child of its key."""
    tree = _random_tree(rng, rng.randrange(2, 16))
    members = set()
    if rng.random() < 0.9:
        members.add("r")
        for x, p in tree.parent.items():  # insertion order puts every parent first
            if p in members and rng.random() < 0.6:
                members.add(x)
    nodes = list(tree.parent)
    rows = {}
    for y in rng.sample(nodes, rng.randrange(1, min(6, len(nodes)) + 1)):
        succ = [c for c in tree.children[y] if rng.random() < 0.5]
        if rng.random() < 0.3:
            succ.append(rng.choice(nodes))
        rows[y] = tuple(succ)
    return tree, members, rows


def test_patched_explicit_cores_match_wedges():
    rng = random.Random(11)
    levels = 0
    for _ in range(300):
        tree, members, rows = _random_patched_explicit(rng)
        rule = ExplicitSubtree(tree, members).patched(rows)
        # a row member that is no child routes no step, so it excludes no cone
        fmap = {
            y: frozenset(c for c in rows[y] if tree.parent[c] == y) if y in rows
            else frozenset(c for c in tree.children[y] if c in members)
            for y in tree.parent
        }
        _assert_engine_matches_wedges(tree, rule, fmap)
        levels += tree.tree_height() - 1
    assert levels >= 900


def test_patched_explicit_answers_above_every_safe_node():
    # safe_above(y, a) against a scan of level a by is_safe, which never
    # calls the row search: None exactly when no safe node of the level lies
    # above y, and otherwise one of them
    rng = random.Random(11)
    answers = {True: 0, False: 0}
    for _ in range(300):
        tree, members, rows = _random_patched_explicit(rng)
        rule = ExplicitSubtree(tree, members).patched(rows)
        safe = [y for y in tree.parent if is_safe(rule, y)]
        for y in safe:
            for d in range(tree.depth[y], tree.tree_height()):
                above = [z for z in safe if tree.depth[z] == d and _ancestor(tree, z, tree.depth[y]) == y]
                w = rule.safe_above(y, from_nat(d))
                assert (w is None) == (not above), (rows, y, d)
                assert w is None or w in above, (rows, y, d)
                answers[w is None] += 1
    assert min(answers.values()) >= 500


def _ancestor(tree, z, d):
    """The ancestor of z at depth d, read off the parent links."""
    for _ in range(tree.depth[z] - d):
        z = tree.parent[z]
    return z


def _random_digit_rows(rng, top):
    """Patch rows over finite digit nodes with digits <= top.  Keys are often
    members of earlier rows, so that rows chain out of the binary subtree,
    or bit extensions of earlier keys, so that patched nodes nest."""
    def node(n):
        return DigitNode(None, (), tuple(rng.randrange(top + 1) for _ in range(n)))

    rows = {}
    for _ in range(rng.randrange(1, 6)):
        members = [z for succ in rows.values() for z in succ if len(z.trail) < 4]
        keys = [y for y in rows if len(y.trail) < 3]
        pick = rng.random()
        if members and pick < 0.4:
            y = rng.choice(members)
        elif keys and pick < 0.7:
            y = rng.choice(keys)
            y = DigitNode(None, (), y.trail + tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4 - len(y.trail)))))
        else:
            y = node(rng.randrange(4))
        succ = [DigitNode(None, (), y.trail + (d,)) for d in range(top + 1) if rng.random() < 0.4]
        if rng.random() < 0.2:
            succ.append(node(rng.randrange(1, 5)))  # no child of y: it routes no step
        rows[y] = tuple(succ)
    return rows


def test_patched_digit_levels_match_brute_force(tinu):
    rng = random.Random(12)
    cores = [tinu] + [TruncatedSubtree(tinu, h) for h in (*map(from_nat, range(1, 6)), OMEGA)]
    answers = {True: 0, False: 0}
    for _ in range(300):
        rows = _random_digit_rows(rng, rng.randrange(2, 4))
        f = rng.choice(cores).patched(rows)
        # every digit of a safe node is a bit (a step into the core) or a
        # digit of a row (a step through a patch)
        top = max([1, *(d for y, succ in rows.items() for z in (y, *succ) for d in z.trail)])
        for n in range(1, 5):
            level = product(range(top + 1), repeat=n)
            has_safe = any(is_safe(f, DigitNode(None, (), t)) for t in level)
            assert covers_within(f, from_nat(n)) == (not has_safe), (rows, n)
            _assert_find_safe_is_exact(f, from_nat(n), not has_safe)
            answers[not has_safe] += 1
    assert min(answers.values()) >= 100


def test_patched_limit_levels_agree_with_find_safe(tinu):
    rng = random.Random(13)
    stem = tinu.safe_above(tinu.family.root(), OMEGA)
    cores = [tinu, *(TruncatedSubtree(tinu, parse_cnf(h)) for h in ("w", "w*2", "3"))]
    levels = [parse_cnf(a) for a in ("w", "w+1", "w*2", "w^2")]
    found = 0
    for _ in range(100):
        rows = _random_digit_rows(rng, 3)
        if rng.random() < 0.5:
            # a row at the canonical node of height w, so that a gate sits at a limit
            rows[stem] = tuple(DigitNode(stem.base, stem.patch, (d,)) for d in range(4) if rng.random() < 0.5)
        f = rng.choice(cores).patched(rows)
        for alpha in levels:
            if find_safe_point(f, alpha) is not None:
                found += 1
                assert covers_within(f, alpha) is False, (rows, alpha)
    assert found >= 100


# --- patched covers decide safety down their chains of rows -----------------------------

def test_safety_walks_a_chain_of_rows_once(monkeypatch):
    # a node outside the core is checked down its chain of rows, one parent
    # step per row, not by a walk up to it from every row below it
    n = 1000
    tree = ExplicitTree().add("r", None).add("c1", "r")
    for i in range(2, n + 1):
        tree.add(f"c{i}", f"c{i - 1}")
    table = _table(tree, {"r": ("c1",), **{f"c{i}": (f"c{i + 1}",) for i in range(1, n)}})
    steps = []
    walk = ExplicitTree.ancestor_at

    def counted(self, x, d):
        steps.append(self.depth[x] - d)
        return walk(self, x, d)

    monkeypatch.setattr(ExplicitTree, "ancestor_at", counted)
    assert is_safe(table, f"c{n}")
    assert sum(steps) <= 2 * n, sum(steps)


def test_patched_digit_safety_matches_a_prefix_oracle(digits, tinu):
    # is_safe on finite digit nodes against the definition, step by step:
    # every (b+1)-prefix of x is in f of its b-prefix
    rng = random.Random(14)
    cores = [tinu, *(TruncatedSubtree(tinu, h) for h in (*map(from_nat, range(1, 5)), OMEGA))]
    nodes = [DigitNode(None, (), t) for n in range(5) for t in product(range(4), repeat=n)]
    outside = 0
    for _ in range(200):
        core = rng.choice(cores)
        f = core.patched(_random_digit_rows(rng, rng.randrange(2, 4)))
        for x in nodes:
            prefixes = [digits.restrict(x, from_nat(b)) for b in range(len(x.trail) + 1)]
            safe = all(z in f.values(y) for y, z in zip(prefixes, prefixes[1:]))
            assert is_safe(f, x) == safe, (f.table, x)
            outside += safe and not is_safe(core, x)
    assert outside >= 200, outside
    # a row at the stem of height w routes one step out of the core
    stem = tinu.safe_above(digits.root(), OMEGA)
    two = DigitNode(stem.base, stem.patch, (2,))
    f = tinu.patched({stem: (two,)})
    assert is_safe(f, two)
    assert not is_safe(f, DigitNode(stem.base, stem.patch, (2, 0)))
    # a node of limit height outside the core has no parent row to hang from
    assert not is_safe(f, digits.assemble(stem.base, {from_nat(3): 2}, ()))
