"""Fine wedge topology engine.

The fine wedge topology on a tree is generated by the up-cones and their
complements; the sets (up x) minus (up F) for finite F of immediate
successors form a local base at x.  A structured rule f assigning each node
a finite set f(x) of immediate successors codes the cover by the wedges
(up x) minus (up f(x)).  A point is *safe* for f when every proper
predecessor y routes it through f(y); safe points are exactly the points
no wedge from strictly below can cover, so cover questions at a level
reduce to the existence of safe points there.

Only structured rules are admitted over symbolic (infinite-level) families:
subtree-induced rules, finite patches of those, and finite tables over
explicit trees.  Each knows how to decide safety exactly; anything that
would need an unbounded scan raises CoverUndecided instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb

from .families import DigitFamily, DigitNode
from .ordinal import Ordinal, ZERO, add_ord, block_decompose, classify, from_nat
from .trees import ExplicitFamily, ExplicitTree, TreeFamily, tree_le


class CoverUndecided(RuntimeError):
    """The cover question cannot be decided within the given structure/budget."""


class ExplosionGuard(RuntimeError):
    """Exhaustive enumeration would exceed the configured bound."""


# --- wedges --------------------------------------------------------------------

@dataclass(frozen=True)
class Wedge:
    """Basic open set: everything above ``apex`` except the cones over
    ``excluded`` immediate successors."""
    apex: object
    excluded: tuple


def wedge_contains(family: TreeFamily, w: Wedge, y) -> bool:
    if tree_le(family, w.apex, y) not in ("below", "equal"):
        return False
    return all(tree_le(family, z, y) not in ("below", "equal") for z in w.excluded)


# --- subtree handles -------------------------------------------------------------

class SubtreeHandle:
    """Downward-closed set of nodes with a decidable membership and a
    structural successor filter."""

    family: TreeFamily

    def contains(self, x) -> bool:
        raise NotImplementedError

    def filter_successors(self, x) -> list:
        raise NotImplementedError

    def first_bad(self, x) -> Ordinal | None:
        """Least height b such that the (b+1)-prefix of x leaves the subtree,
        or None when every prefix (including x itself) is a member."""
        raise NotImplementedError

    def safe_witness(self, alpha: Ordinal):
        """A node of height alpha that is safe for the subtree rule, or None
        when there is none."""
        raise NotImplementedError

    def covers_level(self, alpha: Ordinal) -> bool:
        """Whether the subtree rule covers level alpha > 0 of a symbolic
        family, decided by the safe witness."""
        w = self.safe_witness(alpha)
        if w is None:
            return True
        bad = self.first_bad(w)
        if bad is None or not bad < self.family.height(w):
            return False
        raise CoverUndecided(f"stale witness for subtree({self.describe()}) at {alpha}")

    def describe(self) -> str:
        raise NotImplementedError


class BinaryInsideDigits(SubtreeHandle):
    """The binary family embedded in the digit family: membership is simply
    'every digit is a bit', read off the finite descriptor."""

    def __init__(self, digits: DigitFamily):
        self.digits = digits
        self.family = digits

    def contains(self, x) -> bool:
        return isinstance(x, DigitNode) and self.first_bad(x) is None

    def first_bad(self, x: DigitNode) -> Ordinal | None:
        bad = []
        base_h = ZERO if x.base is None else x.base.height
        for p, d in x.patch:
            if d > 1:
                bad.append(p)
        for i, d in enumerate(x.trail):
            if d > 1:
                bad.append(add_ord(base_h, from_nat(i)))
        return min(bad) if bad else None

    def filter_successors(self, x) -> list:
        if not self.contains(x):
            return []
        return [DigitNode(x.base, x.patch, x.trail + (b,)) for b in (0, 1)]

    def safe_witness(self, alpha: Ordinal) -> DigitNode:
        stem = self.digits.bits.canonical_extension(self.digits.bits.root(), alpha)
        return self.digits.embed_bits(stem)

    def describe(self) -> str:
        return "T-in-U"


class TruncatedSubtree(SubtreeHandle):
    """The inner subtree cut to height ``h`` (members of height < h)."""

    def __init__(self, inner: SubtreeHandle, h: Ordinal):
        self.inner = inner
        self.h = h
        self.family = inner.family

    def contains(self, x) -> bool:
        return self.family.height(x) < self.h and self.inner.contains(x)

    def _onset(self) -> Ordinal:
        """Least b whose (b+1)-prefix is too tall for the truncation."""
        if classify(self.h) == "successor":
            return _minus_one(self.h)
        return self.h

    def first_bad(self, x) -> Ordinal | None:
        bad = self.inner.first_bad(x)
        cut = self._onset()
        hx = self.family.height(x)
        if not hx < add_ord(cut, from_nat(1)):  # some prefix of x is too tall
            bad = cut if bad is None or cut < bad else bad
        return bad

    def filter_successors(self, x) -> list:
        up = add_ord(self.family.height(x), from_nat(1))
        if not up < self.h:
            return []
        return self.inner.filter_successors(x)

    def safe_witness(self, alpha: Ordinal):
        # at a limit truncation height the level itself still has safe points:
        # every tested prefix sits strictly below h
        if alpha < self.h or (alpha == self.h and classify(self.h) == "limit"):
            return self.inner.safe_witness(alpha)
        return None

    def describe(self) -> str:
        return f"trunc({self.inner.describe()}, {self.h})"


def _minus_one(a: Ordinal) -> Ordinal:
    lam, m = block_decompose(a)
    if m == 0:
        raise ValueError(f"{a} has no predecessor")
    return add_ord(lam, from_nat(m - 1))


class ExplicitSubtree(SubtreeHandle):
    """Finite set of explicit-tree nodes, checked to be downward closed."""

    def __init__(self, family: ExplicitFamily, members):
        self.family = family
        self.members = frozenset(members)
        tree = family.tree
        for x in self.members:
            p = tree.parent[x]
            if p is not None and p not in self.members:
                raise ValueError(f"not downward closed: {x!r} without {p!r}")

    def contains(self, x) -> bool:
        return x in self.members

    def first_bad(self, x) -> Ordinal | None:
        tree = self.family.tree
        for b in range(tree.depth[x]):
            if tree.ancestor_at(x, b + 1) not in self.members:
                return from_nat(b)
        return None

    def filter_successors(self, x) -> list:
        return [c for c in self.family.tree.children[x] if c in self.members]

    def safe_witness(self, alpha: Ordinal):
        for x in self.family.tree.level_nodes(alpha.to_nat()):
            if self.first_bad(x) is None:
                return x
        return None

    def describe(self) -> str:
        return f"explicit({len(self.members)} nodes)"


# --- cover rules -------------------------------------------------------------------

class CoverRule:
    family: TreeFamily

    def values(self, x) -> list:
        """f(x): the finite successor set the rule assigns to x."""
        raise NotImplementedError

    def first_violation(self, x) -> Ordinal | None:
        """Least b < height(x) whose step leaves the rule: the (b+1)-prefix of
        x is not in f(b-prefix).  None means x is safe."""
        raise NotImplementedError

    def witness_candidates(self, alpha: Ordinal, budget: int) -> list:
        """Nodes of height alpha > 0 that find_safe_point tests, in order."""
        raise NotImplementedError

    def covers_within(self, alpha: Ordinal) -> bool:
        """Whether the wedges below level alpha > 0 cover it; this version
        scans the level, which is finite on an explicit tree."""
        return all(not is_safe(self, x) for x in self.family.tree.level_nodes(alpha.to_nat()))

    def _explicit_violation(self, x) -> Ordinal | None:
        """first_violation on an explicit tree, by scanning x's steps."""
        tree = self.family.tree
        for b in range(tree.depth[x]):
            y = tree.ancestor_at(x, b)
            if tree.ancestor_at(x, b + 1) not in self.values(y):
                return from_nat(b)
        return None

    def describe(self) -> str:
        raise NotImplementedError


class SubtreeCover(CoverRule):
    """f(x) = immediate successors of x inside the subtree S."""

    def __init__(self, handle: SubtreeHandle):
        self.handle = handle
        self.family = handle.family

    def values(self, x) -> list:
        return self.handle.filter_successors(x)

    def first_violation(self, x) -> Ordinal | None:
        bad = self.handle.first_bad(x)
        if bad is None or not bad < self.family.height(x):
            return None
        return bad

    def witness_candidates(self, alpha: Ordinal, budget: int) -> list:
        w = self.handle.safe_witness(alpha)
        return [w] if w is not None else []

    def covers_within(self, alpha: Ordinal) -> bool:
        if isinstance(self.family, ExplicitFamily):
            return super().covers_within(alpha)
        return self.handle.covers_level(alpha)

    def describe(self) -> str:
        return f"subtree({self.handle.describe()})"


class TableCover(CoverRule):
    """Explicit finite assignment over an explicit tree; nodes missing from
    the table get the empty set."""

    def __init__(self, family: ExplicitFamily, table: dict):
        self.family = family
        tree = family.tree
        for x, succ in table.items():
            for z in succ:
                if tree.parent[z] != x:
                    raise ValueError(f"{z!r} is not an immediate successor of {x!r}")
        self.table = {x: frozenset(s) for x, s in table.items()}

    def values(self, x) -> list:
        return sorted(self.table.get(x, frozenset()))

    def first_violation(self, x) -> Ordinal | None:
        return self._explicit_violation(x)

    def witness_candidates(self, alpha: Ordinal, budget: int) -> list:
        return self.family.tree.level_nodes(alpha.to_nat())

    def describe(self) -> str:
        return f"table({len(self.table)} rows)"


class PatchedCover(CoverRule):
    """A base rule overridden on finitely many nodes.  Safety stays exactly
    decidable: over explicit trees by a finite scan, over symbolic families
    by flattening the patches onto the downward-closed base subtree, whose
    violations form an upward-closed set."""

    def __init__(self, base: CoverRule, table: dict):
        self.base = base
        self.family = base.family
        self.table = {x: tuple(s) for x, s in table.items()}
        core, _ = _flatten(self)
        if not isinstance(core, (SubtreeCover, TableCover)):
            raise TypeError("patched rules must bottom out in a structured base")

    def values(self, x) -> list:
        if x in self.table:
            return list(self.table[x])
        return self.base.values(x)

    def first_violation(self, x) -> Ordinal | None:
        fam = self.family
        if isinstance(fam, ExplicitFamily):
            return self._explicit_violation(x)
        core, table = _flatten(self)
        hx = fam.height(x)
        patched = {}
        best = None
        for y, succ in table.items():
            if tree_le(fam, y, x) != "below":
                continue
            b = fam.height(y)
            patched[b] = True
            step = fam.restrict(x, add_ord(b, from_nat(1)))
            if step not in succ and (best is None or b < best):
                best = b
        onset = core.handle.first_bad(x)
        if onset is not None and onset < hx:
            b = onset
            while b < hx:
                if b not in patched:
                    if best is None or b < best:
                        best = b
                    break
                b = add_ord(b, from_nat(1))
        return best

    def witness_candidates(self, alpha: Ordinal, budget: int) -> list:
        out = list(self.base.witness_candidates(alpha, budget))
        out.extend(self._threaded_candidates(alpha, budget))
        out.extend(islice(self.family.level(alpha), budget))
        return out

    def _threaded_candidates(self, alpha: Ordinal, budget: int) -> list:
        """Candidates routed through the allowed successors of patched nodes."""
        fam = self.family
        _, table = _flatten(self)
        out = []
        for y, succ in table.items():
            if not fam.height(y) < alpha:
                continue
            for z in succ:
                if not alpha < fam.height(z):
                    try:
                        out.append(fam.canonical_extension(z, alpha))
                    except ValueError:
                        continue
                if len(out) >= budget:
                    return out
        return out

    def covers_within(self, alpha: Ordinal) -> bool:
        if isinstance(self.family, ExplicitFamily):
            return super().covers_within(alpha)
        if find_safe_point(self, alpha) is not None:
            return False
        raise CoverUndecided("no safe point found within budget; patched "
                             "symbolic covers are only refuted by a witness")

    def describe(self) -> str:
        return f"patched({self.base.describe()}; {len(self.table)} rows)"


def _flatten(f: CoverRule):
    """Merge nested patch tables down to the structured core; outer wins."""
    layers = []
    base = f
    while isinstance(base, PatchedCover):
        layers.append(base.table)
        base = base.base
    table = {}
    for t in reversed(layers):
        table.update(t)
    return base, table


# --- safety queries -------------------------------------------------------------------

def eval_cover(f: CoverRule, x) -> list:
    return f.values(x)


def is_safe(f: CoverRule, x) -> bool:
    """Safe means: every predecessor y of x has x above some member of f(y)."""
    return f.first_violation(x) is None


def find_safe_point(f: CoverRule, alpha: Ordinal, budget: int = 64):
    """A safe node of height alpha, or None when none was found within the
    budgeted search.  Structured rules return canonical witnesses without
    search."""
    if alpha.is_zero():
        return f.family.root()
    for x in f.witness_candidates(alpha, budget):
        if is_safe(f, x):
            return x
    return None


def covers_within(f: CoverRule, alpha: Ordinal) -> bool:
    """True iff the wedges of f below level alpha cover that whole level,
    which happens exactly when no safe point of height alpha exists.  Raises
    CoverUndecided when the rule cannot decide the level."""
    if alpha.is_zero():
        return False  # the root is always safe
    return f.covers_within(alpha)


class SafeSubtree(SubtreeHandle):
    """The set of safe points of a cover: downward closed, and the successor
    filter of a safe node is exactly f(x)."""

    def __init__(self, f: CoverRule):
        self.f = f
        self.family = f.family

    def contains(self, x) -> bool:
        return is_safe(self.f, x)

    def first_bad(self, x) -> Ordinal | None:
        return self.f.first_violation(x)

    def filter_successors(self, x) -> list:
        if not is_safe(self.f, x):
            return []
        return list(self.f.values(x))

    # a node is safe for the derived rule iff it is safe for f itself, so
    # both questions go to f
    def safe_witness(self, alpha: Ordinal):
        return find_safe_point(self.f, alpha)

    def covers_level(self, alpha: Ordinal) -> bool:
        return covers_within(self.f, alpha)

    def describe(self) -> str:
        return f"safe({self.f.describe()})"


def safe_subtree(f: CoverRule) -> SafeSubtree:
    return SafeSubtree(f)


# --- finite exhaustive oracle ------------------------------------------------------------

def all_covers(tree: ExplicitTree, size_bound: int):
    """Every rule with |f(x)| <= size_bound, as dicts; the enumeration order
    is fixed by node insertion order and subset rank."""
    nodes = [x for x in tree.parent if tree.children[x]]
    options = []
    for x in nodes:
        kids = tree.children[x]
        opts = [frozenset()]
        opts.extend(
            frozenset(c) for c in _subsets_upto(kids, size_bound) if c
        )
        options.append(opts)
    for combo in product(*options):
        yield dict(zip(nodes, combo))


def _subsets_upto(items, k):
    for size in range(1, k + 1):
        for c in combinations(items, size):
            yield c


def cover_space_size(tree: ExplicitTree, size_bound: int) -> int:
    total = 1
    for x in tree.parent:
        kids = tree.children[x]
        if not kids:
            continue
        n = len(kids)
        count = sum(comb(n, s) for s in range(0, size_bound + 1))
        total *= count
    return total


def _safe_sets(tree: ExplicitTree, fmap: dict) -> dict:
    """Dynamic program: a child is safe iff its parent is safe and promised."""
    safe = {}
    for x in tree.parent:  # insertion order is top-down for our builders
        p = tree.parent[x]
        if p is None:
            safe[x] = True
        else:
            safe[x] = safe[p] and x in fmap.get(p, frozenset())
    return safe


def lindelof_oracle(
    tree: ExplicitTree,
    cutoff: int,
    size_bound: int = 2,
    max_covers: int = 10**6,
    sample: int | None = None,
    rng=None,
) -> dict:
    """Exhaustively verify, for every bounded rule on a finite tree, that
    'no safe point at level a' is the same as 'level a is covered from below
    a' (and as the whole tree from level a up being covered), and that the
    safe set is a subtree whose successor filter is f on safe nodes.

    Raises ExplosionGuard when the rule space exceeds ``max_covers``, unless
    a ``sample`` size (with rng) asks for a seeded random sweep instead.
    """
    space = cover_space_size(tree, size_bound)
    sampled = False
    if space > max_covers:
        if sample is None:
            raise ExplosionGuard(f"{space} rules exceed the bound {max_covers}")
        sampled = True
        covers = (_random_cover(tree, size_bound, rng) for _ in range(sample))
    else:
        covers = all_covers(tree, size_bound)

    nodes = list(tree.parent)
    anc = {x: [tree.ancestor_at(x, d) for d in range(tree.depth[x] + 1)] for x in nodes}
    levels = [tree.level_nodes(d) for d in range(min(cutoff + 1, tree.tree_height()))]
    empty = frozenset()

    def covered_below(fmap, x, a):
        chain = anc[x]
        for d in range(min(a, len(chain) - 1)):
            if chain[d + 1] not in fmap.get(chain[d], empty):
                return True  # x is above chain[d] but escapes every cone over f
        return False

    checked = 0
    counterexamples = []
    for fmap in covers:
        checked += 1
        safe = _safe_sets(tree, fmap)
        # independent safety recomputation straight from the definition
        for x in nodes:
            chain = anc[x]
            direct = all(
                chain[d + 1] in fmap.get(chain[d], empty) for d in range(len(chain) - 1)
            )
            if direct != safe[x]:
                counterexamples.append({"cover": _show(fmap), "kind": "dp-vs-direct", "node": x})
        for a, level in enumerate(levels):
            no_safe = not any(safe[x] for x in level)
            all_covered = all(covered_below(fmap, x, a) for x in level)
            if no_safe != all_covered:
                counterexamples.append({"cover": _show(fmap), "kind": "level-equivalence", "level": a})
            # full-tree phrasing: the restricted rule covers everything at or
            # above the level too (points below cover themselves)
            whole = all(
                covered_below(fmap, z, a) for z in nodes if tree.depth[z] >= a
            )
            if no_safe != whole:
                counterexamples.append({"cover": _show(fmap), "kind": "full-coverage", "level": a})
        # the safe set is downward closed and its filter is f on safe nodes
        for x in nodes:
            p = tree.parent[x]
            if safe[x] and p is not None and not safe[p]:
                counterexamples.append({"cover": _show(fmap), "kind": "closure", "node": x})
            if safe[x]:
                inside = {c for c in tree.children[x] if safe[c]}
                if inside != set(fmap.get(x, empty)) & set(tree.children[x]):
                    counterexamples.append({"cover": _show(fmap), "kind": "filter", "node": x})
            if x in fmap.get(x, empty):
                counterexamples.append({"cover": _show(fmap), "kind": "self", "node": x})
        if counterexamples:
            break
    return {
        "covers_checked": checked,
        "space": space,
        "sampled": sampled,
        "counterexamples": counterexamples,
        "limit_levels_in_range": [],  # finite trees have none; phrasing (2) is vacuous here
    }


def _random_cover(tree: ExplicitTree, size_bound: int, rng) -> dict:
    fmap = {}
    for x in tree.parent:
        kids = tree.children[x]
        if not kids:
            continue
        size = rng.randrange(0, size_bound + 1)
        fmap[x] = frozenset(rng.sample(kids, min(size, len(kids))))
    return fmap


def _show(fmap: dict) -> str:
    return "; ".join(f"{x}=>{{{','.join(sorted(s))}}}" for x, s in sorted(fmap.items()) if s)
