"""Fine wedge topology engine.

The fine wedge topology on a tree is generated by the up-cones and their
complements; the sets (up x) minus (up F) for finite F of immediate
successors form a local base at x.  A structured rule f assigning each node
a finite set f(x) of immediate successors codes the cover by the wedges
(up x) minus (up f(x)).  A point is *safe* for f when every proper
predecessor y routes it through f(y); safe points are exactly the points
no wedge from strictly below can cover, so cover questions at a level
reduce to the existence of safe points there.

Only structured rules are admitted over symbolic (infinite-level) families,
all subclasses of one base class, CoverRule, which states their protocol.
There are five rules: four subtrees (the binary tree inside the digit tree,
its truncations, finite explicit subtrees, and the safe set of another
rule) and the finite patch of a subtree (PatchedCover), the one rule for
finite overrides: a finite table over an explicit tree is the patch of the
root-only subtree.  Every rule answers each level itself, level 0 too, and
the witness is defined once per rule: a subtree gives its canonical node,
and a patch the core's canonical node if that is safe, otherwise the first
node its row search reaches.  A level an explicit tree does not have is an
error, as a limit level is.
"""

from __future__ import annotations

from .families import DigitFamily, DigitNode
from .ordinal import Ordinal, classify, pred
from .trees import ExplicitTree, TreeFamily

# the benchmark's tracer (perfbench/tracing.py) wraps the oracle under this name
from .oracle import lindelof_oracle  # noqa: F401


class CoverUndecided(RuntimeError):
    """An undecided cover question.  No rule raises it: every level answer is
    exact.  It stays because the benchmark's tracer (perfbench/tracing.py)
    tests each covers_within call for it."""


# --- cover rules -------------------------------------------------------------------

class CoverRule:
    """A structured cover rule f over ``family``; it answers three questions,
    each exactly.  values(x) is f(x), a finite set of immediate successors
    of x.  safe(x) says whether for each b < height(x) the (b+1)-prefix of x
    is in f(b-prefix); the safe nodes are downward closed and contain the root.
    safe_above(x, alpha), the one level method, is the rule's canonical safe
    node of height alpha above the safe node x (of height <= alpha), or None
    exactly when there is none; at alpha = height(x) it is x.  patched(rows)
    is the PatchedCover with f(x) replaced by rows[x] for each x in rows.
    The other four rules are those of a downward-closed subtree S: f(x) is
    the children of x inside S, empty outside S, so x is safe iff x is in S."""

    family: TreeFamily

    def patched(self, rows: dict) -> CoverRule:
        return PatchedCover(self, rows)


class BinaryInsideDigits(CoverRule):
    """The binary family embedded in the digit family: a node is safe
    exactly when every digit is a bit, read off the finite descriptor."""

    def __init__(self, digits: DigitFamily):
        self.family = digits

    def safe(self, x: DigitNode) -> bool:
        return all(d < 2 for _, d in x.patch) and all(d < 2 for d in x.trail)

    def values(self, x) -> list:
        if not self.safe(x):
            return []
        return [DigitNode(x.base, x.patch, x.trail + (b,)) for b in (0, 1)]

    def safe_above(self, x: DigitNode, alpha: Ordinal) -> DigitNode:
        # zero digits and bit stems: the canonical extension of a binary node
        # stays binary
        return self.family.canonical_extension(x, alpha)


class TruncatedSubtree(CoverRule):
    """The inner subtree cut to height ``h`` (members of height < h)."""

    def __init__(self, inner: CoverRule, h: Ordinal):
        self.inner = inner
        self.h = h
        self.family = inner.family
        # the least b whose (b+1)-prefix is too tall for the truncation
        self.onset = pred(h) if classify(h) == "successor" else h

    def safe(self, x) -> bool:
        return not self.onset < self.family.height(x) and self.inner.safe(x)

    def values(self, x) -> list:
        return self.inner.values(x) if self.family.height(x) < self.onset else []

    # a level past the onset is covered; at a limit cut the level h itself
    # still has safe points, since every tested prefix sits strictly below h
    def safe_above(self, x, alpha: Ordinal):
        return None if self.onset < alpha else self.inner.safe_above(x, alpha)


class ExplicitSubtree(CoverRule):
    """Finite set of explicit-tree nodes, checked to be downward closed."""

    def __init__(self, family: ExplicitTree, members):
        self.family = family
        self.members = frozenset(members)
        for x in self.members:
            p = family.parent[x]
            if p is not None and p not in self.members:
                raise ValueError(f"not downward closed: {x!r} without {p!r}")

    # the root is safe for every rule, also for an empty member set
    def safe(self, x) -> bool:
        return x in self.members or self.family.parent[x] is None

    def values(self, x) -> list:
        return [c for c in self.family.children[x] if c in self.members]

    def safe_above(self, x, alpha: Ordinal):
        tree = self.family
        for y in tree.level_nodes(alpha.to_nat()):
            if self.safe(y) and tree.order(x, y) in ("below", "equal"):
                return y
        return None


class PatchedCover(CoverRule):
    """A subtree rule overridden on finitely many nodes; a table over an
    explicit tree is the patch of its root-only subtree.  Patching again
    merges the rows into one table, outer rows winning, so the rule is
    always one layer over its core.  Safety stays exactly decidable: an
    unpatched node outside the core routes no step, so a safe node outside
    the core hangs from a core node by a finite chain of rows, each listing
    the next, and the rows below that core node must route it, by the
    routing law of forcing conditions (the family's ``unrouted``).  Levels
    are decidable too: a safe node leaves the core only through patched nodes,
    so one search over the rows above a safe node decides the level there.
    The witness has two stages: the core's canonical node if it is safe for
    the patch, otherwise the first node the search reaches."""

    def __init__(self, core: CoverRule, table: dict):
        if isinstance(core, PatchedCover):
            raise TypeError("patches apply to a subtree rule; use its patched()")
        self.core = core
        self.family = core.family
        self.table = {x: tuple(s) for x, s in table.items()}

    def values(self, x) -> list:
        if x in self.table:
            return list(self.table[x])
        return self.core.values(x)

    def safe(self, x) -> bool:
        fam = self.family
        # down the chain of rows to the core
        while not self.core.safe(x):
            h = fam.height(x)
            if classify(h) != "successor":
                return False
            parent = fam.restrict(x, pred(h))
            if x not in self.table.get(parent, ()):
                return False
            x = parent
        # no row lies below the root; above it, the rows below x must route it
        return not fam.height(x) or fam.unrouted(self.table, x) is None

    def safe_above(self, x, alpha: Ordinal):
        # the core's node when the rows leave it safe; the search otherwise
        w = self.core.safe_above(x, alpha)
        if w is not None and is_safe(self, w):
            return w
        return self._search(x, alpha)

    def _search(self, x, alpha: Ordinal):
        """Exact search for a safe node of height alpha, up from the safe
        node x.
        A safe node z below alpha goes on as follows: if z is patched, through
        the rows of z that are its immediate successors (no other member
        routes a step), in the order written; if z is unpatched and outside
        the core, nowhere; otherwise through the core, to a safe node of
        height alpha with no patched node in between or to the least patched
        core nodes above z (the gates).  With no gate above z, the core's
        canonical safe node of height alpha above z settles it.  Otherwise the
        gates are searched first, in table order, and only then does the
        search climb through f from z: a child with no gate at or above it
        settles the level by the core's safe_above, and only children with a
        gate above them are climbed, so a 2-splitting core visits
        O(len(gates)) nodes.  Branches climb into disjoint cones and every
        gate is a row, so the search is finite; its stack is explicit, so a
        long chain of rows nests no calls.  Returns None when there is no
        safe node of height alpha above x, and otherwise the first such node
        the search reaches."""
        fam, core = self.family, self.core
        patched = [y for y in self.table if fam.height(y) < alpha and core.safe(y)]
        # an entry (z, None) visits z; (z, gates) climbs the core from z
        stack = [(x, None)]
        while stack:
            z, gates = stack.pop()
            if gates is not None:
                # checked first: when z reaches nothing, no child settles the
                # climb, which could then climb toward a gate at a limit
                # height forever
                climb = [] if core.safe_above(z, alpha) is None else [z]
                while climb:
                    for c in core.values(climb.pop()):
                        if c in gates:
                            continue
                        if any(fam.order(c, q) == "below" for q in gates):
                            climb.append(c)
                            continue
                        w = core.safe_above(c, alpha)
                        if w is not None:
                            return w
                continue
            if fam.height(z) == alpha:
                return z
            if z in self.table:
                stack.extend((c, None) for c in reversed(self.table[z]) if fam.is_child(z, c))
                continue
            if not core.safe(z):
                continue
            above = [y for y in patched if fam.order(z, y) == "below"]
            gates = [q for q in above if not any(fam.order(p, q) == "below" for p in above)]
            if not gates:
                w = core.safe_above(z, alpha)
                if w is not None:
                    return w
                continue
            stack.append((z, gates))
            stack.extend((q, None) for q in reversed(gates))
        return None

    def patched(self, rows: dict) -> CoverRule:
        return PatchedCover(self.core, {**self.table, **rows})


# --- safety queries -------------------------------------------------------------------

def is_safe(f: CoverRule, x) -> bool:
    """Safe means: every predecessor y of x has x above some member of f(y)."""
    return f.safe(x)


def find_safe_point(f: CoverRule, alpha: Ordinal):
    """The rule's witness of height alpha above the root, f.safe_above(root,
    alpha): a safe node, or None exactly when there is none, that is, when
    covers_within(f, alpha) holds.  The rule answers every level, level 0
    (the root) too, and the answer is always exact."""
    return f.safe_above(f.family.root(), alpha)


def covers_within(f: CoverRule, alpha: Ordinal) -> bool:
    """True iff the wedges of f below level alpha cover that whole level,
    which happens exactly when no safe point of height alpha exists.  It
    asks f.safe_above, the one level method; the rule answers level 0 too,
    where the root is safe, and the answer is always exact."""
    return f.safe_above(f.family.root(), alpha) is None


class SafeSubtree(CoverRule):
    """The set of safe points of a cover: downward closed, and its rule
    promises exactly f(x) at a safe node x."""

    def __init__(self, f: CoverRule):
        self.f = f
        self.family = f.family

    def safe(self, x) -> bool:
        return self.f.safe(x)

    def values(self, x) -> list:
        if not is_safe(self.f, x):
            return []
        return list(self.f.values(x))

    # a node is safe for the derived rule iff it is safe for f itself, so the
    # level question goes to f
    def safe_above(self, x, alpha: Ordinal):
        return self.f.safe_above(x, alpha)
