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
all in one CoverRule hierarchy: the subtree rules (SubtreeCover and its
subtrees: the binary tree inside the digit tree, its truncations, finite
explicit subtrees, and the safe set of another rule) and finite patches of
a subtree rule (PatchedCover), which are the one rule for finite overrides:
a finite table over an explicit tree is the patch of the root-only subtree.
A rule answers three questions, each exactly: values(x) is f(x);
safe(x) is whether x is safe, which for a subtree rule is whether x is in
the subtree; and safe_above(x, alpha), the one level method, is a safe node
of height alpha above the safe node x, or None exactly when there is none.
patched(rows) builds the patched rule.  The witness is defined once per
rule: a subtree gives its canonical node, and a patch the core's canonical
node if that is safe, otherwise the first node its row search reaches.  A
level an explicit tree does not have is an error, as a limit level is.
"""

from __future__ import annotations

from .families import DigitFamily, DigitNode
from .ordinal import Ordinal, add_ord, classify, from_nat, pred
from .trees import ExplicitTree, TreeFamily

# the benchmark's tracer (perfbench/tracing.py) wraps the oracle under this name
from .oracle import lindelof_oracle  # noqa: F401


class CoverUndecided(RuntimeError):
    """An undecided cover question.  No rule raises it: every level answer is
    exact.  It stays because the benchmark's tracer (perfbench/tracing.py)
    tests each covers_within call for it."""


# --- cover rules -------------------------------------------------------------------

class CoverRule:
    family: TreeFamily

    def values(self, x) -> list:
        """f(x): the finite successor set the rule assigns to x."""
        raise NotImplementedError

    def safe(self, x) -> bool:
        """Whether every step of x is in the rule: for each b < height(x),
        the (b+1)-prefix of x is in f(b-prefix).  The safe nodes are
        downward closed."""
        raise NotImplementedError

    def safe_above(self, x, alpha: Ordinal):
        """The rule's canonical node of height alpha above the safe node x, of
        height <= alpha, that is safe for the rule, or None exactly when there
        is none."""
        raise NotImplementedError

    def patched(self, rows: dict) -> CoverRule:
        """The rule with f(x) replaced by rows[x] for every x in rows."""
        raise NotImplementedError


class SubtreeCover(CoverRule):
    """The rule of a downward-closed subtree S: f(x) = the immediate
    successors of x inside S, and empty outside S, so x is safe exactly when
    it is in S.  Each subclass is one subtree: it gives f, membership and a
    canonical safe node above each safe node."""

    def patched(self, rows: dict) -> CoverRule:
        return PatchedCover(self, rows)


class BinaryInsideDigits(SubtreeCover):
    """The binary family embedded in the digit family: a node is safe
    exactly when every digit is a bit, read off the finite descriptor."""

    def __init__(self, digits: DigitFamily):
        self.digits = digits
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
        return self.digits.canonical_extension(x, alpha)


class TruncatedSubtree(SubtreeCover):
    """The inner subtree cut to height ``h`` (members of height < h)."""

    def __init__(self, inner: SubtreeCover, h: Ordinal):
        self.inner = inner
        self.h = h
        self.family = inner.family

    def _onset(self) -> Ordinal:
        """Least b whose (b+1)-prefix is too tall for the truncation."""
        if classify(self.h) == "successor":
            return pred(self.h)
        return self.h

    def safe(self, x) -> bool:
        return not self._onset() < self.family.height(x) and self.inner.safe(x)

    def values(self, x) -> list:
        return self.inner.values(x) if self.family.height(x) < self._onset() else []

    # a level past the onset is covered; at a limit cut the level h itself
    # still has safe points, since every tested prefix sits strictly below h
    def safe_above(self, x, alpha: Ordinal):
        return None if self._onset() < alpha else self.inner.safe_above(x, alpha)


class ExplicitSubtree(SubtreeCover):
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
            if y in self.members and tree.order(x, y) in ("below", "equal"):
                return y
        return None


class PatchedCover(CoverRule):
    """A subtree rule overridden on finitely many nodes; a table over an
    explicit tree is the patch of its root-only subtree.  Patching again
    merges the rows into one table, outer rows winning, so the rule is
    always one layer over its core.  Safety stays exactly decidable: an
    unpatched node outside the core routes no step, so a safe node outside
    the core hangs from a core node by a finite chain of rows, each listing
    the next, and the rows below that core node must route it.  Levels are
    decidable too: a safe node leaves the core only through patched nodes,
    so one search over the rows above a safe node decides the level there.
    The witness has two stages: the core's canonical node if it is safe for
    the patch, otherwise the first node the search reaches."""

    def __init__(self, core: SubtreeCover, table: dict):
        if not isinstance(core, SubtreeCover):
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
        h = fam.height(x)
        return all(
            fam.restrict(x, add_ord(fam.height(y), from_nat(1))) in succ
            for y, succ in self.table.items()
            if fam.height(y) < h and fam.order(y, x) == "below"
        )

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
                    blocked = []
                    for c in core.values(climb.pop()):
                        if c in gates:
                            continue
                        if any(fam.order(c, q) == "below" for q in gates):
                            blocked.append(c)
                            continue
                        w = core.safe_above(c, alpha)
                        if w is not None:
                            return w
                    climb.extend(blocked)
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
    covers_within(f, alpha) holds.  The answer is always exact."""
    root = f.family.root()
    return root if alpha.is_zero() else f.safe_above(root, alpha)


def covers_within(f: CoverRule, alpha: Ordinal) -> bool:
    """True iff the wedges of f below level alpha cover that whole level,
    which happens exactly when no safe point of height alpha exists; the
    root is always safe.  It asks f.safe_above, the one level method, and
    the answer is always exact."""
    return not alpha.is_zero() and f.safe_above(f.family.root(), alpha) is None


class SafeSubtree(SubtreeCover):
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
