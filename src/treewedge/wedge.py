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
explicit subtrees and the safe set of another rule), finite patches of a
subtree rule (PatchedCover), and finite tables over explicit trees
(TableCover).  Each decides safety exactly, and each decides its levels
exactly: a subtree by its canonical witness, a table by scanning the finite
level, a patch by a finite search over its rows, which also gives the safe
node find_safe_point answers.  The one rule that cannot say whether it
reaches a level above a node other than the root is the safe set of another
rule; used as a patch core, which no literal builds, it raises
CoverUndecided.  A level an explicit tree does not have is an error, as a
limit level is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import DigitFamily, DigitNode
from .ordinal import Ordinal, ZERO, add_ord, classify, from_nat, pred
from .trees import ExplicitTree, TreeFamily, is_immediate_successor, tree_le

# the benchmark's tracer (perfbench/tracing.py) wraps the oracle under this name
from .oracle import lindelof_oracle  # noqa: F401


class CoverUndecided(RuntimeError):
    """The cover question cannot be decided for the rule's structure: only a
    patch over the safe set of another rule raises it."""


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

    def witness_candidates(self, alpha: Ordinal):
        """Nodes of height alpha > 0 that find_safe_point tests, in order,
        as an iterable; some candidate is safe unless the level is covered."""
        raise NotImplementedError

    def covers_within(self, alpha: Ordinal) -> bool:
        """Whether the wedges below level alpha > 0 cover it."""
        raise NotImplementedError

    def patched(self, rows: dict) -> CoverRule:
        """The rule with f(x) replaced by rows[x] for every x in rows."""
        raise NotImplementedError


class SubtreeCover(CoverRule):
    """The rule of a downward-closed subtree S: f(x) = the immediate
    successors of x inside S, so first_violation(x) is the least height b
    whose (b+1)-prefix of x leaves S.  Each subclass is one subtree: it
    decides membership, f and the first violation, and gives a canonical
    safe node above each safe node, from which the level questions follow."""

    def contains(self, x) -> bool:
        raise NotImplementedError

    def safe_above(self, x, alpha: Ordinal):
        """A canonical node of height alpha above the safe node x, of height
        <= alpha, that is safe for the rule, or None when there is none."""
        raise NotImplementedError

    def reaches(self, x, alpha: Ordinal) -> bool:
        """Whether some safe node of height alpha lies above the safe node x,
        of height <= alpha."""
        return self.safe_above(x, alpha) is not None

    def reaches_avoiding(self, x, gates: list, alpha: Ordinal):
        """A child of x in f, or of a node climbed from x, above which some
        safe node of height alpha lies with no gate strictly below it; None
        when there is no such safe node.  The gates are a finite antichain of
        safe nodes strictly above x, below height alpha.  The walk climbs
        through f from x: a child with no gate at or above it settles the
        question by ``reaches`` and is returned, and only children with a
        gate above them are climbed, so a 2-splitting subtree visits
        O(len(gates)) nodes."""
        # checked first: when x reaches nothing, no child settles the walk,
        # which could then climb toward a gate at a limit height forever
        if not self.reaches(x, alpha):
            return None
        fam = self.family
        stack = [x]
        while stack:
            blocked = []
            for c in self.values(stack.pop()):
                if c in gates:
                    continue
                if any(tree_le(fam, c, q) == "below" for q in gates):
                    blocked.append(c)
                elif self.reaches(c, alpha):
                    return c
            stack.extend(blocked)
        return None

    def witness_candidates(self, alpha: Ordinal) -> list:
        w = self.safe_above(self.family.root(), alpha)
        return [w] if w is not None else []

    def covers_within(self, alpha: Ordinal) -> bool:
        return self.safe_above(self.family.root(), alpha) is None

    def patched(self, rows: dict) -> CoverRule:
        return PatchedCover(self, rows)


class BinaryInsideDigits(SubtreeCover):
    """The binary family embedded in the digit family: membership is simply
    'every digit is a bit', read off the finite descriptor."""

    def __init__(self, digits: DigitFamily):
        self.digits = digits
        self.family = digits

    def contains(self, x) -> bool:
        return isinstance(x, DigitNode) and self.first_violation(x) is None

    def first_violation(self, x: DigitNode) -> Ordinal | None:
        bad = []
        base_h = ZERO if x.base is None else x.base.height
        for p, d in x.patch:
            if d > 1:
                bad.append(p)
        for i, d in enumerate(x.trail):
            if d > 1:
                bad.append(add_ord(base_h, from_nat(i)))
        return min(bad) if bad else None

    def values(self, x) -> list:
        if not self.contains(x):
            return []
        return [DigitNode(x.base, x.patch, x.trail + (b,)) for b in (0, 1)]

    def safe_above(self, x: DigitNode, alpha: Ordinal) -> DigitNode:
        # zero digits and bit stems: the canonical extension of a binary node
        # stays binary
        return self.digits.canonical_extension(x, alpha)

    def reaches(self, x, alpha: Ordinal) -> bool:
        return True  # every binary node extends to every height


class TruncatedSubtree(SubtreeCover):
    """The inner subtree cut to height ``h`` (members of height < h)."""

    def __init__(self, inner: SubtreeCover, h: Ordinal):
        self.inner = inner
        self.h = h
        self.family = inner.family

    def contains(self, x) -> bool:
        return self.family.height(x) < self.h and self.inner.contains(x)

    def _onset(self) -> Ordinal:
        """Least b whose (b+1)-prefix is too tall for the truncation."""
        if classify(self.h) == "successor":
            return pred(self.h)
        return self.h

    def first_violation(self, x) -> Ordinal | None:
        bad = self.inner.first_violation(x)
        cut = self._onset()
        hx = self.family.height(x)
        if not hx < add_ord(cut, from_nat(1)):  # some prefix of x is too tall
            bad = cut if bad is None or cut < bad else bad
        return bad

    def values(self, x) -> list:
        up = add_ord(self.family.height(x), from_nat(1))
        if not up < self.h:
            return []
        return self.inner.values(x)

    def _has_level(self, alpha: Ordinal) -> bool:
        # at a limit truncation height the level itself still has safe points:
        # every tested prefix sits strictly below h
        return alpha < self.h or (alpha == self.h and classify(self.h) == "limit")

    def safe_above(self, x, alpha: Ordinal):
        return self.inner.safe_above(x, alpha) if self._has_level(alpha) else None

    def reaches(self, x, alpha: Ordinal) -> bool:
        return self._has_level(alpha) and self.inner.reaches(x, alpha)


class ExplicitSubtree(SubtreeCover):
    """Finite set of explicit-tree nodes, checked to be downward closed."""

    def __init__(self, family: ExplicitTree, members):
        self.family = family
        self.members = frozenset(members)
        for x in self.members:
            p = family.parent[x]
            if p is not None and p not in self.members:
                raise ValueError(f"not downward closed: {x!r} without {p!r}")

    def contains(self, x) -> bool:
        return x in self.members

    def first_violation(self, x) -> Ordinal | None:
        tree = self.family
        for b in range(tree.depth[x]):
            if tree.ancestor_at(x, b + 1) not in self.members:
                return from_nat(b)
        return None

    def values(self, x) -> list:
        return [c for c in self.family.children[x] if c in self.members]

    def safe_above(self, x, alpha: Ordinal):
        tree = self.family
        for y in tree.level_nodes(alpha.to_nat()):
            if self.first_violation(y) is None and tree.le(x, y):
                return y
        return None


class TableCover(CoverRule):
    """Explicit finite assignment over an explicit tree; nodes missing from
    the table get the empty set.  Levels are finite, so this is the one rule
    that decides a level by scanning it."""

    def __init__(self, family: ExplicitTree, table: dict):
        self.family = family
        for x, succ in table.items():
            for z in succ:
                if family.parent[z] != x:
                    raise ValueError(f"{z!r} is not an immediate successor of {x!r}")
        self.table = {x: frozenset(s) for x, s in table.items()}

    def values(self, x) -> list:
        return sorted(self.table.get(x, frozenset()))

    def first_violation(self, x) -> Ordinal | None:
        tree = self.family
        for b in range(tree.depth[x]):
            if tree.ancestor_at(x, b + 1) not in self.table.get(tree.ancestor_at(x, b), ()):
                return from_nat(b)
        return None

    def witness_candidates(self, alpha: Ordinal) -> list:
        return self.family.level_nodes(alpha.to_nat())

    def covers_within(self, alpha: Ordinal) -> bool:
        return all(not is_safe(self, x) for x in self.family.level_nodes(alpha.to_nat()))

    def patched(self, rows: dict) -> CoverRule:
        return TableCover(self.family, {**self.table, **rows})


class PatchedCover(CoverRule):
    """A subtree rule overridden on finitely many nodes.  Patching again
    merges the rows into one table, outer rows winning, so the rule is
    always one layer over its core.  Safety stays exactly decidable: the
    core's violations form an upward-closed set, and only finitely many
    steps are patched.  Levels are decidable too: a safe node leaves the
    core only through patched nodes, so one search over the rows decides
    the level and gives find_safe_point its last candidate."""

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

    def first_violation(self, x) -> Ordinal | None:
        fam = self.family
        patched = {}
        best = None
        for y, succ in self.table.items():
            if tree_le(fam, y, x) != "below":
                continue
            b = fam.height(y)
            patched[b] = True
            step = fam.restrict(x, add_ord(b, from_nat(1)))
            if step not in succ and (best is None or b < best):
                best = b
        onset = self.core.first_violation(x)
        if onset is not None:
            hx = fam.height(x)
            b = onset
            while b < hx:
                if b not in patched:
                    if best is None or b < best:
                        best = b
                    break
                b = add_ord(b, from_nat(1))
        return best

    def witness_candidates(self, alpha: Ordinal):
        # lazy, so that find_safe_point stops at the first safe candidate
        # before the search runs
        yield from self.core.witness_candidates(alpha)
        yield from self._threaded_candidates(alpha)
        # a node of height alpha that the search reaches through the rows is
        # a safe threaded candidate, so the search gets here only when it
        # settles below alpha, in the core
        settled = self._search(alpha)
        if settled is not None:
            yield self.core.safe_above(settled, alpha)

    def _threaded_candidates(self, alpha: Ordinal):
        """Candidates routed through the allowed successors of patched nodes."""
        fam = self.family
        for y, succ in self.table.items():
            if not fam.height(y) < alpha:
                continue
            for z in succ:
                if not alpha < fam.height(z):
                    try:
                        yield fam.canonical_extension(z, alpha)
                    except ValueError:
                        continue

    def _search(self, alpha: Ordinal):
        """Exact search for a safe node of height alpha, from the root up.
        A safe node z below alpha goes on as follows: if z is patched, through
        the rows of z that are its immediate successors (no other member
        routes a step); if z is unpatched and outside the core, nowhere;
        otherwise through the core, to a safe node of height alpha with no
        patched node in between (the core's reaches_avoiding) or to the
        least patched core nodes above z (the gates).  Branches climb into
        disjoint cones and every gate is a row, so the search is finite.
        Returns None when there is no safe node of height alpha; otherwise
        either such a node, reached through the rows, or the core node where
        reaches_avoiding settles, above which the core's canonical safe node
        of height alpha is safe for the patch too."""
        fam, core = self.family, self.core
        patched = [y for y in self.table if fam.height(y) < alpha]
        stack = [fam.root()]
        while stack:
            z = stack.pop()
            if fam.height(z) == alpha:
                return z
            if z in self.table:
                stack.extend(c for c in self.table[z] if is_immediate_successor(fam, z, c))
                continue
            if core.first_violation(z) is not None:
                continue
            above = [y for y in patched if tree_le(fam, z, y) == "below" and core.first_violation(y) is None]
            gates = [q for q in above if not any(tree_le(fam, p, q) == "below" for p in above)]
            settled = core.reaches_avoiding(z, gates, alpha)
            if settled is not None:
                return settled
            stack.extend(gates)
        return None

    def covers_within(self, alpha: Ordinal) -> bool:
        return self._search(alpha) is None

    def patched(self, rows: dict) -> CoverRule:
        return PatchedCover(self.core, {**self.table, **rows})


# --- safety queries -------------------------------------------------------------------

def is_safe(f: CoverRule, x) -> bool:
    """Safe means: every predecessor y of x has x above some member of f(y)."""
    return f.first_violation(x) is None


def find_safe_point(f: CoverRule, alpha: Ordinal):
    """A safe node of height alpha, or None exactly when there is none, that
    is, when covers_within(f, alpha) holds.  Subtree rules return their
    canonical witness, tables the first safe node of the level, and patches
    the first safe one of the core witness, the nodes threaded through their
    rows and the node their level search settles on.  Raises CoverUndecided
    where covers_within does."""
    if alpha.is_zero():
        return f.family.root()
    for x in f.witness_candidates(alpha):
        if is_safe(f, x):
            return x
    return None


def covers_within(f: CoverRule, alpha: Ordinal) -> bool:
    """True iff the wedges of f below level alpha cover that whole level,
    which happens exactly when no safe point of height alpha exists.  Every
    rule a literal builds decides this exactly; CoverUndecided is left for a
    patch over the safe set of another rule."""
    if alpha.is_zero():
        return False  # the root is always safe
    return f.covers_within(alpha)


class SafeSubtree(SubtreeCover):
    """The set of safe points of a cover: downward closed, and its rule
    promises exactly f(x) at a safe node x."""

    def __init__(self, f: CoverRule):
        self.f = f
        self.family = f.family

    def contains(self, x) -> bool:
        return is_safe(self.f, x)

    def first_violation(self, x) -> Ordinal | None:
        return self.f.first_violation(x)

    def values(self, x) -> list:
        if not is_safe(self.f, x):
            return []
        return list(self.f.values(x))

    # a node is safe for the derived rule iff it is safe for f itself, so
    # both level questions go to f; above any other node it cannot say
    def safe_above(self, x, alpha: Ordinal):
        if x != self.family.root():
            raise CoverUndecided("the safe set of a rule cannot say which levels it reaches above a node")
        return find_safe_point(self.f, alpha)

    def covers_within(self, alpha: Ordinal) -> bool:
        return covers_within(self.f, alpha)
