"""Generic tree interface over symbolic families and explicit finite trees.

Symbolic nodes are immutable values interpreted by a family object.  An
explicit tree is itself a family: a small in-memory tree whose nodes are
their string ids, used as a brute-force oracle.  A family has no stream of
a whole level: the wedge engine reaches levels through canonical extensions
and decides them exactly, so ``wedge.find_safe_point`` takes no budget.  The
``successors`` stream is a single-consumer generator that may be infinite;
each caller bounds what it draws.  The budgets live there:
``forcing.simulate_filter`` runs at most ``budget`` extension steps, and
``InjFamily`` decodes each range test within ``budget_range`` steps.
"""

from __future__ import annotations

from typing import Iterator

from .ordinal import Ordinal, add_ord, cmp_ord, from_nat


class TreeFamily:
    """Interface shared by the symbolic families and explicit trees."""

    def root(self):
        raise NotImplementedError

    def height(self, x) -> Ordinal:
        raise NotImplementedError

    def query(self, x, xi: Ordinal):
        raise NotImplementedError

    def restrict(self, x, beta: Ordinal):
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def successors(self, x) -> Iterator:
        raise NotImplementedError

    def canonical_extension(self, x, alpha: Ordinal):
        raise NotImplementedError


def tree_le(family: TreeFamily, x, y) -> str:
    """'below', 'equal', 'above' or 'incomparable' in the tree order."""
    c = cmp_ord(family.height(x), family.height(y))
    if c == 0:
        return "equal" if x == y else "incomparable"
    if c < 0:
        return "below" if family.restrict(y, family.height(x)) == x else "incomparable"
    return "above" if family.restrict(x, family.height(y)) == y else "incomparable"


def is_immediate_successor(family: TreeFamily, parent, child) -> bool:
    return (
        family.height(child) == add_ord(family.height(parent), from_nat(1))
        and family.restrict(child, family.height(parent)) == parent
    )


# --- explicit finite trees ----------------------------------------------------

class ExplicitTree(TreeFamily):
    """Finite tree with string node ids, ordered child lists and int depths.
    It is a tree family whose nodes are their ids; ``root`` needs a single
    root, so that levels are genuine tree levels.

    Text format: one node per line, ``id parent_id``; roots use ``-``.
    """

    def __init__(self):
        self.parent: dict[str, str | None] = {}
        self.children: dict[str, list[str]] = {}
        self.depth: dict[str, int] = {}

    def add(self, node: str, parent: str | None):
        if node in self.parent:
            raise ValueError(f"duplicate node {node!r}")
        if parent is not None and parent not in self.parent:
            raise ValueError(f"unknown parent {parent!r} for {node!r}")
        self.parent[node] = parent
        self.children[node] = []
        if parent is None:
            self.depth[node] = 0
        else:
            self.children[parent].append(node)
            self.depth[node] = self.depth[parent] + 1
        return self

    def tree_height(self) -> int:
        return 1 + max(self.depth.values()) if self.depth else 0

    def level_nodes(self, d: int) -> list[str]:
        """The nodes of depth d; a level past the tree's height is an error,
        not an empty level."""
        if not d < self.tree_height():
            raise ValueError(f"the tree has no level {d}: its height is {self.tree_height()}")
        return [x for x in self.parent if self.depth[x] == d]

    def ancestor_at(self, x: str, d: int) -> str:
        if d > self.depth[x]:
            raise ValueError(f"{x!r} has depth {self.depth[x]} < {d}")
        while self.depth[x] > d:
            x = self.parent[x]
        return x

    def root(self) -> str:
        roots = [x for x, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"a tree family needs one root, this tree has {len(roots)}")
        return roots[0]

    def height(self, x: str) -> Ordinal:
        return from_nat(self.depth[x])

    def query(self, x, xi):
        raise TypeError("explicit nodes do not denote sequences")

    def restrict(self, x: str, beta: Ordinal) -> str:
        return self.ancestor_at(x, beta.to_nat())

    def contains(self, x) -> bool:
        return isinstance(x, str) and x in self.parent

    def successors(self, x: str) -> Iterator[str]:
        return iter(self.children[x])

    def canonical_extension(self, x: str, alpha: Ordinal) -> str:
        d = alpha.to_nat()
        if d < self.depth[x]:
            raise ValueError("target height below node")
        while self.depth[x] < d:
            kids = self.children[x]
            if not kids:
                raise ValueError(f"no extension of {x!r} reaches depth {d}")
            x = kids[0]
        return x

    def le(self, x: str, y: str) -> bool:
        """x <= y in the tree order."""
        return self.depth[x] <= self.depth[y] and self.ancestor_at(y, self.depth[x]) == x

    @classmethod
    def from_text(cls, text: str) -> "ExplicitTree":
        tree = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"expected 'id parent_id', got {line!r}")
            node, parent = fields
            tree.add(node, None if parent == "-" else parent)
        return tree

    def to_text(self) -> str:
        return "\n".join(f"{x} {self.parent[x] or '-'}" for x in self.parent)

    @classmethod
    def complete(cls, arity: int, height: int) -> "ExplicitTree":
        """Complete ``arity``-splitting tree with levels 0..height-1; ids are
        the digit strings, root is 'r'."""
        tree = cls().add("r", None)
        frontier = ["r"]
        for _ in range(height - 1):
            nxt = []
            for x in frontier:
                for d in range(arity):
                    child = (x if x != "r" else "") + str(d)
                    tree.add(child, x)
                    nxt.append(child)
            frontier = nxt
        return tree


def branch_to_antichain(tree: ExplicitTree, chain: list[str]) -> set[str]:
    """For each node of the chain pick its first child outside the chain.

    The results are pairwise incomparable and there is one per chain node.
    Fails when some chain node has every child inside the chain.
    """
    members = set(chain)
    for x in chain:
        for y in chain:
            if not (tree.le(x, y) or tree.le(y, x)):
                raise ValueError(f"not a chain: {x!r} and {y!r} are incomparable")
    picks = set()
    for x in chain:
        candidates = [c for c in tree.children[x] if c not in members]
        if not candidates:
            raise ValueError(f"every child of {x!r} lies in the chain")
        picks.add(candidates[0])
    return picks
