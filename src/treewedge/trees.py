"""Generic tree interface over symbolic families and explicit finite trees.

Symbolic nodes are immutable values interpreted by a family object.  An
explicit tree is itself a family: a small in-memory tree whose nodes are
their string ids, used as a brute-force oracle.  Each family answers the
tree order, ``order(x, y)``, and immediate succession, ``is_child(parent,
child)``, as methods: the symbolic families keep the generic bodies, read
off heights and restrictions, and explicit trees answer both in ints.  A
family has no stream of a whole level: the wedge engine reaches levels
through canonical extensions and decides them exactly, so
``wedge.find_safe_point`` takes no budget.  The ``successors`` stream is a
single-consumer generator that may be infinite; each caller bounds what it
draws.  The one budget lives there: ``forcing.simulate_filter`` runs at
most ``budget`` extension steps.
"""

from __future__ import annotations

from typing import Iterator

from .ordinal import ONE, Ordinal, add_ord, cmp_ord, from_nat


class TreeFamily:
    """A tree family gives ``root()``, ``height(x)``, ``restrict(x, beta)``,
    the ``successors(x)`` stream and ``canonical_extension(x, alpha)``; the
    symbolic families also read a node's values (``query(x, xi)``) and test
    its normal form (``contains(x)``).  The order questions and ``step``
    are answered here from heights and restrictions; a family may answer
    them faster.  ``unrouted`` checks the routing law through ``step``."""

    def order(self, x, y) -> str:
        """'below', 'equal', 'above' or 'incomparable' in the tree order."""
        c = cmp_ord(self.height(x), self.height(y))
        if c == 0:
            return "equal" if x == y else "incomparable"
        if c < 0:
            return "below" if self.restrict(y, self.height(x)) == x else "incomparable"
        return "above" if self.restrict(x, self.height(y)) == y else "incomparable"

    def is_child(self, parent, child) -> bool:
        """Is child an immediate successor of parent?"""
        return (
            self.height(child) == add_ord(self.height(parent), from_nat(1))
            and self.restrict(child, self.height(parent)) == parent
        )

    def step(self, u, x):
        """The immediate successor of u on the way to x, or None unless u
        lies strictly below x.  Restriction composes, so the step is the
        (height(u)+1)-prefix s of x exactly when s's own height(u)-prefix
        is u; that second cut stays inside s's block."""
        hu = self.height(u)
        if not hu < self.height(x):
            return None
        s = self.restrict(x, add_ord(hu, ONE))
        return s if self.restrict(s, hu) == u else None

    def unrouted(self, table, x):
        """The routing law, stated once: the first key u of ``table`` strictly
        below x whose set misses ``step(u, x)``, or None.  Forcing
        conditions and patched covers both obey it."""
        step = self.step
        for u, succ in table.items():
            s = step(u, x)
            if s is not None and s not in succ:
                return u
        return None


# --- explicit finite trees ----------------------------------------------------

class ExplicitTree(TreeFamily):
    """Finite tree with string node ids, ordered child lists and int depths.
    It is a tree family whose nodes are their ids; ``root`` needs a single
    root, so that levels are genuine tree levels, and the order questions
    are answered on the int depths.

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

    def restrict(self, x: str, beta: Ordinal) -> str:
        return self.ancestor_at(x, beta.to_nat())

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

    def order(self, x: str, y: str) -> str:
        dx, dy = self.depth[x], self.depth[y]
        if dx == dy:
            return "equal" if x == y else "incomparable"
        if dx < dy:
            return "below" if self.ancestor_at(y, dx) == x else "incomparable"
        return "above" if self.ancestor_at(x, dy) == y else "incomparable"

    def is_child(self, parent: str, child: str) -> bool:
        return self.parent[child] == parent

    def step(self, u: str, x: str):
        if not self.depth[u] < self.depth[x]:
            return None
        s = self.ancestor_at(x, self.depth[u] + 1)
        return s if self.parent[s] == u else None

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
            if tree.order(x, y) == "incomparable":
                raise ValueError(f"not a chain: {x!r} and {y!r} are incomparable")
    picks = set()
    for x in chain:
        candidates = [c for c in tree.children[x] if c not in members]
        if not candidates:
            raise ValueError(f"every child of {x!r} lies in the chain")
        picks.add(candidates[0])
    return picks
