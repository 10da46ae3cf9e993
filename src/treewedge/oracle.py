"""Finite exhaustive oracle for the safe-point dynamic program.

On a finite explicit tree, every rule f with |f(x)| <= size_bound, or a
seeded sample of them, is checked against the wedge sets themselves: the
safe points of each level must be exactly its points outside every wedge
from below, and those wedges must cover every deeper point exactly when the
level has no safe point.  Rules are addressed by rank in a RuleSpace, and a
bit-sliced kernel checks a block of rules at a time, given as the bit
planes of each node's digit, with one int per node and one bit per rule.  The
module shares no code with the cover rules of ``wedge``, whose finite
shadow it checks by brute force.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .trees import ExplicitTree


class ExplosionGuard(RuntimeError):
    """Exhaustive enumeration would exceed the configured bound."""


# Rules per kernel block: the oracle's memory is bounded by the block, not by
# the sweep.
BLOCK = 2048


class RuleSpace:
    """The rules f with |f(x)| <= size_bound on a finite tree, addressed by
    rank.  The options of a node are its subsets of children, by size and
    then in combinations order; a rank is read in mixed radix over the
    nodes with children, in insertion order, the last node's option
    varying fastest, so range(size) lists the rules in product order.

    Nodes are numbered in insertion order.  A step table, built once per
    tree, holds for each node with children, in insertion order (parents
    first): its place value and radix in the rank, its depth and number,
    and for each option the numbers of the nodes in its wedge and of its
    children.  A step's digit in a rank is rank // place % radix.

    The kernel reads a block of n rules as bit planes, for each step the
    (radix - 1).bit_length() ints, lowest first, whose bit j is bit k of
    the j-th rule's digit: nothing is parsed from bytes, and no byte group
    or translation table is kept.  ``planes`` tiles the planes of
    consecutive ranks, ``draw`` draws uniform ones from an rng, and
    ``rank`` reads one rule's rank back off them.  Per plane of a step,
    no int they build or keep exceeds 6 * BLOCK bits (a draw's lane space:
    n bits per step of the radix), so a block's memory is O(BLOCK) bits
    per plane, whatever the size of the rank space.  A negative size bound
    raises ValueError."""

    def __init__(self, tree: ExplicitTree, size_bound: int):
        if size_bound < 0:
            raise ValueError(f"size_bound must not be negative, got {size_bound}")
        self.nodes = [x for x in tree.parent if tree.children[x]]
        self.options = [
            [frozenset(c) for size in range(size_bound + 1) for c in combinations(tree.children[x], size)]
            for x in self.nodes
        ]
        self.size = prod(len(opts) for opts in self.options)
        self.count = len(tree.parent)
        self.height = tree.tree_height()
        number = {x: i for i, x in enumerate(tree.parent)}
        self._roots = [number[x] for x, p in tree.parent.items() if p is None]
        self._steps = []  # (place value, radix, depth, number, members, kids) of each node with children
        self._lanes = {}  # radix: the indices of its steps, which draw together
        self._tiles = {}  # step index: its planes over ranks 0, 1, ..., when its period is below a block
        place = self.size
        for x, opts, wedges in zip(self.nodes, self.options, self.wedge_masks(_cone_masks(tree))):
            radix = len(opts)
            place //= radix
            # bin(w) backward, less its "0b": bit i of w is character i
            members = [[i for i, b in enumerate(bin(w)[:1:-1]) if b == "1"] for w in wedges]
            kids = [[number[c] for c in option] for option in opts]
            period = place * radix
            if period < BLOCK:  # one period of each plane, doubled until any block fits
                self._tiles[len(self._steps)] = [
                    _repeat(_runs(place << k, 0, period), period, period + BLOCK)
                    for k in range((radix - 1).bit_length())
                ]
            self._lanes.setdefault(radix, []).append(len(self._steps))
            self._steps.append((place, radix, tree.depth[x], number[x], members, kids))

    def digits(self, rank: int) -> list:
        """The option index of every node under the rule of this rank."""
        return [rank // place % radix for place, radix, *_ in self._steps]

    def rule(self, digits: list) -> dict:
        return {x: opts[k] for x, opts, k in zip(self.nodes, self.options, digits)}

    def planes(self, start: int, n: int) -> list:
        """The planes of the ranks range(start, start + n).  Bit k of a
        step's digit runs in runs of place << k ranks, 0s then 1s, and
        starts over where the digit wraps to 0, every place * radix ranks.
        A shorter period than a block is cut out of the step's tiles; a
        longer one wraps at most once in the block, so each plane is two
        stretches of runs."""
        full = (1 << n) - 1
        out = []
        for s, (place, radix, *_) in enumerate(self._steps):
            offset = start % (place * radix)
            if s in self._tiles:
                out.append([tile >> offset & full for tile in self._tiles[s]])
                continue
            head = min(n, place * radix - offset)  # the ranks before the wrap
            out.append([
                _runs(place << k, offset, head) | _runs(place << k, 0, n - head) << head
                for k in range((radix - 1).bit_length())
            ])
        return out

    def draw(self, rng, n: int) -> list:
        """The planes of n rules drawn independently and uniformly from
        the space.  The steps of one radix r share a lane space of n bits
        per step and draw its (r - 1).bit_length() planes with
        rng.getrandbits; the lanes whose digit is r or more draw again,
        all at once, until none is left.  Each lane keeps the first draw
        below r of an iid uniform sequence, which is uniform below r and
        independent of every other lane, and digits map one-to-one onto
        ranks.  A power-of-two radix never draws again; radix 1 has no
        planes and draws nothing."""
        full = (1 << n) - 1
        out = [None] * len(self._steps)
        for radix, steps in self._lanes.items():
            width = n * len(steps)
            lanes = [rng.getrandbits(width) for _ in range((radix - 1).bit_length())]
            todo = _at_least(lanes, radix)
            while todo:
                for k, fresh in enumerate([rng.getrandbits(width) for _ in lanes]):
                    lanes[k] ^= (lanes[k] ^ fresh) & todo
                todo = _at_least(lanes, radix)
            for t, s in enumerate(steps):
                out[s] = [plane >> t * n & full for plane in lanes]
        return out

    def rank(self, planes: list, j: int) -> int:
        """The rank of the j-th rule of these planes."""
        return sum(
            place * sum((plane >> j & 1) << k for k, plane in enumerate(step))
            for (place, *_), step in zip(self._steps, planes)
        )

    def wedge_masks(self, cone: dict) -> list:
        """W[i][k] = cone[y] minus the cones over option k of y = nodes[i]:
        the wedge of y under that option, as a bitmask over ``cone``'s bits."""
        table = []
        for y, opts in zip(self.nodes, self.options):
            row = []
            for option in opts:
                excluded = 0
                for z in option:
                    excluded |= cone[z]
                row.append(cone[y] & ~excluded)
            table.append(row)
        return table

    def block_masks(self, planes: list, n: int) -> tuple[list, list]:
        """(safe, cover) for a block of n rules given by their planes,
        bit-sliced: bit j of every mask stands for the j-th rule.  safe[i]
        holds the rules under which node i is safe, and cover[d][i] those
        under which node i lies in the wedge of some node of depth d.

        One top-down pass over the step table makes one update per option,
        not per rule.  The rules whose digit at node y is k are one int,
        the AND over the bits of k of y's plane of that bit, or of its
        complement where k has the bit clear, built as one tree of ANDs
        over y's planes.  Under them, option k's wedge joins the cover of
        y's depth, and its children join safe where y is safe: a child is
        safe iff its parent is safe and promises it."""
        safe = [0] * self.count
        cover = [[0] * self.count for _ in range(self.height)]
        if not n:
            return safe, cover
        full = (1 << n) - 1
        for i in self._roots:
            safe[i] = full
        for (_, radix, depth, i, wedges, kids), step in zip(self._steps, planes):
            # lowest plane first: after plane k, with_digit[d] holds the rules
            # whose digit agrees with d in bits 0..k, for every d below both
            # the radix and 2 ** (k + 1)
            with_digit = [full]
            for ones in step:
                zeros = full ^ ones
                with_digit = [m & zeros for m in with_digit] + [m & ones for m in with_digit[:radix - len(with_digit)]]
            row, s = cover[depth], safe[i]
            for rules_k, wedge, option_kids in zip(with_digit, wedges, kids):
                for z in wedge:
                    row[z] |= rules_k
                for c in option_kids:
                    safe[c] |= s & rules_k
        return safe, cover


def _runs(run: int, phase: int, n: int) -> int:
    """The n-bit int whose bit t is (phase + t) // run % 2: runs of ``run``
    0s then ``run`` 1s, read from ``phase`` on.  A run at least n long
    leaves at most one run of 1s in the window, built at once."""
    phase %= 2 * run
    if run >= n:
        lo, hi = max(run, phase), min(2 * run, phase + n)
        return ((1 << hi - lo) - 1) << lo - phase if hi > lo else 0
    return _repeat(((1 << run) - 1) << run, 2 * run, phase + n) >> phase & (1 << n) - 1


def _repeat(pattern: int, length: int, at_least: int) -> int:
    """``pattern``, ``length`` bits long, doubled until it is at least
    ``at_least`` bits long."""
    while length < at_least:
        pattern |= pattern << length
        length *= 2
    return pattern


def _at_least(planes: list, radix: int) -> int:
    """The lanes whose digit, bit k of it in planes[k], is at least
    ``radix``, compared from the highest bit down: ``above`` holds the
    lanes already greater, ``equal`` those that agree so far."""
    if radix >> len(planes):  # every digit of these planes is below it
        return 0
    above, equal = 0, -1
    for k in reversed(range(len(planes))):
        if radix >> k & 1:
            equal &= planes[k]
        else:
            above |= equal & planes[k]
            equal &= ~planes[k]
    return above | equal


def _cone_masks(tree: ExplicitTree) -> dict:
    """cone[x]: x and every node above it, as an int bitmask whose bit i is
    the i-th node in insertion order."""
    cone = {}
    for i, x in reversed(list(enumerate(tree.parent))):  # insertion order puts every parent before its children
        cone[x] = 1 << i
        for c in tree.children[x]:
            cone[x] |= cone[c]
    return cone


def lindelof_oracle(
    tree: ExplicitTree,
    size_bound: int = 2,
    max_covers: int = 10**6,
    sample: int | None = None,
    rng=None,
) -> dict:
    """Check, for every bounded rule f on a finite tree, the safe-point DP
    against the wedge sets W(y) = cone(y) minus the cones over f(y), built as
    int bitmasks.  At each level a, with U the union of W(y) over
    every y of depth < a:

    * level phrasing: the safe nodes of level a are exactly its nodes
      outside U (no wedge from strictly below covers a safe point);
    * whole-tree phrasing: U covers every node of depth >= a exactly when
      level a has no safe node.

    Rules are checked BLOCK at a time, as the planes of a RuleSpace:
    RuleSpace.block_masks gives the block's safe and cover masks with one
    bit per rule, both phrasings become XOR/AND/OR over those ints, and the
    first failing rule is the lowest failing bit.  Only that rule's rank is
    read back off the planes, and only it is built and formatted.  The
    sweep stops there, and ``covers_checked`` counts the rules up to and
    including it.  Raises ExplosionGuard when the rule space exceeds
    ``max_covers``, unless a ``sample`` size (with ``rng``, a random.Random)
    asks for a seeded sweep instead: RuleSpace.draw draws each block's
    planes, so sampled rules are exactly uniform over the space.  The rng
    advances by whole blocks, also past a failing rule.  Raises ValueError,
    before any rule is built or drawn, for a negative size bound, a
    negative sample or a sample without an rng.
    """
    if sample is not None:
        if sample < 0:
            raise ValueError(f"sample must not be negative, got {sample}")
        if rng is None:
            raise ValueError("a sampled sweep needs an rng")
    rules = RuleSpace(tree, size_bound)
    space = rules.size
    sampled = space > max_covers
    if sampled and sample is None:
        raise ExplosionGuard(f"{space} rules exceed the bound {max_covers}")
    total = sample if sampled else space

    number = {x: i for i, x in enumerate(tree.parent)}
    levels = [[number[x] for x in tree.level_nodes(a)] for a in range(rules.height)]
    # deep[a]: every node of depth >= a
    deep = [sum(levels[a:], []) for a in range(rules.height)]

    checked = 0
    counterexamples = []
    for start in range(0, total, BLOCK):
        n = min(BLOCK, total - start)
        planes = rules.draw(rng, n) if sampled else rules.planes(start, n)
        safe, cover = rules.block_masks(planes, n)
        full = (1 << n) - 1
        covered = [0] * rules.count  # covered[z]: the rules under which U holds z
        failures = []  # per level: the rules failing each phrasing
        for a in range(rules.height):
            any_safe = wrong = 0
            for z in levels[a]:
                any_safe |= safe[z]
                wrong |= ~(safe[z] ^ covered[z])  # safe exactly when outside U
            all_covered = full
            for z in deep[a]:
                all_covered &= covered[z]
            failures.append((wrong & full, ~(all_covered ^ any_safe) & full))
            for z, rules_z in enumerate(cover[a]):
                covered[z] |= rules_z
        failing = 0
        for bad in failures:
            failing |= bad[0] | bad[1]
        if not failing:
            checked += n
            continue
        j = (failing & -failing).bit_length() - 1
        checked += j + 1
        shown = _show(rules.rule(rules.digits(rules.rank(planes, j))))
        counterexamples = [
            {"cover": shown, "kind": kind, "level": a}
            for a, bad in enumerate(failures)
            for kind, mask in zip(("level", "whole-tree"), bad)
            if mask >> j & 1
        ]
        break
    return {
        "covers_checked": checked,
        "space": space,
        "sampled": sampled,
        "counterexamples": counterexamples,
    }


def _show(fmap: dict) -> str:
    return "; ".join(f"{x}=>{{{','.join(sorted(s))}}}" for x, s in sorted(fmap.items()) if s)
