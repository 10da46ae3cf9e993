"""Finite exhaustive oracle for the safe-point dynamic program.

On a finite explicit tree, every rule f with |f(x)| <= size_bound, or a
seeded sample of them, is checked against the wedge sets themselves: the
safe points of each level must be exactly its points outside every wedge
from below, and those wedges must cover every deeper point exactly when the
level has no safe point.  Rules are addressed by rank in a RuleSpace, and a
bit-sliced kernel checks a block of rules at a time, given as one byte
column per digit group, with one int per node and one bit per rule.  The
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
    children.  The steps are cut into groups, runs whose radices multiply
    to at most 256, so that a group's number, rank // (its last step's
    place) % (the product of its radices), fits a byte; a lone step with
    more options than byte values is a group of its own.

    The kernel reads a block of rules as columns, one per group, holding
    each rule's group number: bytes, or a list of ints for a lone wide
    step.  Each step of a byte group keeps one translation table per bit
    plane of its digit, ceil(log2 radix) of them, and the kernel parses
    one int per plane and forms the rules of each option by AND, so a
    radix-7 step parses 3 ints per block, not 7.  ``columns`` tiles the
    columns of consecutive ranks, ``draw`` draws uniform ones from an rng,
    and ``rank`` reads one rule's rank back off them.  A negative size
    bound raises ValueError."""

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
        groups = []  # [place value, radix, steps] of each group
        place = self.size
        for x, opts, wedges in zip(self.nodes, self.options, self.wedge_masks(_cone_masks(tree))):
            radix = len(opts)
            place //= radix
            if not groups or groups[-1][1] * radix > 256:
                groups.append([place, 1, []])
            group = groups[-1]
            group[0], group[1] = place, group[1] * radix
            # bin(w) backward, less its "0b": bit i of w is character i
            members = [[i for i, b in enumerate(bin(w)[:1:-1]) if b == "1"] for w in wedges]
            kids = [[number[c] for c in option] for option in opts]
            group[2].append((place, radix, tree.depth[x], number[x], members, kids))
        # each step's tables translate its group's number to the bit planes
        # of its digit, and each byte group's tables turn random bytes into
        # its numbers; a lone step with more options than byte values has none
        self._groups = []  # (place value, radix, steps, reject, reduce) of each group
        for place, radix, steps in groups:
            wide = radix > 256
            steps = [(*step, None if wide else _digit_tables(step[0] // place, step[1])) for step in steps]
            reject, reduce = (None, None) if wide else _byte_tables(radix)
            self._groups.append((place, radix, steps, reject, reduce))

    def digits(self, rank: int) -> list:
        """The option index of every node under the rule of this rank."""
        return [rank // place % radix for _, _, steps, *_ in self._groups for place, radix, *_ in steps]

    def rule(self, digits: list) -> dict:
        return {x: opts[k] for x, opts, k in zip(self.nodes, self.options, digits)}

    def columns(self, start: int, n: int) -> list:
        """The columns of the ranks range(start, start + n).  A group's
        numbers run in runs of its place value, counting up mod its radix,
        so each column is one head run, then whole runs tiled by the
        period, with no arithmetic per rank."""
        columns = []
        for place, radix, *_ in self._groups:
            cell = bytes if radix <= 256 else list
            first, skip = divmod(start, place)
            head = min(n, place - skip)
            rest = n - head
            column = cell([first % radix]) * head
            if rest:
                period = cell()
                for v in range(1, min(radix, -(-rest // place)) + 1):
                    period += cell([(first + v) % radix]) * min(place, rest)
                column += (period * -(-rest // len(period)))[:rest]
            columns.append(column)
        return columns

    def draw(self, rng, n: int) -> list:
        """The columns of n rules drawn independently and uniformly from
        the space: each group's numbers are exactly uniform and independent,
        and they map one-to-one onto ranks.  A wide column draws
        rng.randrange(radix) per rule."""
        return [
            [rng.randrange(radix) for _ in range(n)] if reduce is None else _uniform_bytes(rng, n, reject, reduce)
            for _, radix, _, reject, reduce in self._groups
        ]

    def rank(self, columns: list, j: int) -> int:
        """The rank of the j-th rule of these columns."""
        return sum(column[j] * place for (place, *_), column in zip(self._groups, columns))

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

    def block_masks(self, columns: list, n: int) -> tuple[list, list]:
        """(safe, cover) for a block of n rules given by their columns,
        bit-sliced: bit j of every mask stands for the j-th rule.  safe[i]
        holds the rules under which node i is safe, and cover[d][i] those
        under which node i lies in the wedge of some node of depth d.

        One top-down pass over the step table makes one update per option,
        not per rule.  The rules whose digit at node y is k are one int:
        each bit plane of y's digit, the rules whose digit has bit j set,
        is read off the column of y's group by a translation table, so a
        step of radix r parses ceil(log2 r) ints, and the rules with digit
        k are the AND, over the bits j of k, of plane j where k has bit j
        and of its complement where it has not.  Under them, option k's
        wedge joins the cover of y's depth, and its children join safe
        where y is safe: a child is safe iff its parent is safe and
        promises it."""
        safe = [0] * self.count
        cover = [[0] * self.count for _ in range(self.height)]
        if not n:
            return safe, cover
        full = (1 << n) - 1
        for i in self._roots:
            safe[i] = full
        for (_, _, steps, *_), column in zip(self._groups, columns):
            # backward, as int(text, 2) reads its first character as the highest bit
            text = column[::-1]
            for _, radix, depth, i, wedges, kids, planes in steps:
                if planes is None:  # more options than byte values: one rule at a time
                    with_digit = [0] * radix
                    for j, k in enumerate(column):
                        with_digit[k] |= 1 << j
                else:
                    # lowest plane first: after plane j, with_digit[k] holds the
                    # rules whose digit agrees with k in bits 0..j, for every
                    # k below both the radix and 2 ** (j + 1)
                    with_digit = [full]
                    for plane in planes:
                        ones = int(text.translate(plane), 2)
                        zeros = full ^ ones
                        with_digit = [m & zeros for m in with_digit] + [
                            m & ones for m in with_digit[:radix - len(with_digit)]
                        ]
                row, s = cover[depth], safe[i]
                for rules_k, wedge, option_kids in zip(with_digit, wedges, kids):
                    for z in wedge:
                        row[z] |= rules_k
                    for c in option_kids:
                        safe[c] |= s & rules_k
        return safe, cover


def _digit_tables(inner: int, radix: int) -> list:
    """The bit planes of a step whose digit is v // inner % radix of its
    group's number v, for inner * radix <= 256: for each bit j of a digit
    below the radix, (radix - 1).bit_length() of them and lowest first, the
    table that translates v to "1" when bit j of v's digit is set and to
    "0" otherwise.  Bit j of the digit runs in alternate runs of 0s and 1s,
    each inner << j values long, which are cut at inner * radix values, the
    period of the digit, and that piece is tiled to 256 values."""
    tables = []
    for j in range((radix - 1).bit_length()):
        run = inner << j
        tables.append(_tile(_tile(b"0" * run + b"1" * run, inner * radix), 256))
    return tables


def _byte_tables(radix: int) -> tuple[bytes, bytes]:
    """(reject, reduce) for a group of radix <= 256: the byte values at or
    above the largest multiple of the radix, and the table that translates
    v to v % radix, the radix's values tiled to 256."""
    return bytes(range(256 - 256 % radix, 256)), _tile(bytes(range(radix)), 256)


def _tile(piece: bytes, length: int) -> bytes:
    """piece repeated, and cut to ``length`` bytes."""
    return (piece * -(-length // len(piece)))[:length]


def _uniform_bytes(rng, n: int, reject: bytes, reduce: bytes) -> bytes:
    """n uniform numbers below a radix, one byte each: the rng's bytes,
    rng.getrandbits(8 * m).to_bytes(m, "little"), less those in ``reject``
    (at or above the largest multiple of the radix), refilled until n are
    kept and then translated by ``reduce`` (mod the radix)."""
    column = b""
    while len(column) < n:
        m = n - len(column)
        column += rng.getrandbits(8 * m).to_bytes(m, "little").translate(None, reject)
    return column.translate(reduce)


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

    Rules are checked BLOCK at a time, as the columns of a RuleSpace:
    RuleSpace.block_masks gives the block's safe and cover masks with one
    bit per rule, both phrasings become XOR/AND/OR over those ints, and the
    first failing rule is the lowest failing bit.  Only that rule's rank is
    read back off the columns, and only it is built and formatted.  The
    sweep stops there, and ``covers_checked`` counts the rules up to and
    including it.  Raises ExplosionGuard when the rule space exceeds
    ``max_covers``, unless a ``sample`` size (with ``rng``, a random.Random)
    asks for a seeded sweep instead: RuleSpace.draw draws each block's
    columns, so sampled rules are exactly uniform over the space.  The rng
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
        columns = rules.draw(rng, n) if sampled else rules.columns(start, n)
        safe, cover = rules.block_masks(columns, n)
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
        shown = _show(rules.rule(rules.digits(rules.rank(columns, j))))
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
