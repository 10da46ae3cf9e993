"""Text literals for nodes and covers.

Node literals, by family (the one check format_node and parse_node make):
  bare ids                                    explicit-tree nodes
  u:[d<nat>, tail(<t-literal>)@<ordinal>, patch(<ordinal>=<nat>), ...]
                                              digit-family node; digits and
                                              tails build left to right,
                                              patches re-dot the current base
  t:<ordinal>:{<flip ordinals>}:[<tail bits>] a binary node, only as the
                                              tail inside a u: literal

Every <nat>, digit and bit is a numeral: ASCII decimal digits with no
leading zero (ordinal.is_nat).  Explicit node ids are names, not numerals.

Cover literals:
  subtree(T-in-U)            the binary tree inside the digit tree
  subtree(T-in-U<h)          the same, truncated to height h
  patched(<base>; <node>=>{<node>,...}, ...)
                             nested patches flatten, outer rows winning;
                             a patched table is a table
  table(<tree-file>; <id>=>{<id>,...}, ...)
                             a table is a patch over its tree's root: nodes
                             without a row get the empty set

Forcing targets:
  include(<u-literal>)       the filter must contain this digit node
  reach(<ordinal>)           the filter must reach this height
"""

from __future__ import annotations

from .families import BitFamily, BitNode, DigitFamily, DigitNode
from .ordinal import MAX_NESTING, Ordinal, is_nat, parse_cnf, read_nat, to_cnf
from .trees import ExplicitTree
from .wedge import BinaryInsideDigits, CoverRule, ExplicitSubtree, TruncatedSubtree


class UsageError(ValueError):
    """Malformed command input, reported as a usage error rather than as a
    failed answer."""


def split_top(text: str, sep: str | None) -> list[str]:
    """Split on sep at bracket depth zero, dropping empty pieces.  With sep
    None, split on runs of whitespace as str.split(None) does, so bracketed
    literals stay whole; otherwise strip each piece."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and (ch.isspace() if sep is None else ch == sep):
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    if sep is not None:
        out = [s.strip() for s in out]
    return [s for s in out if s]


# --- nodes -------------------------------------------------------------------

def format_node(family, x) -> str:
    """An explicit tree's node is its id; any other is a digit node."""
    if isinstance(family, ExplicitTree):
        return x
    return _format_u(x)


def _format_t(x: BitNode) -> str:
    flips = ",".join(to_cnf(p) for p in x.flips)
    tail = ",".join(str(b) for b in x.tail)
    return f"t:{to_cnf(x.height)}:{{{flips}}}:[{tail}]"


def _format_u(x: DigitNode) -> str:
    parts = []
    if x.base is not None:
        parts.append(f"tail({_format_t(x.base)})@{to_cnf(x.base.height)}")
        parts.extend(f"patch({to_cnf(p)}={d})" for p, d in x.patch)
    parts.extend(f"d{d}" for d in x.trail)
    return f"u:[{','.join(parts)}]"


def parse_node(family, text: str):
    """A node of an explicit tree by its id, or a digit node by its u:
    literal."""
    text = text.strip()
    if isinstance(family, ExplicitTree):
        if text not in family.parent:
            raise ValueError(f"unknown explicit node {text!r}")
        return text
    if text.startswith("u:"):
        return _parse_u(family, text)
    raise ValueError(f"cannot parse node literal {text!r}")


def _parse_t(bits: BitFamily, text: str) -> BitNode:
    _, height, flips, tail = text.split(":", 3)
    if not (flips.startswith("{") and flips.endswith("}")):
        raise ValueError(f"bad flip set in {text!r}")
    if not (tail.startswith("[") and tail.endswith("]")):
        raise ValueError(f"bad tail in {text!r}")
    flip_set = [parse_cnf(s) for s in split_top(flips[1:-1], ",")]
    tail_bits = [read_nat(s) for s in split_top(tail[1:-1], ",")]
    return bits.node(parse_cnf(height), flip_set, tail_bits)


def _parse_u(digits: DigitFamily, text: str) -> DigitNode:
    body = text[2:].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad u literal {text!r}")
    node = digits.root()
    patches = {}
    for item in split_top(body[1:-1], ","):
        if item.startswith("d") and is_nat(item[1:]):
            node = DigitNode(node.base, node.patch, node.trail + (int(item[1:]),))
        elif item.startswith("tail(") and "@" in item:
            inner, _, at = item.rpartition("@")
            if not inner.startswith("tail(") or not inner.endswith(")"):
                raise ValueError(f"bad tail component {item!r}")
            t = _parse_t(digits.bits, inner[5:-1])
            if t.height != parse_cnf(at):
                raise ValueError(f"tail height mismatch in {item!r}")
            node = digits.glue(node, t)
        elif item.startswith("patch(") and item.endswith(")"):
            pos, _, val = item[6:-1].partition("=")
            patches[parse_cnf(pos)] = read_nat(val.strip())
        else:
            raise ValueError(f"unknown component {item!r}")
    if patches:
        if node.base is None:
            raise ValueError("patch components need a tail base")
        merged = dict(node.patch)
        merged.update(patches)
        node = digits.assemble(node.base, merged, node.trail)
    return node


def parse_target(digits: DigitFamily, text: str) -> tuple[str, DigitNode | Ordinal]:
    """A forcing target: ("include", digit node) or ("reach", ordinal)."""
    if text.startswith("include(") and text.endswith(")"):
        return ("include", parse_node(digits, text[8:-1]))
    if text.startswith("reach(") and text.endswith(")"):
        return ("reach", parse_cnf(text[6:-1]))
    raise UsageError(f"bad target {text!r}")


# --- covers ------------------------------------------------------------------

def parse_cover(text: str, digits: DigitFamily, load_tree=None) -> CoverRule:
    """A cover from its literal.  Nested patches are read outside in without
    recursion and applied inside out, so outer rows win."""
    text = text.strip()
    layers = []
    while text.startswith("patched(") and text.endswith(")"):
        if len(layers) == MAX_NESTING:
            raise ValueError(f"patched( nesting deeper than {MAX_NESTING}")
        base_text, *rows = split_top(text[8:-1], ";") or [""]
        layers.append(";".join(rows))
        text = base_text
    rule = _parse_base_cover(text, digits, load_tree)
    for rows in reversed(layers):
        rule = rule.patched(_rows(rule.family, rows, "patch"))
    return rule


def _rows(family, text: str, kind: str) -> dict:
    """{node: successor nodes} from '<key>=>{<succ>,...}' rows, every node
    read with parse_node.  Over an explicit tree each successor must be an
    immediate successor of its key."""
    table = {}
    for row in split_top(text, ","):
        key, _, succ = row.partition("=>")
        succ = succ.strip()
        if not (succ.startswith("{") and succ.endswith("}")):
            raise ValueError(f"bad {kind} row {row!r}")
        table[parse_node(family, key)] = tuple(parse_node(family, v) for v in split_top(succ[1:-1], ","))
    if isinstance(family, ExplicitTree):
        for x, succ in table.items():
            for z in succ:
                if not family.is_child(x, z):
                    raise ValueError(f"{z!r} is not an immediate successor of {x!r}")
    return table


def _parse_base_cover(text: str, digits: DigitFamily, load_tree) -> CoverRule:
    if text.startswith("subtree(") and text.endswith(")"):
        inner = text[8:-1].strip()
        if inner == "T-in-U":
            return BinaryInsideDigits(digits)
        if inner.startswith("T-in-U<"):
            h = parse_cnf(inner[len("T-in-U<"):])
            return TruncatedSubtree(BinaryInsideDigits(digits), h)
        raise ValueError(f"unknown subtree {inner!r}")
    if text.startswith("table(") and text.endswith(")"):
        path, _, rows = text[6:-1].partition(";")
        if load_tree is None:
            raise ValueError("table covers need a tree loader")
        tree = load_tree(path.strip())
        root = tree.root()  # a table needs a single-rooted tree; check it before any row
        return ExplicitSubtree(tree, {root}).patched(_rows(tree, rows, "table"))
    raise ValueError(f"cannot parse cover literal {text!r}")
