"""Text literals for nodes and covers.

Node literals:
  te:<ordinal>:{<ordinal>=<nat>,...}          injective-family node
  t:<ordinal>:{<flip ordinals>}:[<tail bits>] binary-family node
  u:[d<nat>, tail(<t-literal>)@<ordinal>, patch(<ordinal>=<nat>), ...]
                                              digit-family node; digits and
                                              tails build left to right,
                                              patches re-dot the current base
  bare ids                                    explicit-tree nodes

Cover literals:
  subtree(T-in-U)            the binary tree inside the digit tree
  subtree(T-in-U<h)          the same, truncated to height h
  patched(<base>; <node>=>{<node>,...}, ...)
                             nested patches flatten, outer rows winning;
                             a patched table is a table
  table(<tree-file>; <id>=>{<id>,...}, ...)

Forcing targets:
  include(<u-literal>)       the filter must contain this digit node
  reach(<ordinal>)           the filter must reach this height
"""

from __future__ import annotations

from .families import BitFamily, BitNode, DigitFamily, DigitNode, InjFamily, InjNode
from .ordinal import MAX_NESTING, Ordinal, parse_cnf, to_cnf
from .trees import ExplicitFamily
from .wedge import BinaryInsideDigits, CoverRule, TableCover, TruncatedSubtree


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
    if isinstance(x, InjNode):
        inner = ",".join(f"{to_cnf(p)}={v}" for p, v in x.over)
        return f"te:{to_cnf(x.height)}:{{{inner}}}"
    if isinstance(x, BitNode):
        flips = ",".join(to_cnf(p) for p in x.flips)
        tail = ",".join(str(b) for b in x.tail)
        return f"t:{to_cnf(x.height)}:{{{flips}}}:[{tail}]"
    if isinstance(x, DigitNode):
        parts = []
        if x.base is not None:
            parts.append(f"tail({format_node(None, x.base)})@{to_cnf(x.base.height)}")
            parts.extend(f"patch({to_cnf(p)}={d})" for p, d in x.patch)
        parts.extend(f"d{d}" for d in x.trail)
        return f"u:[{','.join(parts)}]"
    if isinstance(x, str):
        return x
    raise TypeError(f"cannot format {x!r}")


def parse_node(family, text: str):
    text = text.strip()
    if text.startswith("te:"):
        if not isinstance(family, InjFamily):
            raise ValueError("te: literal needs the injective family")
        return _parse_te(family, text)
    if text.startswith("t:"):
        if not isinstance(family, BitFamily):
            raise ValueError("t: literal needs the binary family")
        return _parse_t(family, text)
    if text.startswith("u:"):
        if not isinstance(family, DigitFamily):
            raise ValueError("u: literal needs the digit family")
        return _parse_u(family, text)
    if isinstance(family, ExplicitFamily):
        if text not in family.tree.parent:
            raise ValueError(f"unknown explicit node {text!r}")
        return text
    raise ValueError(f"cannot parse node literal {text!r}")


def _parse_te(family: InjFamily, text: str) -> InjNode:
    _, height, rest = text.split(":", 2)
    if not (rest.startswith("{") and rest.endswith("}")):
        raise ValueError(f"bad te literal {text!r}")
    over = {}
    for item in split_top(rest[1:-1], ","):
        pos, _, val = item.partition("=")
        over[parse_cnf(pos)] = int(val)
    return family.node(parse_cnf(height), over)


def _parse_t(bits: BitFamily, text: str) -> BitNode:
    _, height, flips, tail = text.split(":", 3)
    if not (flips.startswith("{") and flips.endswith("}")):
        raise ValueError(f"bad flip set in {text!r}")
    if not (tail.startswith("[") and tail.endswith("]")):
        raise ValueError(f"bad tail in {text!r}")
    flip_set = [parse_cnf(s) for s in split_top(flips[1:-1], ",")]
    tail_bits = [int(s) for s in split_top(tail[1:-1], ",")]
    return bits.node(parse_cnf(height), flip_set, tail_bits)


def _parse_u(digits: DigitFamily, text: str) -> DigitNode:
    body = text[2:].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad u literal {text!r}")
    node = digits.root()
    patches = {}
    for item in split_top(body[1:-1], ","):
        if item.startswith("d") and item[1:].isdigit():
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
            patches[parse_cnf(pos)] = int(val)
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
    read with parse_node."""
    table = {}
    for row in split_top(text, ","):
        key, _, succ = row.partition("=>")
        succ = succ.strip()
        if not (succ.startswith("{") and succ.endswith("}")):
            raise ValueError(f"bad {kind} row {row!r}")
        table[parse_node(family, key)] = tuple(parse_node(family, v) for v in split_top(succ[1:-1], ","))
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
        family = ExplicitFamily(load_tree(path.strip()))
        return TableCover(family, _rows(family, rows, "table"))
    raise ValueError(f"cannot parse cover literal {text!r}")
