"""Half-open-interval combinatorics on a doubled lexicographic sequence order.

The carrier is the set of eventually-zero sequences of naturals (minus the
zero sequence), doubled into a Left copy and an order-reversed Right copy so
that ``neg`` (side swap) is an order-reversing involution.  The order is
dense without endpoints, so between any two points a third is constructible;
that single algorithm powers the discreteness boxes on the antidiagonal and
the endpoint-injection argument for half-open covers.

A point's sequence is stored trimmed (no trailing zeros) as a tuple of
naturals.  On such tuples the lexicographic order of the zero-padded
sequences is Python's tuple order: where one tuple is a proper prefix of the
other, the longer one ends in a positive digit, so it is the larger either
way.

A point is its own sort key: the tuple ``(rank, key, side, seq)``, so
``<``, ``==``, ``hash`` and ``sorted`` run in C.  An L point is
``(0, seq, "L", seq)``.  An R point is ``(1, (-d1, ..., -dk, 1), "R", seq)``:
negated digits reverse the order where two sequences differ, and the
closing 1, above every negated digit, puts a proper prefix after its
extensions, as the reversed order of the padded sequences does.  Rank and
key fix side and seq, which ride along for reading.

``TaggedPoint(side, seq)`` checks its fields and is the constructor for
parsed and outside input.  ``_point`` skips the checks, as
``ordinal.from_canonical`` does; it is used only where the sequence is
canonical by construction: ``neg``, ``find_between``, ``point_below``,
``point_above`` and the Sorgenfrey suite's listed point space.
"""

from __future__ import annotations

from operator import itemgetter, neg as minus
from typing import NamedTuple

from .ordinal import read_nat


class SeparationError(ValueError):
    """The injection preconditions (x < bound(x) <= next point) fail."""


def trim(seq) -> tuple[int, ...]:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TaggedPoint(tuple):
    """A side, "L" or "R", and a trimmed nonzero tuple of naturals, stored
    as ``(rank, key, side, seq)``."""

    __slots__ = ()

    def __new__(cls, side: str, seq: tuple):
        if side not in ("L", "R"):
            raise ValueError("side must be 'L' or 'R'")
        if type(seq) is not tuple:
            raise ValueError("sequence must be a tuple")
        if not all(type(d) is int and d >= 0 for d in seq):  # no bool, float or str
            raise ValueError("digits must be naturals")
        if not seq or seq[-1] == 0:
            raise ValueError("sequence must be nonzero and trimmed")
        return _point(side, seq)

    side = property(itemgetter(2))
    seq = property(itemgetter(3))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self[2:]

    def __repr__(self):
        return f"TaggedPoint(side={self.side!r}, seq={self.seq!r})"


_new = tuple.__new__


def _point(side: str, seq: tuple) -> TaggedPoint:
    """The point of a side and a trimmed, nonzero tuple of naturals.
    Nothing is checked; input from outside goes through TaggedPoint."""
    if side == "L":
        return _new(TaggedPoint, (0, seq, side, seq))
    return _new(TaggedPoint, (1, (*map(minus, seq), 1), side, seq))


def neg(p: TaggedPoint) -> TaggedPoint:
    """Order-reversing involution: swap the copy, keep the sequence."""
    return _point("R" if p.side == "L" else "L", p.seq)


def _lex_between(s: tuple, t: tuple) -> tuple:
    """Sequence strictly between s <lex t: bump the divergence digit when the
    gap allows, otherwise set a fresh position past both supports.  Both are
    padded to one length once, and one scan finds where they diverge."""
    n = max(len(s), len(t))
    s += (0,) * (n - len(s))
    t += (0,) * (n - len(t))
    for k, (a, b) in enumerate(zip(s, t)):
        if a != b:
            break
    else:
        raise ValueError("sequences are equal")
    # either way the result ends in a positive digit, so it is trimmed
    if b - a >= 2:
        return s[:k] + (a + 1,)
    return s + (1,)


def find_between(x: TaggedPoint, y: TaggedPoint) -> TaggedPoint:
    """A point strictly between x < y; the order is dense without endpoints."""
    if not x < y:
        raise ValueError(f"{x} is not below {y}")
    _, _, x_side, x_seq = x
    _, _, y_side, y_seq = y
    if x_side != y_side:
        # block boundary: step up inside the Left copy
        return _point("L", x_seq + (1,))
    if x_side == "L":
        return _point("L", _lex_between(x_seq, y_seq))
    return _point("R", _lex_between(y_seq, x_seq))


def _seq_below(s) -> tuple:
    """Canonical lex-smaller neighbor: decrement the last digit, or shift a
    zero in front when that would empty the sequence."""
    if s[-1] >= 2:
        return tuple(s[:-1]) + (s[-1] - 1,)
    shorter = trim(s[:-1])
    if shorter:
        return shorter
    return (0,) * len(s) + (1,)


def _seq_above(s) -> tuple:
    return (s[0] + 1,)


def point_below(p: TaggedPoint) -> TaggedPoint:
    seq = _seq_below(p.seq) if p.side == "L" else _seq_above(p.seq)
    return _point(p.side, seq)


def point_above(p: TaggedPoint) -> TaggedPoint:
    seq = _seq_above(p.seq) if p.side == "L" else _seq_below(p.seq)
    return _point(p.side, seq)


class _Interval(NamedTuple):
    lo: TaggedPoint
    hi: TaggedPoint


class HalfOpenInterval(_Interval):
    """[lo, hi): the record, with ``lo < hi`` checked on construction."""

    __slots__ = ()

    def __new__(cls, lo: TaggedPoint, hi: TaggedPoint):
        if not lo < hi:
            raise ValueError("interval needs lo < hi")
        return _new(cls, (lo, hi))

    def contains(self, p: TaggedPoint) -> bool:
        return self.lo <= p and p < self.hi

    def interior(self, p: TaggedPoint) -> bool:
        return self.lo < p and p < self.hi


class Box(NamedTuple):
    first: HalfOpenInterval
    second: HalfOpenInterval

    def contains(self, pair) -> bool:
        return self.first.contains(pair[0]) and self.second.contains(pair[1])


def isolating_box(x: TaggedPoint):
    """u < x < v with the box [x,v) x [-x,-u) meeting the antidiagonal only
    at (x, -x)."""
    u = find_between(point_below(x), x)
    v = find_between(x, point_above(x))
    box = Box(HalfOpenInterval(x, v), HalfOpenInterval(neg(x), neg(u)))
    return u, v, box


def uncovered_left_endpoints(intervals) -> set[TaggedPoint]:
    """Left endpoints not interior to any member: the part of the union that
    open interiors miss, which is how half-open covers thin out."""
    return {
        iv.lo
        for iv in intervals
        if not any(other.interior(iv.lo) for other in intervals)
    }


def dense_injection(points, bounds) -> dict:
    """Strictly increasing choice of witnesses d_x in (x, bounds[x]).

    Requires x < bounds[x] for each x and bounds[x] <= y for consecutive
    x < y, which forces the witnesses apart.
    """
    ordered = sorted(points)
    for x in ordered:
        if not x < bounds[x]:
            raise SeparationError(f"bound of {x} is not above it")
    for x, y in zip(ordered, ordered[1:]):
        if y < bounds[x]:
            raise SeparationError(f"bound of {x} overruns the next point {y}")
    out = {}
    prev = None
    for x in ordered:
        d = find_between(x, bounds[x])
        if prev is not None and not prev < d:
            raise SeparationError("witnesses failed to increase")
        out[x] = d
        prev = d
    return out


# --- literals ---------------------------------------------------------------------

def parse_point(text: str) -> TaggedPoint:
    """Point literal 'L:1.0.2' or 'R:3' (dot-separated digits)."""
    side, _, digits = text.strip().partition(":")
    if side not in ("L", "R") or not digits:
        raise ValueError(f"bad point literal {text!r}")
    seq = trim(read_nat(d) for d in digits.split("."))
    return TaggedPoint(side, seq)


def format_point(p: TaggedPoint) -> str:
    return f"{p.side}:" + ".".join(str(d) for d in p.seq)


def format_interval(iv: HalfOpenInterval) -> str:
    return f"[{format_point(iv.lo)},{format_point(iv.hi)})"
