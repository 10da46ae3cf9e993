"""The three symbolic tree families.

* InjFamily: injective sequences into omega that deviate from the coherent
  base system on a certified finite override set.
* BitFamily: binary sequences whose restriction to the largest limit block
  agrees mod finite with a characteristic stem built from the pairing and
  the coherent system; every node splits into exactly two children.
* DigitFamily: arbitrary-digit sequences grown over BitFamily -- every
  finite digit string is a node, every node sprouts one child per digit,
  and at limit heights nodes are bit nodes patched on a finite set.

Nodes are immutable NamedTuple records, so a node hashes and compares as
the tuple of its fields, in C; equality is decidable because each family
keeps a canonical normal form.

A BitFamily keeps two memos on the instance: ``stem_query`` bits keyed by
(gamma, eta), and ``char_delta`` stem differences keyed by (alpha, beta),
as CoherentSystem keeps ``delta_e``.  Restriction and gluing across blocks
ask the same few anchor pairs over and over.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, NamedTuple

from .coherent import CoherentSystem
from .ordinal import (
    Ordinal,
    ZERO,
    add_ord,
    block_decompose,
    classify,
    from_nat,
    pair_f,
    unpair_f,
)
from .trees import TreeFamily


class InjectivityError(ValueError):
    """Node construction would denote a non-injective sequence."""


def _ints(items, least: int) -> bool:
    """Whether items is a tuple of ints, each at least ``least``.  True equals
    1, and a slice of an Ordinal is a plain tuple equal to an Ordinal, so
    each contains() checks a node's field types before it compares the
    rebuilt normal form."""
    return type(items) is tuple and all(type(d) is int and d >= least for d in items)


def _table(items, least: int) -> bool:
    """Whether items is a tuple of (Ordinal, int) pairs, each int at least
    ``least``: a node's override or patch table."""
    return type(items) is tuple and all(
        isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], Ordinal) and type(e[1]) is int and e[1] >= least
        for e in items
    )


# --- injective-sequence family ---------------------------------------------------

class InjNode(NamedTuple):
    """Injective sequence of height ``height``: the coherent base overridden
    at the finitely many positions in ``over``."""
    height: Ordinal
    over: tuple  # sorted tuple of (position, value)


class InjFamily(TreeFamily):
    def __init__(self, coh: CoherentSystem):
        self.coh = coh

    def root(self) -> InjNode:
        return InjNode(ZERO, ())

    def height(self, x: InjNode) -> Ordinal:
        return x.height

    def node(self, alpha: Ordinal, over: dict) -> InjNode:
        """Certified constructor; rejects overrides breaking injectivity, and
        any override that is not an Ordinal position with a natural value
        (``type(v) is int``: no bool or float), which contains() refuses."""
        for xi, v in over.items():
            if not isinstance(xi, Ordinal) or type(v) is not int or v < 0:
                raise ValueError(f"override {xi!r}: {v!r} is not an ordinal position with a natural value")
            if not xi < alpha:
                raise ValueError(f"override position {xi} not below {alpha}")
        cleaned = {xi: v for xi, v in over.items() if v != self.coh.eval_e(alpha, xi)}
        values = list(cleaned.values())
        if len(set(values)) != len(values):
            raise InjectivityError("duplicate override values")
        for v in values:
            if v % 2 == 0:
                continue  # the base system never takes even values
            p = self.coh.position_of_value(alpha, v)
            if p is not None and p not in cleaned:
                raise InjectivityError(f"value {v} collides with base position {p}")
        return InjNode(alpha, tuple(sorted(cleaned.items())))

    def query(self, x: InjNode, xi: Ordinal) -> int:
        for p, v in x.over:
            if p == xi:
                return v
        return self.coh.eval_e(x.height, xi)

    def _rebase(self, x: InjNode, alpha: Ordinal) -> tuple:
        """Overrides of x's values relative to the base at anchor ``alpha``,
        covering positions below min(height(x), alpha)."""
        cut = x.height if x.height < alpha else alpha
        lo, hi = (x.height, alpha) if x.height < alpha else (alpha, x.height)
        over = {}
        touched = set(dict(x.over))
        touched.update(self.coh.delta_e(lo, hi))
        for p in touched:
            if p < cut:
                mine = self.query(x, p)
                if mine != self.coh.eval_e(alpha, p):
                    over[p] = mine
        return tuple(sorted(over.items()))

    def restrict(self, x: InjNode, beta: Ordinal) -> InjNode:
        if beta == x.height:
            return x
        return InjNode(beta, self._rebase(x, beta))

    def contains(self, x) -> bool:
        if not isinstance(x, InjNode) or not isinstance(x.height, Ordinal) or not _table(x.over, 0):
            return False
        try:
            return self.node(x.height, dict(x.over)) == x
        except ValueError:  # InjectivityError among them
            return False

    def in_range(self, x: InjNode, v: int) -> bool:
        """Does v occur among x's values?  Exact thanks to reserved streams."""
        if v in dict(x.over).values():
            return True
        p = self.coh.position_of_value(x.height, v)
        return p is not None and p not in dict(x.over)

    def successors(self, x: InjNode) -> Iterator[InjNode]:
        alpha = x.height
        up = add_ord(alpha, from_nat(1))
        stem_value = self.coh.eval_e(up, alpha)
        rebased = self._rebase(x, up)
        if not self.in_range(x, stem_value):
            yield InjNode(up, rebased)
        for v in count(0):
            if v != stem_value and not self.in_range(x, v):
                over = dict(rebased)
                over[alpha] = v
                yield InjNode(up, tuple(sorted(over.items())))

    def canonical_extension(self, x: InjNode, alpha: Ordinal) -> InjNode:
        """Least-fuss node above x at height alpha: follow the base system,
        replacing the finitely many base values x already uses by fresh evens."""
        if alpha == x.height:
            return x
        if alpha < x.height:
            raise ValueError("target height below node")
        over = dict(self._rebase(x, alpha))
        used = set(over.values())
        fresh = (v for v in count(0, 2) if v not in used)
        for v in sorted(used):
            p = self.coh.position_of_value(alpha, v)
            if p is not None and not p < x.height and p not in over:
                over[p] = next(fresh)
        return InjNode(alpha, tuple(sorted(over.items())))


# --- binary family -----------------------------------------------------------------

class BitNode(NamedTuple):
    """Binary sequence: the characteristic stem of its block, toggled at
    ``flips`` (below the block limit) plus an explicit finite ``tail``."""
    height: Ordinal
    flips: tuple  # sorted tuple of Ordinal positions < gamma
    tail: tuple  # bits on [gamma, height)

    @property
    def gamma(self) -> Ordinal:
        """The block limit of the height: the height itself when the tail,
        which is as long as the height's finite part, is empty."""
        return block_decompose(self.height).limit_part if self.tail else self.height


class BitFamily(TreeFamily):
    def __init__(self, coh: CoherentSystem):
        self.coh = coh
        self._stem: dict[tuple[Ordinal, Ordinal], int] = {}  # stem_query memo, keyed by (gamma, eta)
        self._delta: dict[tuple[Ordinal, Ordinal], frozenset] = {}  # char_delta memo, keyed by (alpha, beta)

    def root(self) -> BitNode:
        return BitNode(ZERO, (), ())

    def height(self, x: BitNode) -> Ordinal:
        return x.height

    def char_stem(self, alpha: Ordinal) -> BitNode:
        """The canonical member of a limit-or-zero level: the characteristic
        function of the pairing image of the coherent injection."""
        if classify(alpha) == "successor":
            raise ValueError(f"{alpha} is not limit-or-zero")
        return BitNode(alpha, (), ())

    def stem_query(self, gamma: Ordinal, eta: Ordinal) -> int:
        key = (gamma, eta)
        bit = self._stem.get(key)
        if bit is None:
            xi, n = unpair_f(eta)
            bit = self._stem[key] = int(xi < gamma and self.coh.eval_e(gamma, xi) == n)
        return bit

    def node(self, alpha: Ordinal, flips, tail) -> BitNode:
        gamma, m = block_decompose(alpha)
        flips = tuple(sorted(set(flips)))
        tail = tuple(int(b) for b in tail)
        for p in flips:
            if not p < gamma:
                raise ValueError(f"flip {p} not below the block limit {gamma}")
        if len(tail) != m:
            raise ValueError(f"tail length {len(tail)} != finite part {m}")
        if any(b not in (0, 1) for b in tail):
            raise ValueError("tail must be bits")
        return BitNode(alpha, flips, tail)

    def query(self, x: BitNode, xi: Ordinal) -> int:
        gamma = x.gamma
        if xi < gamma:
            return self.stem_query(gamma, xi) ^ (xi in x.flips)
        return x.tail[block_decompose(xi).finite_part]

    def char_delta(self, alpha: Ordinal, beta: Ordinal) -> frozenset:
        """Exact finite difference of the stems at limit-or-zero alpha <= beta,
        certified inside the candidate set induced by the coherent witnesses.
        Memoized: only checked arguments are ever stored."""
        key = (alpha, beta)
        cached = self._delta.get(key)
        if cached is not None:
            return cached
        for a in (alpha, beta):
            if classify(a) == "successor":
                raise ValueError(f"{a} is not limit-or-zero")
        if beta < alpha:
            raise ValueError("anchors out of order")
        stem = self.stem_query
        result = self._delta[key] = frozenset(
            eta
            for eta in self.char_delta_candidates(alpha, beta)
            if eta < alpha and stem(alpha, eta) != stem(beta, eta)
        )
        return result

    def char_delta_candidates(self, alpha: Ordinal, beta: Ordinal) -> frozenset:
        cand = set()
        for xi in self.coh.delta_e(alpha, beta):
            cand.add(pair_f(xi, self.coh.eval_e(alpha, xi)))
            cand.add(pair_f(xi, self.coh.eval_e(beta, xi)))
        return frozenset(cand)

    def restrict(self, x: BitNode, beta: Ordinal) -> BitNode:
        if beta == x.height:
            return x
        gamma = x.gamma
        gamma2, m2 = block_decompose(beta)
        if not beta < gamma:
            # same block: cut the tail
            return BitNode(beta, x.flips, x.tail[:m2])
        flips = set(f for f in x.flips if f < gamma2)
        flips ^= self.char_delta(gamma2, gamma)
        tail = tuple(
            self.stem_query(gamma, p) ^ (p in x.flips)
            for p in _segment(gamma2, m2)
        )
        return BitNode(beta, tuple(sorted(flips)), tail)

    def contains(self, x) -> bool:
        if not isinstance(x, BitNode) or not isinstance(x.height, Ordinal) or not _ints(x.tail, 0):
            return False
        if type(x.flips) is not tuple or not all(isinstance(p, Ordinal) for p in x.flips):
            return False
        try:
            return self.node(x.height, x.flips, x.tail) == x
        except ValueError:
            return False

    def successors(self, x: BitNode) -> Iterator[BitNode]:
        up = add_ord(x.height, from_nat(1))
        for b in (0, 1):
            yield BitNode(up, x.flips, x.tail + (b,))

    def canonical_extension(self, x: BitNode, alpha: Ordinal) -> BitNode:
        """Extend by the block stem below the target limit and zeros above it."""
        if alpha == x.height:
            return x
        if alpha < x.height:
            raise ValueError("target height below node")
        gamma, m = block_decompose(alpha)
        gx = x.gamma
        if gamma == gx:
            return BitNode(alpha, x.flips, x.tail + (0,) * (m - len(x.tail)))
        flips = set(x.flips)
        flips ^= self.char_delta(gx, gamma)
        for p in _segment(gx, len(x.tail)):
            if x.tail[block_decompose(p).finite_part] != self.stem_query(gamma, p):
                flips.add(p)
        return BitNode(alpha, tuple(sorted(flips)), (0,) * m)


def _segment(start: Ordinal, length: int):
    return [add_ord(start, from_nat(i)) for i in range(length)]


# --- digit family -------------------------------------------------------------------

class DigitNode(NamedTuple):
    """Digit sequence: either a plain finite string (base None) or a bit node
    of limit height patched at finitely many positions, plus a finite trail.

    Normal form: binary disagreements with the base are folded into the
    base's flips, so patches carry only digits >= 2, and a patched position
    never also carries a flip.  Equal functions therefore have equal nodes.
    """
    base: BitNode | None
    patch: tuple  # sorted tuple of (position, digit), digit >= 2
    trail: tuple  # digits above the base height


class DigitFamily(TreeFamily):
    def __init__(self, bits: BitFamily):
        self.bits = bits

    def root(self) -> DigitNode:
        return DigitNode(None, (), ())

    def height(self, x: DigitNode) -> Ordinal:
        if x.base is None:
            return from_nat(len(x.trail))
        if not x.trail:
            return x.base.height
        return add_ord(x.base.height, from_nat(len(x.trail)))

    def node(self, components) -> DigitNode:
        """Build from a component list of ('d', n) digits and ('tail', BitNode)
        limit tails; the result is in normal form."""
        out = self.root()
        for kind, payload in components:
            if kind == "d":
                out = DigitNode(out.base, out.patch, out.trail + (int(payload),))
            elif kind == "tail":
                out = self.glue(out, payload)
            else:
                raise ValueError(f"unknown component {kind!r}")
        return out

    def assemble(self, base: BitNode, overrides: dict, trail) -> DigitNode:
        """Canonical node over ``base`` with the given position -> digit
        re-assignments: binary ones become flips, larger digits patches."""
        if classify(base.height) != "limit" or base.tail:
            raise ValueError("glued bases must have limit height")
        flips = set(base.flips)
        patch = {}
        for p, d in overrides.items():
            if not p < base.height:
                raise ValueError(f"override {p} above the base height")
            current = self.bits.query(base, p)
            if d == current:
                continue
            if d in (0, 1):
                flips ^= {p}
            else:
                patch[p] = d
        for p in patch:
            flips.discard(p)  # the base shows its plain stem bit underneath
        new_base = BitNode(base.height, tuple(sorted(flips)), ())
        return DigitNode(new_base, tuple(sorted(patch.items())), tuple(trail))

    def query(self, x: DigitNode, xi: Ordinal) -> int:
        if x.base is None:
            return x.trail[xi.to_nat()]
        if xi < x.base.height:
            for p, d in x.patch:
                if p == xi:
                    return d
            return self.bits.query(x.base, xi)
        return x.trail[block_decompose(xi).finite_part]

    def restrict(self, x: DigitNode, beta: Ordinal) -> DigitNode:
        if beta == self.height(x):
            return x
        if x.base is None:
            return DigitNode(None, (), x.trail[: beta.to_nat()])
        hb = x.base.height
        if not beta < hb:
            return DigitNode(x.base, x.patch, x.trail[: block_decompose(beta).finite_part])
        gamma, m = block_decompose(beta)
        if gamma.is_zero():
            return DigitNode(None, (), self._read_below_base(x, map(from_nat, range(m))))
        base = self.bits.restrict(x.base, gamma)
        overrides = {p: d for p, d in x.patch if p < gamma}
        trail = self._read_below_base(x, _segment(gamma, m))
        return self.assemble(base, overrides, trail)

    def _read_below_base(self, x: DigitNode, positions) -> tuple:
        """x's digits at positions below its base height, as ``query`` reads
        them one by one, with the patch and the flips looked up in one dict
        and one set built once."""
        patch, flips = dict(x.patch), frozenset(x.base.flips)
        hb, stem = x.base.height, self.bits.stem_query
        return tuple(patch[p] if p in patch else stem(hb, p) ^ (p in flips) for p in positions)

    def contains(self, x) -> bool:
        if not isinstance(x, DigitNode) or not _ints(x.trail, 0) or not _table(x.patch, 2):
            return False
        if x.base is None:
            return not x.patch
        if not self.bits.contains(x.base) or classify(x.base.height) != "limit":
            return False
        flips = set(x.base.flips)
        positions = [p for p, _ in x.patch]
        return all(p < q for p, q in zip(positions, positions[1:])) and all(
            p < x.base.height and p not in flips for p in positions
        )

    def glue(self, u: DigitNode, t: BitNode) -> DigitNode:
        """The node agreeing with u below height(u) and with t up to height(t).

        Realizes the limit-level constructor; height(t) must be a limit above
        height(u).
        """
        hu, ht = self.height(u), t.height
        if not hu < ht:
            raise ValueError(f"glue needs height(u)={hu} < height(t)={ht}")
        if classify(ht) != "limit":
            raise ValueError(f"glue target height {ht} is not a limit")
        overrides = {}
        if u.base is None:
            for i, d in enumerate(u.trail):
                overrides[from_nat(i)] = d
        else:
            gu = u.base.height
            diffs = set(u.base.flips) ^ set(f for f in t.flips if f < gu)
            diffs ^= self.bits.char_delta(gu, ht)
            for p in diffs:
                overrides[p] = self.bits.query(u.base, p)
            for p, d in u.patch:
                overrides[p] = d
            for p in _segment(gu, len(u.trail)):
                overrides[p] = self.query(u, p)
        return self.assemble(t, overrides, ())

    def embed_bits(self, t: BitNode) -> DigitNode:
        """Identity embedding of the binary family at every height."""
        gamma, m = block_decompose(t.height)
        if gamma.is_zero():
            return DigitNode(None, (), t.tail)
        return DigitNode(self.bits.restrict(t, gamma), (), t.tail)

    def successors(self, x: DigitNode) -> Iterator[DigitNode]:
        for d in count(0):
            yield DigitNode(x.base, x.patch, x.trail + (d,))

    def canonical_extension(self, x: DigitNode, alpha: Ordinal) -> DigitNode:
        """Zero digits inside a block, the canonical bit stem across limits."""
        h = self.height(x)
        if alpha < h:
            raise ValueError("target height below node")
        gamma, m = block_decompose(alpha)
        current_block = x.base.height if x.base is not None else ZERO
        if gamma == current_block:
            return DigitNode(x.base, x.patch, x.trail + (0,) * (m - len(x.trail)))
        if x.base is None:
            target = self.bits.char_stem(gamma)
        else:
            target = self.bits.canonical_extension(x.base, gamma)
        out = self.glue(x, target)
        return DigitNode(out.base, out.patch, (0,) * m)
