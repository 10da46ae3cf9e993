"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite descending sum ``w^e1*c1 + ... + w^ek*ck`` with
ordinal exponents and coefficients >= 1, stored canonically so that equality
is structural and every downstream construction is deterministic.  The
universe is capped below epsilon_0 by construction: only finite CNF terms
exist and no exponentiation is provided.
"""

from __future__ import annotations

from functools import total_ordering
from math import isqrt
from typing import Iterator, NamedTuple


class CNFSyntaxError(ValueError):
    """Malformed or non-canonical ordinal text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DecodeBudgetExceeded(Exception):
    """Structural decoding ran out of fuel before finishing."""


@total_ordering
class Ordinal:
    """Immutable CNF ordinal.  ``terms`` is a tuple of (exponent, coefficient)."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        terms = tuple((e, int(c)) for e, c in terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponent must be an Ordinal")
            if c < 1:
                raise ValueError("coefficient must be >= 1")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if not e2 < e1:
                raise ValueError("exponents must be strictly descending")
        self.terms = terms
        self._hash = hash(terms)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms == other.terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return _cmp_terms(self.terms, other.terms) < 0

    def __add__(self, other):
        if isinstance(other, int):
            other = from_nat(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        return add_ord(self, other)

    def is_zero(self) -> bool:
        return not self.terms

    def is_nat(self) -> bool:
        """True when the ordinal is a natural number (possibly zero)."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def to_nat(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_nat():
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1]

    def __str__(self):
        return to_cnf(self)

    def __repr__(self):
        return f"Ordinal[{to_cnf(self)}]"


def _cmp_terms(a, b) -> int:
    for (e1, c1), (e2, c2) in zip(a, b):
        if e1 != e2:
            return -1 if e1 < e2 else 1
        if c1 != c2:
            return -1 if c1 < c2 else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1


ZERO = Ordinal()
ONE = Ordinal([(ZERO, 1)])
OMEGA = Ordinal([(ONE, 1)])


def from_nat(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("naturals only")
    return ZERO if n == 0 else Ordinal([(ZERO, n)])


def omega_pow(exp: Ordinal, coeff: int = 1) -> Ordinal:
    return Ordinal([(exp, coeff)])


def cmp_ord(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1; term lists compare lexicographically, realizing ordinal order."""
    return _cmp_terms(a.terms, b.terms)


def add_ord(a: Ordinal, b: Ordinal) -> Ordinal:
    """CNF addition: terms of ``a`` below b's leading exponent are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lead = b.terms[0][0]
    keep = [t for t in a.terms if t[0] > lead]
    if len(keep) < len(a.terms) and a.terms[len(keep)][0] == lead:
        merged = (lead, a.terms[len(keep)][1] + b.terms[0][1])
        return Ordinal([*keep, merged, *b.terms[1:]])
    return Ordinal([*keep, *b.terms])


def classify(a: Ordinal) -> str:
    """'zero', 'successor' (least exponent 0) or 'limit'."""
    if a.is_zero():
        return "zero"
    if a.terms[-1][0].is_zero():
        return "successor"
    return "limit"


class BlockDecomposition(NamedTuple):
    limit_part: Ordinal
    finite_part: int


def block_decompose(a: Ordinal) -> BlockDecomposition:
    """Split ``a`` as (limit-or-zero part, finite remainder)."""
    if a.terms and a.terms[-1][0].is_zero():
        return BlockDecomposition(Ordinal(a.terms[:-1]), a.terms[-1][1])
    return BlockDecomposition(a, 0)


def pred(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if classify(a) != "successor":
        raise ValueError(f"{a} is not a successor")
    e, c = a.terms[-1]
    rest = a.terms[:-1]
    return Ordinal(rest) if c == 1 else Ordinal([*rest, (e, c - 1)])


def fund_seq(lam: Ordinal, n: int) -> Ordinal:
    """n-th step of the fixed ladder converging to the limit ordinal ``lam``.

    The rule is the Wainer-style one:  (g + w^(b+1))[n] = g + w^b*(n+1)  and
    (g + w^b)[n] = g + w^(b[n])  for limit b.
    """
    if classify(lam) != "limit":
        raise ValueError(f"{lam} is not a limit ordinal")
    if n < 0:
        raise ValueError("ladder index must be >= 0")
    e, c = lam.terms[-1]
    delta = Ordinal(lam.terms[:-1]) if c == 1 else Ordinal([*lam.terms[:-1], (e, c - 1)])
    if classify(e) == "successor":
        return Ordinal([*delta.terms, (pred(e), n + 1)])
    return Ordinal([*delta.terms, (fund_seq(e, n), 1)])


def descent_floor(beta: Ordinal, alpha: Ordinal) -> Ordinal:
    """Least member >= ``alpha`` of the first-step descent of ``beta``.

    The descent is beta, then fund_seq(., 0) of a limit or pred of a
    successor, down to 0.  From d + w^e*c it passes through
    d + w^e*(c-1) + w^j for each j on e's own descent, then continues from
    d + w^e*(c-1).  So the answer is found from the first term where alpha
    and beta differ and one recursion into that term's exponent; the
    recursion depth is bounded by the nesting of beta, never by its
    coefficients.
    """
    if beta < alpha:
        raise ValueError(f"{alpha} is above {beta}")
    bt, at = beta.terms, alpha.terms
    i = 0
    while i < len(at) and at[i] == bt[i]:
        i += 1
    if i == len(at):
        return alpha  # alpha is beta or a prefix of beta's terms
    (a, ca), (e, _) = at[i], bt[i]
    # alpha = head + tail lies between the descent members head and head + w^e,
    # and the members between those two are head + w^j for j on e's descent
    if a == e:
        head, tail = bt[:i] + ((e, ca),), at[i + 1 :]
        if not tail:
            return alpha
    else:
        head, tail = bt[:i], at[i:]
    a2, c2 = tail[0]
    # head + w^j >= alpha exactly when j > a2, or j == a2 and tail is w^a2 alone
    low = a2 if c2 == 1 and len(tail) == 1 else add_ord(a2, ONE)
    return add_ord(Ordinal(head), omega_pow(descent_floor(e, low)))


def cantor_pair(m: int, n: int) -> int:
    w = m + n
    return w * (w + 1) // 2 + n


def cantor_unpair(p: int) -> tuple[int, int]:
    w = (isqrt(8 * p + 1) - 1) // 2
    n = p - w * (w + 1) // 2
    return w - n, n


def pair_f(xi: Ordinal, n: int) -> Ordinal:
    """Block-respecting pairing: with xi = g + m, returns g + pi(m, n).

    For every limit g the image of [0, g) x omega is exactly [0, g).
    """
    lam, m = block_decompose(xi)
    return add_ord(lam, from_nat(cantor_pair(m, n)))


def unpair_f(eta: Ordinal) -> tuple[Ordinal, int]:
    lam, p = block_decompose(eta)
    m, n = cantor_unpair(p)
    return add_ord(lam, from_nat(m)), n


# Structural integer coding.  structural_key is injective on all ordinals
# (even naturals get even keys, composites odd keys); godel_code keeps the
# published contract of being the identity on naturals, so its composite
# codes live above _CODE_OFFSET and are only guaranteed distinct from
# naturals below that offset.

_CODE_OFFSET = 1 << 40


def _encode_terms(a: Ordinal) -> int:
    code = 0
    for e, c in reversed(a.terms):
        code = cantor_pair(cantor_pair(structural_key(e), c - 1), code) + 1
    return code


def structural_key(a: Ordinal) -> int:
    """Globally injective integer key: 2n on naturals, odd on composites."""
    if a.is_nat():
        return 2 * a.to_nat()
    return 2 * _encode_terms(a) + 1


def decode_structural(code: int, fuel: int | None = None) -> Ordinal | None:
    """Inverse of _encode_terms; None when the integer codes no canonical
    ordinal.  ``fuel`` bounds the number of unpair steps and raises
    DecodeBudgetExceeded when spent.
    """
    tank = [fuel] if fuel is not None else None
    return _decode_terms(code, tank)


def _decode_terms(code: int, tank) -> Ordinal | None:
    terms = []
    guard = 0
    while code > 0:
        _spend(tank)
        head, code = cantor_unpair(code - 1)
        key, cm1 = cantor_unpair(head)
        exp = _decode_key(key, tank)
        if exp is None:
            return None
        terms.append((exp, cm1 + 1))
        guard += 1
        if guard > 64:
            return None
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if not e2 < e1:
            return None
    return Ordinal(terms)


def _decode_key(key: int, tank=None) -> Ordinal | None:
    if key % 2 == 0:
        return from_nat(key // 2)
    a = _decode_terms((key - 1) // 2, tank)
    if a is None or a.is_nat():
        return None
    return a


def _spend(tank):
    if tank is not None:
        if tank[0] <= 0:
            raise DecodeBudgetExceeded
        tank[0] -= 1


def godel_code(a: Ordinal) -> int:
    """Deterministic integer code, the identity on natural numbers.

    Composite ordinals are coded structurally above 2**40; codes are
    injective across naturals below that offset together with all
    composites, which covers every ordinal this artifact materializes.
    """
    if a.is_nat():
        return a.to_nat()
    return _CODE_OFFSET + _encode_terms(a)


# --- text format ------------------------------------------------------------

# Deepest '(' nesting parse_cnf accepts; the parser recurses per level, and
# a cap well below the interpreter's recursion limit keeps deep input a
# CNFSyntaxError.
MAX_NESTING = 100


def parse_cnf(text: str) -> Ordinal:
    """Parse the CNF grammar:  0 | term (+ term)*  with
    term := nat | w | w*nat | w^factor | w^factor*nat  and
    factor := nat | ( ordinal ).  Whitespace is ignored; non-canonical
    input (non-descending exponents, zero coefficients) and parentheses
    nested deeper than MAX_NESTING are rejected.
    """
    stripped = [(i, ch) for i, ch in enumerate(text) if not ch.isspace()]
    src = "".join(ch for _, ch in stripped)
    positions = [i for i, _ in stripped]

    def pos_of(i: int) -> int:
        return positions[i] if i < len(positions) else len(text)

    ordinal, i = _parse_ordinal(src, 0, pos_of, 0)
    if i != len(src):
        raise CNFSyntaxError(f"unexpected {src[i]!r}", pos_of(i))
    return ordinal


def _parse_ordinal(src: str, i: int, pos_of, depth: int) -> tuple[Ordinal, int]:
    if i < len(src) and src[i] == "0" and not (i + 1 < len(src) and src[i + 1].isdigit()):
        nxt = i + 1
        if nxt < len(src) and src[nxt] == "+":
            raise CNFSyntaxError("zero cannot start a sum", pos_of(nxt))
        if nxt == len(src) or src[nxt] in ")":
            return ZERO, nxt
    terms = []
    while True:
        start = i
        exp, coeff, i = _parse_term(src, i, pos_of, depth)
        if coeff == 0:
            raise CNFSyntaxError("zero coefficient is not canonical", pos_of(start))
        if terms and not exp < terms[-1][0]:
            raise CNFSyntaxError("exponents must strictly descend", pos_of(start))
        terms.append((exp, coeff))
        if i < len(src) and src[i] == "+":
            i += 1
            continue
        return Ordinal(terms), i


def _parse_term(src: str, i: int, pos_of, depth: int) -> tuple[Ordinal, int, int]:
    if i >= len(src):
        raise CNFSyntaxError("expected a term", pos_of(i))
    if src[i].isdigit():
        n, i = _parse_nat(src, i, pos_of)
        return ZERO, n, i
    if src[i] != "w":
        raise CNFSyntaxError(f"expected 'w' or a number, got {src[i]!r}", pos_of(i))
    i += 1
    exp = ONE
    if i < len(src) and src[i] == "^":
        i += 1
        if i < len(src) and src[i] == "(":
            if depth == MAX_NESTING:
                raise CNFSyntaxError(f"nesting deeper than {MAX_NESTING}", pos_of(i))
            exp, i = _parse_ordinal(src, i + 1, pos_of, depth + 1)
            if i >= len(src) or src[i] != ")":
                raise CNFSyntaxError("expected ')'", pos_of(i))
            i += 1
        elif i < len(src) and src[i].isdigit():
            n, i = _parse_nat(src, i, pos_of)
            exp = from_nat(n)
        else:
            raise CNFSyntaxError("expected a number or '(' after '^'", pos_of(i))
    coeff = 1
    if i < len(src) and src[i] == "*":
        i += 1
        if i >= len(src) or not src[i].isdigit():
            raise CNFSyntaxError("expected a coefficient after '*'", pos_of(i))
        coeff, i = _parse_nat(src, i, pos_of)
    return exp, coeff, i


def _parse_nat(src: str, i: int, pos_of) -> tuple[int, int]:
    j = i
    while j < len(src) and src[j].isdigit():
        j += 1
    return int(src[i:j]), j


def to_cnf(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_nat():
            base = f"w^{e.to_nat()}"
        else:
            base = f"w^({to_cnf(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def ordinals_from_keys() -> Iterator[Ordinal]:
    """All ordinals below epsilon_0 in structural-key order (0, 1, the first
    composite with odd key 1 if valid, ...).  Used for canonical position
    streams; keys that decode to nothing are skipped.
    """
    key = 0
    while True:
        a = _decode_key(key)
        if a is not None:
            yield a
        key += 1
