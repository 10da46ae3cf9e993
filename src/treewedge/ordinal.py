"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite descending sum ``w^e1*c1 + ... + w^ek*ck`` with
ordinal exponents and coefficients >= 1, stored canonically so that equality
is structural and every downstream construction is deterministic.  The
universe is capped below epsilon_0 by construction: only finite CNF terms
exist and no exponentiation is provided.

Each ordinal carries a comparison key, ``_key = ((e._key, c), ...)`` over
its terms: a nested tuple of plain ints, so ordering, equality and hashing
run natively on it.  Lexicographic tuple order is the term-by-term CNF
order by induction on nesting, and ``hash(_key) == hash(terms)`` by the
same induction from ``hash(())``.

``Ordinal(terms)`` checks its terms and is the constructor for parsed,
decoded and outside input.  ``from_canonical`` skips the checks; it is used
only where the result is canonical by construction: ``from_nat``,
``add_ord``, ``block_decompose``, ``pred``, ``fund_seq``, ``descent_floor``
and ``gen.rand_below``, which builds its term tuples directly.  Hot memos
(``CoherentSystem._eval``, ``BitFamily``'s stem memo) key on ``_key``
rather than on the Ordinal, so a lookup hashes in C.

Small naturals are shared: ``from_nat(n)`` returns one instance per
``n < SHARED_NATS`` (``ZERO`` and ``ONE`` among them), filled in on first
use, and ``block_decompose`` of a natural returns ``ZERO`` as its limit
part.  Sharing is safe because an ``Ordinal`` is never mutated, and it lets
dict lookups keyed by naturals succeed on the identity check.
"""

from __future__ import annotations

from functools import total_ordering
from math import isqrt
from typing import NamedTuple


class CNFSyntaxError(ValueError):
    """Malformed or non-canonical ordinal text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@total_ordering
class Ordinal:
    """Immutable CNF ordinal.  ``terms`` is a tuple of (exponent, coefficient)
    and ``_key`` the same tuple with each exponent replaced by its key."""

    __slots__ = ("terms", "_key", "_hash")

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
        self._key = key = tuple([(e._key, c) for e, c in terms])
        self._hash = hash(key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key < other._key

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


_new = object.__new__


def from_canonical(terms: tuple) -> Ordinal:
    """The ordinal of a term tuple that is canonical by construction:
    Ordinal instances as strictly descending exponents, int coefficients
    >= 1.  Nothing is checked; input from outside goes through Ordinal."""
    a = _new(Ordinal)
    a.terms = terms
    a._key = key = tuple([(e._key, c) for e, c in terms])
    a._hash = hash(key)
    return a


ZERO = Ordinal()
ONE = Ordinal([(ZERO, 1)])
OMEGA = Ordinal([(ONE, 1)])


SHARED_NATS = 1024
_nats: dict[int, Ordinal] = {0: ZERO, 1: ONE}


def from_nat(n: int) -> Ordinal:
    a = _nats.get(n)
    if a is not None:
        return a
    if n < 0:
        raise ValueError("naturals only")
    a = ZERO if n == 0 else from_canonical(((ZERO, int(n)),))
    if type(n) is int and n < SHARED_NATS:  # no float or bool keys
        _nats[n] = a
    return a


def cmp_ord(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1; keys compare lexicographically, realizing ordinal order."""
    return (a._key > b._key) - (a._key < b._key)


def add_ord(a: Ordinal, b: Ordinal) -> Ordinal:
    """CNF addition: terms of ``a`` below b's leading exponent are absorbed."""
    if not b.terms:
        return a
    if not a.terms:
        return b
    akey, lead = a._key, b._key[0][0]
    i = 0
    while i < len(akey) and akey[i][0] > lead:
        i += 1
    if i < len(akey) and akey[i][0] == lead:
        merged = (b.terms[0][0], a.terms[i][1] + b.terms[0][1])
        return from_canonical((*a.terms[:i], merged, *b.terms[1:]))
    return from_canonical(a.terms[:i] + b.terms)


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


_tuple_new = tuple.__new__


def block_decompose(a: Ordinal) -> BlockDecomposition:
    """Split ``a`` as (limit-or-zero part, finite remainder).  The pair is
    built with ``tuple.__new__``, which skips the namedtuple's Python-level
    ``__new__``."""
    terms = a.terms
    if terms and not terms[-1][0].terms:
        rest = terms[:-1]
        return _tuple_new(BlockDecomposition, (from_canonical(rest) if rest else ZERO, terms[-1][1]))
    return _tuple_new(BlockDecomposition, (a, 0))


def pred(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if classify(a) != "successor":
        raise ValueError(f"{a} is not a successor")
    e, c = a.terms[-1]
    rest = a.terms[:-1]
    return from_canonical(rest if c == 1 else (*rest, (e, c - 1)))


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
    delta = lam.terms[:-1] if c == 1 else (*lam.terms[:-1], (e, c - 1))
    if classify(e) == "successor":
        return from_canonical((*delta, (pred(e), n + 1)))
    return from_canonical((*delta, (fund_seq(e, n), 1)))


def ladder_index(lam: Ordinal, xi: Ordinal) -> int:
    """Least n with xi < fund_seq(lam, n), for xi below the limit ``lam``.

    Write lam as d + w^e.  Members of the ladder are d + w^b for b below e,
    so n is 0 when xi < d, and otherwise depends only on r, xi minus d:
    for a successor e it is r's coefficient at w^(e-1) (0 when r's leading
    exponent is lower), and for a limit e it is ladder_index(e, leading
    exponent of r).  The loop descends only into exponents, so the nesting
    of lam bounds it, never its coefficients.
    """
    if classify(lam) != "limit":
        raise ValueError(f"{lam} is not a limit ordinal")
    if not xi._key < lam._key:
        raise ValueError(f"{xi} is not below {lam}")
    while True:
        lt, k = lam.terms, len(lam.terms) - 1
        e, c = lt[k]
        xt = xi.terms
        if len(xt) <= k or xi._key[:k] != lam._key[:k]:
            return 0  # xi lies below lam's terms before the last: below d
        a, ca = xt[k]
        if a._key == e._key:
            if ca < c - 1:
                return 0  # xi < d = ... + w^e*(c-1)
            r = xt[k + 1 :]
        elif c > 1:
            return 0  # d ends in w^e*(c-1), above xi's lower term
        else:
            r = xt[k:]
        if not r:
            return 0  # xi is d itself
        lead, q = r[0]
        if not e.terms[-1][0].terms:  # successor e: rungs d + w^(e-1)*(n+1)
            return q if lead._key == pred(e)._key else 0
        lam, xi = e, lead  # limit e: rungs d + w^(e[n]), and xi < rung n iff lead < e[n]


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
    return add_ord(from_canonical(head), from_canonical(((descent_floor(e, low), 1),)))


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
# (even naturals get even keys, composites odd keys).


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


def decode_structural(code: int) -> Ordinal | None:
    """Inverse of _encode_terms; None when the integer codes no canonical
    ordinal.  Each step replaces the code by a part of
    ``cantor_unpair(code - 1)``, which is smaller, so decoding ends within
    the size of its input.
    """
    terms = []
    while code > 0:
        head, code = cantor_unpair(code - 1)
        key, cm1 = cantor_unpair(head)
        if key % 2 == 0:
            exp = from_nat(key // 2)
        else:
            exp = decode_structural((key - 1) // 2)
            if exp is None or exp.is_nat():
                return None
        terms.append((exp, cm1 + 1))
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if not e2 < e1:
            return None
    return Ordinal(terms)


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
    text = src[i:j]
    if not is_nat(text):
        raise CNFSyntaxError(_nat_error(text, "digits must be ASCII"), pos_of(i))
    return int(text), j


def is_nat(text: str) -> bool:
    """Whether text is a numeral: a non-empty run of ASCII decimal digits
    with no leading zero, ``0`` itself included.  str.isdigit alone also
    passes other scripts' digits and superscripts, and a leading zero would
    not survive printing, so ``parse(format(x))`` round trips only on this
    grammar."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1)


def read_nat(text: str) -> int:
    """The natural that the numeral ``text`` writes (see ``is_nat``).  int()
    alone would also read signs, underscores, surrounding spaces, leading
    zeros and other scripts' digits."""
    if not is_nat(text):
        raise ValueError(_nat_error(text, "digits must be naturals"))
    return int(text)


def _nat_error(text: str, otherwise: str) -> str:
    if text.isascii() and text.isdigit():
        return "numerals take no leading zero"
    return otherwise


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

