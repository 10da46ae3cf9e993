import copy
import pickle
import random
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, strategies as st

from treewedge.sorgenfrey import (
    HalfOpenInterval,
    SeparationError,
    TaggedPoint,
    _lex_between,
    dense_injection,
    find_between,
    format_interval,
    format_point,
    isolating_box,
    neg,
    parse_point,
    point_above,
    point_below,
    trim,
    uncovered_left_endpoints,
)
from treewedge.suites import _points


def seqs():
    return st.lists(st.integers(0, 5), min_size=0, max_size=5).map(
        lambda xs: trim(xs + [1])
    )


def points():
    return st.builds(TaggedPoint, st.sampled_from(["L", "R"]), seqs())


def L(*digits):
    return TaggedPoint("L", trim(digits))


def R(*digits):
    return TaggedPoint("R", trim(digits))


def rand_point(rng):
    seq = trim([rng.randrange(0, 5) for _ in range(rng.randrange(0, 4))] + [rng.randrange(1, 5)])
    return TaggedPoint(rng.choice("LR"), seq)


def point_cmp(p: TaggedPoint, q: TaggedPoint) -> int:
    """-1, 0 or 1 by the points' native tuple order."""
    return (p > q) - (p < q)


def lex_cmp(a, b) -> int:
    """Lexicographic comparison of the zero-padded sequences, digit by digit:
    the independent oracle for point_cmp's native tuple order."""
    n = max(len(a), len(b))
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        if x != y:
            return -1 if x < y else 1
    return 0


# --- order -----------------------------------------------------------------------

def test_point_cmp_matches_padded_lex_order():
    rng = random.Random(52)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(10**4):
        p = rand_point(rng)
        q = TaggedPoint(p.side, p.seq) if rng.random() < 0.1 else rand_point(rng)
        if p.side == q.side:
            sign = lex_cmp(p.seq, q.seq)
            signs[sign] += 1
            assert point_cmp(p, q) == (sign if p.side == "L" else -sign), (p, q)
        else:
            assert point_cmp(p, q) == (-1 if p.side == "L" else 1)
    assert min(signs.values()) > 500


@pytest.mark.parametrize(
    "seq, message",
    [
        ((1, -1), "digits must be naturals"),
        ((-1,), "digits must be naturals"),
        ((0, -2), "digits must be naturals"),
        ([1, 2], "must be a tuple"),
        ((), "nonzero and trimmed"),
        ((1, 0), "nonzero and trimmed"),
        ((1.5,), "digits must be naturals"),  # would format as L:1.5
        ((True,), "digits must be naturals"),
        (("a",), "digits must be naturals"),
        ((2, 1.0), "digits must be naturals"),
    ],
)
def test_point_rejects_bad_sequences(seq, message):
    with pytest.raises(ValueError, match=message):
        TaggedPoint("L", seq)


def ref_point_cmp(p, q) -> int:
    """The doubled order from its definition: L below R, then the padded
    lexicographic order of the digits, reversed on R."""
    if p.side != q.side:
        return -1 if p.side == "L" else 1
    sign = lex_cmp(p.seq, q.seq)
    return sign if p.side == "L" else -sign


def test_points_are_their_own_sort_keys():
    # the tuple's C order, equality, hash and sort against the oracle, over
    # the suite's listed space, seeded draws and equal points built apart
    rng = random.Random(30)
    drawn = [rand_point(rng) for _ in range(600)]
    pool = _points() + drawn + [TaggedPoint(p.side, p.seq) for p in drawn[:200]]
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(20000):
        p, q = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.1:
            q = TaggedPoint(p.side, p.seq)
        sign = ref_point_cmp(p, q)
        signs[sign] += 1
        assert (p < q, p <= q, p == q, p != q, p > q, p >= q) == (
            sign < 0, sign <= 0, sign == 0, sign != 0, sign > 0, sign >= 0
        ), (p, q)
        assert point_cmp(p, q) == sign
        assert (hash(p) == hash(q)) >= (sign == 0)
    assert min(signs.values()) > 1000
    rng.shuffle(pool)
    text = [format_point(p) for p in sorted(pool)]
    assert text == [format_point(p) for p in sorted(pool, key=cmp_to_key(ref_point_cmp))]
    assert len(set(pool)) == len(set(text)) < len(pool)


def test_point_reads_as_side_and_sequence():
    p = R(2, 0, 1)
    assert (p.side, p.seq) == ("R", (2, 0, 1))
    assert repr(p) == "TaggedPoint(side='R', seq=(2, 0, 1))"
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is TaggedPoint and twin == p
    assert R(1, 1) < R(1) and L(1, 1) < R(2, 0, 1) < R(2) and not R(1) < R(1)


def test_lex_prefix_rule():
    assert lex_cmp((1,), (1, 1)) == -1
    assert point_cmp(L(1), L(1, 1)) == -1


def test_blocks():
    assert L(5, 5) < R(1)


@given(points(), points(), points())
def test_total_transitive(a, b, c):
    assert (a < b) + (b < a) + (point_cmp(a, b) == 0) == 1
    if a < b and b < c:
        assert a < c


def test_neg_involution():
    p = L(1, 0, 2)
    assert neg(neg(p)) == p


@given(points(), points())
def test_neg_order_reversing(p, q):
    if p < q:
        assert neg(q) < neg(p)


@given(points())
def test_no_endpoints(p):
    assert point_below(p) < p
    assert p < point_above(p)


# --- density -----------------------------------------------------------------------

def test_find_between_gap_rule():
    assert find_between(L(1), L(3)) == L(2)


def test_find_between_fresh_position():
    assert find_between(L(1), L(2)) == L(1, 1)


def lex_between_by_index(s, t) -> tuple:
    """The index-by-index body that _lex_between replaced, as it was."""
    n = max(len(s), len(t))
    k = 0
    while k < n:
        a = s[k] if k < len(s) else 0
        b = t[k] if k < len(t) else 0
        if a != b:
            break
        k += 1
    else:
        raise ValueError("sequences are equal")
    a = s[k] if k < len(s) else 0
    b = t[k] if k < len(t) else 0
    prefix = tuple(s[i] if i < len(s) else 0 for i in range(k))
    if b - a >= 2:
        return trim(prefix + (a + 1,))
    padded = tuple(s) + (0,) * (n - len(s))
    return trim(padded + (1,))


def test_lex_between_matches_the_index_by_index_body():
    # every ordered pair of trimmed sequences of up to 3 digits below 5
    trimmed = sorted({trim(d) for n in range(4) for d in product(range(5), repeat=n)})
    assert len(trimmed) == 1 + 4 + 20 + 100
    for s, t in product(trimmed, repeat=2):
        if s == t:
            with pytest.raises(ValueError):
                _lex_between(s, t)
            continue
        assert _lex_between(s, t) == lex_between_by_index(s, t), (s, t)


def test_find_between_random():
    rng = random.Random(50)
    for _ in range(10**4):
        a, b = rand_point(rng), rand_point(rng)
        if point_cmp(a, b) == 0:
            continue
        if b < a:
            a, b = b, a
        z = find_between(a, b)
        assert a < z and z < b


def test_trusted_points_pass_the_checked_constructor():
    # neg, find_between, point_below and point_above build unchecked
    rng = random.Random(29)
    for _ in range(2000):
        x, y = rand_point(rng), rand_point(rng)
        if y < x:
            x, y = y, x
        built = [neg(x), point_below(x), point_above(x)]
        if x < y:
            built.append(find_between(x, y))
        for p in built:
            checked = TaggedPoint(p.side, p.seq)
            assert checked == p and hash(checked) == hash(p)


def test_find_between_cross_side():
    a, b = L(2), R(1)
    z = find_between(a, b)
    assert a < z and z < b


# --- isolation ------------------------------------------------------------------------

def test_box_contains_its_diagonal_point():
    rng = random.Random(51)
    for _ in range(100):
        x = rand_point(rng)
        u, v, box = isolating_box(x)
        assert u < x and x < v
        assert box.contains((x, neg(x)))


def test_box_excludes_other_diagonal_points():
    rng = random.Random(52)
    for _ in range(100):
        x = rand_point(rng)
        _, _, box = isolating_box(x)
        for _ in range(200):
            y = rand_point(rng)
            if point_cmp(y, x) != 0:
                assert not box.contains((y, neg(y)))


# --- endpoint scan ------------------------------------------------------------------------

def test_uncovered_single_interval():
    a, b = L(1), L(3)
    assert uncovered_left_endpoints([HalfOpenInterval(a, b)]) == {a}


def test_uncovered_abutting():
    a, b, c = L(1), L(2), L(3)
    ivs = [HalfOpenInterval(a, b), HalfOpenInterval(b, c)]
    assert uncovered_left_endpoints(ivs) == {a, b}


def test_uncovered_interior_endpoint():
    a, b, c = L(1), L(2), L(3)
    ivs = [HalfOpenInterval(a, c), HalfOpenInterval(b, c)]
    assert uncovered_left_endpoints(ivs) == {a}


def test_uncovered_matches_bruteforce():
    rng = random.Random(53)
    for _ in range(200):
        pts = sorted({rand_point(rng) for _ in range(8)})
        if len(pts) < 4:
            continue
        ivs = []
        for _ in range(4):
            i = rng.randrange(len(pts) - 1)
            j = rng.randrange(i + 1, len(pts))
            ivs.append(HalfOpenInterval(pts[i], pts[j]))
        got = uncovered_left_endpoints(ivs)
        # brute force: every left endpoint, scanned against every interior
        expect = set()
        for iv in ivs:
            if all(not (o.lo < iv.lo and iv.lo < o.hi) for o in ivs):
                expect.add(iv.lo)
        assert got == expect


# --- injection ---------------------------------------------------------------------------

def test_injection_monotone():
    xs = [L(1), L(2), L(3)]
    bounds = {L(1): L(1, 5), L(2): L(2, 5), L(3): L(3, 5)}
    out = dense_injection(xs, bounds)
    assert out[L(1)] < out[L(2)] and out[L(2)] < out[L(3)]
    for x in xs:
        assert x < out[x] and out[x] < bounds[x]


def test_injection_singleton():
    out = dense_injection([L(7)], {L(7): L(8)})
    assert L(7) < out[L(7)] and out[L(7)] < L(8)


def test_injection_rejects_overrun():
    with pytest.raises(SeparationError):
        dense_injection([L(1), L(2)], {L(1): L(3), L(2): L(4)})


# --- literals ----------------------------------------------------------------------------

def test_point_literals():
    assert parse_point("L:1.0.2") == L(1, 0, 2)
    assert parse_point("R:3") == R(3)
    assert parse_point(format_point(L(4, 1))) == L(4, 1)


@pytest.mark.parametrize("text", ["L:1_0", "L:+1", "R:\u0663", "L:1.", "L:1.-1"])
def test_point_digits_are_ascii_naturals(text):
    with pytest.raises(ValueError, match="digits must be naturals"):
        parse_point(text)


@pytest.mark.parametrize("text", ["L:01", "R:00.1", "L:1.007", "R:2.0.03"])
def test_point_digits_take_no_leading_zero(text):
    with pytest.raises(ValueError, match="leading zero"):
        parse_point(text)


@pytest.mark.parametrize("text", ["L:1", "R:10", "L:0.1", "R:0.0.10.3", "L:100.0.2"])
def test_canonical_point_literals_round_trip(text):
    assert format_point(parse_point(text)) == text


@given(points())
def test_drawn_point_literals_round_trip(p):
    assert parse_point(format_point(p)) == p


def test_interval_literal_round_trip():
    iv = HalfOpenInterval(L(1), R(2))
    assert format_interval(iv) == "[L:1,R:2)"
