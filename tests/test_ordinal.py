import pickle
import random
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

from treewedge import gen, ordinal
from treewedge.ordinal import (
    CNFSyntaxError,
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add_ord,
    block_decompose,
    cantor_pair,
    classify,
    cmp_ord,
    decode_structural,
    descent_floor,
    from_canonical,
    from_nat,
    fund_seq,
    is_nat,
    ladder_index,
    pair_f,
    parse_cnf,
    pred,
    read_nat,
    structural_key,
    to_cnf,
    unpair_f,
)

W2 = parse_cnf("w^2")
W3 = parse_cnf("w^3")
WW = parse_cnf("w^(w)")


def rand_ordinal(rng, depth=2):
    """Random CNF ordinal with small exponents and coefficients."""
    if depth == 0 or rng.random() < 0.3:
        return from_nat(rng.randrange(0, 50))
    exps = []
    while len(exps) < rng.randrange(1, 4):
        e = rand_ordinal(rng, depth - 1)
        if all(e != x for x in exps):
            exps.append(e)
    exps.sort(reverse=True)
    terms = [(e, rng.randrange(1, 6)) for e in exps]
    if terms[-1][0].is_zero() and rng.random() < 0.5:
        terms.pop()
    return Ordinal(terms) if terms else ZERO


def ordinals(depth=2):
    return st.builds(lambda seed: rand_ordinal(random.Random(seed), depth), st.integers(0, 10**9))


# --- parsing / printing ------------------------------------------------------

def test_parse_zero():
    assert parse_cnf("0") == ZERO


def test_parse_direct_reading():
    a = parse_cnf("w^2*3+w+4")
    assert tuple(a) == ((from_nat(2), 3), (ONE, 1), (ZERO, 4))


def test_parse_rejects_non_canonical():
    with pytest.raises(CNFSyntaxError) as err:
        parse_cnf("w+w")
    assert err.value.pos == 2


def test_parse_rejects_ascending():
    with pytest.raises(CNFSyntaxError):
        parse_cnf("w+w^2")
    with pytest.raises(CNFSyntaxError):
        parse_cnf("3+4")


def test_parse_composite_exponent_needs_parens():
    assert parse_cnf("w^(w)") == WW
    with pytest.raises(CNFSyntaxError):
        parse_cnf("w^w")


def test_parse_nesting_cap():
    def tower(n):
        return "w^(" * n + "1" + ")" * n

    expected = ONE
    for _ in range(MAX_NESTING):
        expected = Ordinal([(expected, 1)])
    assert parse_cnf(tower(MAX_NESTING)) == expected
    with pytest.raises(CNFSyntaxError) as err:
        parse_cnf(tower(MAX_NESTING + 1))
    assert err.value.pos == 3 * MAX_NESTING + 2


def test_parse_ignores_whitespace():
    assert parse_cnf(" w^2 * 3 + 1 ") == parse_cnf("w^2*3+1")


@pytest.mark.parametrize("text, pos", [("w*\u0663", 2), ("w^\u00b2", 2), ("\u0663", 0), ("w+1\u0663", 2)])
def test_parse_takes_only_ascii_digits(text, pos):
    # str.isdigit passes an Arabic-Indic three and a superscript two
    with pytest.raises(CNFSyntaxError, match="digits must be ASCII") as err:
        parse_cnf(text)
    assert err.value.pos == pos


@pytest.mark.parametrize("text", ["00", "01", "w*007", "w^02", "w^(w*010)", "w+05", "w*2+00"])
def test_parse_rejects_leading_zeros(text):
    with pytest.raises(CNFSyntaxError, match="leading zero"):
        parse_cnf(text)


def test_numerals_take_no_leading_zero():
    assert [is_nat(t) for t in ("0", "7", "10", "100", "00", "01", "007", "", "-1", "1_0", " 1")] == [True] * 4 + [False] * 7
    assert read_nat("0") == 0 and read_nat("100") == 100
    with pytest.raises(ValueError, match="leading zero"):
        read_nat("01")


@pytest.mark.parametrize("text", ["0", "1", "10", "w", "w*10", "w^10*100+w^2+101", "w^(w+10)*20+w^(w)+w*30"])
def test_canonical_text_round_trips(text):
    assert to_cnf(parse_cnf(text)) == text


@given(ordinals(depth=3))
def test_print_parse_round_trip(a):
    assert parse_cnf(to_cnf(a)) == a


# --- comparison ---------------------------------------------------------------

def test_cmp_examples():
    assert cmp_ord(OMEGA + 1, parse_cnf("w*2")) == -1
    assert cmp_ord(WW, WW) == 0
    assert cmp_ord(W2, parse_cnf("w*5+3")) == 1


@given(ordinals(), ordinals(), ordinals())
def test_cmp_trichotomy_transitive(a, b, c):
    assert (a < b) + (b < a) + (a == b) == 1
    if a < b and b < c:
        assert a < c


def ref_cmp(a, b) -> int:
    """The term-by-term CNF comparison, recursing into the exponents itself,
    so that it shares no code with the comparison keys."""
    for (e1, c1), (e2, c2) in zip(a, b):
        sign = ref_cmp(e1, e2)
        if sign:
            return sign
        if c1 != c2:
            return -1 if c1 < c2 else 1
    return (len(a) > len(b)) - (len(a) < len(b))


class Hashed:
    """Stands for an exponent whose hash is already known."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def ref_hash(a) -> int:
    """hash(terms) with each exponent hashed the same way: what the keys'
    hash must equal, so that set and dict orders stay as they were."""
    return hash(tuple((Hashed(ref_hash(e)), c) for e, c in a))


def key_pairs(seed, count):
    """Seeded pairs from gen's generators: independent draws, one ordinal
    and one below it, and equal pairs built apart."""
    rng = random.Random(seed)
    for i in range(count):
        a = gen.rand_ordinal(rng, 3, 6)
        kind = i % 3
        if kind == 0:
            b = gen.rand_ordinal(rng, 3, 6)
        elif kind == 1 and not a.is_zero():
            b = gen.rand_below(rng, a)
        else:
            b = parse_cnf(to_cnf(a))
        yield (a, b) if rng.random() < 0.5 else (b, a)


def test_keys_match_recursive_comparison():
    signs = {-1: 0, 0: 0, 1: 0}
    for a, b in key_pairs(41, 6000):
        sign = ref_cmp(a, b)
        signs[sign] += 1
        assert cmp_ord(a, b) == sign, (a, b)
        assert (a < b, a == b, a > b, a <= b, a != b) == (sign < 0, sign == 0, sign > 0, sign <= 0, sign != 0)
        for x in (a, b):
            assert hash(x) == ref_hash(x)
    assert min(signs.values()) > 1000


def trusted_results(a, b, rng):
    """Results of every function that builds through from_canonical."""
    yield from_nat(rng.randrange(0, 10**6))
    yield add_ord(a, b)
    yield block_decompose(a).limit_part
    kind = classify(a)
    if kind == "successor":
        yield pred(a)
    if kind == "limit":
        yield fund_seq(a, rng.randrange(0, 40))
    if not a.is_zero():
        below = gen.rand_below(rng, a)
        yield below
        yield descent_floor(a, below)


def test_trusted_results_are_canonical():
    rng = random.Random(42)
    kinds = set()
    for a, b in key_pairs(41, 6000):
        for r in trusted_results(a, b, rng):
            checked = Ordinal(r)  # the full validation
            assert type(r) is Ordinal and r == checked and hash(r) == hash(checked)
            assert all(type(c) is int for _, c in r)
            kinds.add(classify(r))
    assert kinds == {"zero", "successor", "limit"}


@pytest.mark.parametrize(
    "terms, error",
    [
        ([(ZERO, 1), (ONE, 1)], ValueError),  # ascending exponents
        ([(ONE, 2), (ONE, 1)], ValueError),  # repeated exponent
        ([(OMEGA, 0)], ValueError),  # zero coefficient
        ([(ONE, 1), (ZERO, -3)], ValueError),
        ([(1, 1)], TypeError),  # exponent not an Ordinal
        ([((), 2)], TypeError),
        ([(ZERO, 2.7)], TypeError),  # coefficients are ints, never coerced
        ([(ONE, "3")], TypeError),
        ([(ONE, True)], TypeError),
        ([[ONE, 2]], TypeError),  # a term is a tuple
        ([(ONE, 2, 1)], TypeError),
    ],
)
def test_public_constructor_checks_terms(terms, error):
    with pytest.raises(error):
        Ordinal(terms)


def test_tuple_base_does_not_leak():
    # an Ordinal is the tuple of its terms; of tuple's operators only the
    # comparisons and truth are kept, + is ordinal addition, and * is refused
    a = parse_cnf("w^2+3")
    assert a + 1 == parse_cnf("w^2+4") and type(a + 1) is Ordinal
    assert OMEGA + OMEGA == parse_cnf("w*2") and ONE + OMEGA == OMEGA
    for op in (lambda: a * 2, lambda: 2 * a, lambda: a * a, lambda: 1 + a, lambda: a + ((ZERO, 1),)):
        with pytest.raises(TypeError):
            op()
    assert not ZERO and not from_nat(0) and not parse_cnf("0")
    twin = pickle.loads(pickle.dumps(a))
    assert type(twin) is Ordinal and twin == a
    sample = [x for pair in key_pairs(43, 600) for x in pair] + [ONE, OMEGA, from_nat(10**6)]
    assert all(bool(x) == (x != ZERO) for x in sample)
    assert sum(not x for x in sample) > 10


# --- addition -----------------------------------------------------------------

def oracle_add(a, b):
    """Right fold of single-term sums; independent of add_ord's list splice."""
    acc = []
    for term in reversed((*a, *b)):
        e, c = term
        if not acc:
            acc = [term]
        elif e < acc[0][0]:
            pass
        elif e == acc[0][0]:
            acc[0] = (e, c + acc[0][1])
        else:
            acc.insert(0, term)
    return Ordinal(acc)


def test_add_examples():
    assert add_ord(OMEGA, ONE) == parse_cnf("w+1")
    assert add_ord(ONE, OMEGA) == OMEGA
    assert add_ord(parse_cnf("w^2+w"), parse_cnf("w*3")) == parse_cnf("w^2+w*4")


@given(ordinals(), ordinals())
def test_add_matches_oracle(a, b):
    assert add_ord(a, b) == oracle_add(a, b)


@given(ordinals(), ordinals(), ordinals())
def test_add_associative_and_monotone(a, b, c):
    assert add_ord(add_ord(a, b), c) == add_ord(a, add_ord(b, c))
    if a < b:
        assert add_ord(c, a) < add_ord(c, b)


# --- classification / blocks ----------------------------------------------------

def test_classify():
    assert classify(ZERO) == "zero"
    assert classify(parse_cnf("w+4")) == "successor"
    assert classify(W2) == "limit"


def test_block_decompose():
    assert block_decompose(from_nat(5)) == (ZERO, 5)
    assert block_decompose(parse_cnf("w*2+3")) == (parse_cnf("w*2"), 3)
    assert block_decompose(W2) == (W2, 0)


@given(ordinals())
def test_block_round_trip(a):
    lam, m = block_decompose(a)
    assert add_ord(lam, from_nat(m)) == a
    assert classify(lam) in ("zero", "limit")


# --- fundamental sequences -------------------------------------------------------

def test_fund_seq_examples():
    assert fund_seq(OMEGA, 2) == from_nat(3)
    assert fund_seq(W2, 1) == parse_cnf("w*2")
    assert fund_seq(WW, 2) == W3


def test_fund_seq_requires_limit():
    with pytest.raises(ValueError):
        fund_seq(OMEGA + 1, 0)


@given(ordinals(depth=3), st.integers(0, 20))
def test_fund_seq_increasing_below(lam, n):
    if classify(lam) != "limit":
        return
    assert fund_seq(lam, n) < fund_seq(lam, n + 1)
    assert fund_seq(lam, n) < lam


def test_fund_seq_cofinal_in_small_limits():
    # every ordinal below the limit is eventually dominated along the ladder
    rng = random.Random(7)
    for lam in [OMEGA, parse_cnf("w*2"), W2, parse_cnf("w^2+w"), WW]:
        for _ in range(20):
            below = rand_below(rng, lam)
            assert any(below < fund_seq(lam, n) for n in range(64))


def small_ordinal(rng, depth):
    """Random ordinal with naturals below 6 and coefficients up to 3, so that
    its whole first-step descent stays short enough to walk."""
    if depth == 0 or rng.random() < 0.3:
        return from_nat(rng.randrange(0, 6))
    exps = sorted({small_ordinal(rng, depth - 1) for _ in range(rng.randrange(1, 4))}, reverse=True)
    return Ordinal([(e, rng.randrange(1, 4)) for e in exps])


def walk_descent(beta):
    """beta, then fund_seq(., 0) of each limit and pred of each successor,
    down to 0, one step at a time."""
    out = [beta]
    while not out[-1].is_zero():
        d = out[-1]
        out.append(fund_seq(d, 0) if classify(d) == "limit" else pred(d))
    return out


def test_descent_floor_matches_walk():
    rng = random.Random(31)
    checked = hits = 0
    while checked < 5000:
        beta = small_ordinal(rng, 3)
        walk = walk_descent(beta)
        rising = walk[::-1]
        for _ in range(16):
            if rng.random() < 0.5:
                # at or just above a member, where an off-by-one would show
                alpha = add_ord(rng.choice(walk), small_ordinal(rng, rng.randrange(3)))
            else:
                alpha = small_ordinal(rng, 3)
            if beta < alpha:
                continue
            expected = rising[bisect_left(rising, alpha)]
            assert descent_floor(beta, alpha) == expected, (beta, alpha)
            checked += 1
            hits += expected == alpha
    assert 0 < hits < checked


def test_descent_floor_examples():
    w5 = parse_cnf("w*5")
    assert descent_floor(w5, parse_cnf("w*3+2")) == parse_cnf("w*4")
    assert descent_floor(w5, parse_cnf("w*3")) == parse_cnf("w*3")
    assert descent_floor(W2, parse_cnf("w*3+2")) == W2
    assert descent_floor(WW, parse_cnf("w^5+3")) == WW
    assert descent_floor(parse_cnf("w^3+7"), parse_cnf("w^2*4")) == parse_cnf("w^3")
    assert descent_floor(parse_cnf("w^(w)*2"), from_nat(9)) == OMEGA
    assert descent_floor(parse_cnf("w^(w^(w^2*2+w*6))"), parse_cnf("w^(w^(w^2*2+w*4)+3)")) == parse_cnf(
        "w^(w^(w^2*2+w*4+1))"
    )
    assert descent_floor(parse_cnf("w*100000"), from_nat(6)) == OMEGA
    with pytest.raises(ValueError):
        descent_floor(OMEGA, OMEGA + 1)


def scan_ladder_index(lam, xi):
    """The oracle: walk the ladder until a rung passes xi."""
    n = 0
    while not xi < fund_seq(lam, n):
        n += 1
    return n


def test_ladder_index_matches_scan():
    rng = random.Random(43)
    checked = 0
    answers = {}
    while checked < 5000:
        lam = small_ordinal(rng, 3)
        if classify(lam) != "limit":
            continue
        for _ in range(8):
            if rng.random() < 0.5:
                # at or just above a rung, where an off-by-one would show
                xi = add_ord(fund_seq(lam, rng.randrange(6)), small_ordinal(rng, rng.randrange(3)))
            else:
                xi = small_ordinal(rng, 3)
            if not xi < lam:
                continue
            n = scan_ladder_index(lam, xi)
            assert ladder_index(lam, xi) == n, (lam, xi)
            checked += 1
            answers[min(n, 4)] = answers.get(min(n, 4), 0) + 1
    assert min(answers.values()) > 200, answers


def test_ladder_index_examples():
    big = 99999999999999999999
    assert ladder_index(W2, parse_cnf(f"w*{big}")) == big
    assert ladder_index(W2, parse_cnf(f"w*{big}+7")) == big
    assert ladder_index(OMEGA, from_nat(big)) == big
    assert ladder_index(WW, parse_cnf(f"w^{big}*3+w")) == big
    assert ladder_index(parse_cnf("w^2*2"), parse_cnf("w^2+w*5")) == 5
    assert ladder_index(parse_cnf("w^2*2"), parse_cnf("w*5")) == 0
    assert ladder_index(parse_cnf("w^(w)+w^2"), parse_cnf("w^(w)+w+4")) == 1
    for lam, xi in ((OMEGA + 1, ZERO), (ZERO, ZERO), (OMEGA, OMEGA), (W2, W2 + 1)):
        with pytest.raises(ValueError):
            ladder_index(lam, xi)


def rand_below(rng, bound):
    while True:
        a = rand_ordinal(rng, 2)
        if a < bound:
            return a


# --- pairing ----------------------------------------------------------------------

def test_pair_examples():
    assert cantor_pair(5, 0) == 15
    assert pair_f(from_nat(5), 0) == from_nat(15)
    assert pair_f(OMEGA + 2, 3) == parse_cnf("w+18")
    assert unpair_f(OMEGA) == (OMEGA, 0)


@given(ordinals(), st.integers(0, 200))
def test_pair_unpair_inverse(xi, n):
    eta = pair_f(xi, n)
    assert unpair_f(eta) == (xi, n)


def test_pair_unpair_inverse_bulk():
    rng = random.Random(12)
    for _ in range(10**4):
        xi = rand_ordinal(rng, 2)
        n = rng.randrange(0, 500)
        assert unpair_f(pair_f(xi, n)) == (xi, n)


def test_pair_image_below_limit():
    rng = random.Random(3)
    for gamma in [OMEGA, parse_cnf("w*3"), W2, WW]:
        for _ in range(200):
            xi = rand_below(rng, gamma)
            assert pair_f(xi, rng.randrange(0, 50)) < gamma


def test_pair_onto_limit():
    # every eta below a limit gamma is hit from a pair below gamma
    rng = random.Random(4)
    for gamma in [OMEGA, W2]:
        for _ in range(200):
            eta = rand_below(rng, gamma)
            xi, n = unpair_f(eta)
            assert xi < gamma
            assert pair_f(xi, n) == eta


# --- structural codes ----------------------------------------------------------------

def test_structural_key_round_trip():
    rng = random.Random(11)
    for _ in range(500):
        a = rand_ordinal(rng, 3)
        if a.is_nat():
            continue
        code = structural_key(a)
        assert code % 2 == 1
        assert decode_structural((code - 1) // 2) == a


def test_decode_structural_needs_no_budget():
    # decoding needs no step budget: each step shrinks the code, so random
    # codes of up to 10,000 bits end, each as None or as its own ordinal
    rng = random.Random(12)
    codes = list(range(2000)) + [rng.getrandbits(rng.randint(1, 10_000)) for _ in range(300)]
    decoded = 0
    for code in codes:
        a = decode_structural(code)
        if a is not None:
            decoded += 1
            assert ordinal._encode_terms(a) == code
    assert decoded > 100


def test_code_collision_scan():
    rng = random.Random(5)
    seen = {}
    for _ in range(10**4):
        a = rand_ordinal(rng, 3)
        code = structural_key(a)
        assert seen.setdefault(code, a) == a, f"collision at {a} vs {seen[code]}"


# --- shared naturals and the natural-bound draw ----------------------------------------

def test_small_naturals_are_shared():
    assert from_nat(0) is ZERO
    assert from_nat(1) is ONE
    for n in (2, 5, 64, 1023):
        assert from_nat(n) is from_nat(n)
        assert from_nat(n) == Ordinal([(ZERO, n)])
    assert block_decompose(from_nat(5)).limit_part is ZERO
    assert block_decompose(from_nat(5)).finite_part == 5
    assert block_decompose(OMEGA + 3).limit_part == OMEGA
    with pytest.raises(ValueError):
        from_nat(-1)


def test_shared_natural_table_stays_small_and_int_keyed():
    from_nat(2)  # shared: 2.0 finds it in the table, and must still raise
    for n in (2.5, 1024.7, 2.0, 0.0, -1.0, "3", None):
        with pytest.raises(TypeError):
            from_nat(n)
    assert from_nat(True) is ONE
    assert from_nat(10**6) == Ordinal([(ZERO, 10**6)])
    assert all(type(n) is int and 0 <= n < ordinal.SHARED_NATS for n in ordinal._nats)


def prefix_rand_below(rng, bound, coeff_cap=5):
    """gen.rand_below in its general prefix-list form on every bound, kept
    verbatim as the oracle for the short cut it takes on natural bounds."""
    if bound.is_zero():
        raise ValueError("no ordinal below zero")
    terms = tuple(bound)
    i = rng.randrange(len(terms))
    prefix = list(terms[:i])
    e, c = terms[i]
    c2 = rng.randrange(c)
    if c2:
        prefix.append((e, c2))
    if e.is_zero():
        return from_canonical(tuple(prefix))
    exps = []
    for _ in range(rng.randrange(0, 3)):
        x = prefix_rand_below(rng, e, coeff_cap)
        if all(x != y for y in exps):
            exps.append(x)
    exps.sort(reverse=True)
    prefix.extend((x, rng.randrange(1, coeff_cap + 1)) for x in exps)
    return from_canonical(tuple(prefix))


def test_rand_below_keeps_the_draw_stream():
    bounds = [from_nat(1), from_nat(7), from_nat(64), OMEGA, parse_cnf("w^2+w"), WW, parse_cnf("w^(w)*2+w+3")]
    fast, slow = random.Random(61), random.Random(61)
    nats = 0
    for i in range(6000):
        bound = bounds[i % len(bounds)]
        a, b = gen.rand_below(fast, bound), prefix_rand_below(slow, bound)
        assert a == b, (bound, a, b)
        nats += a.is_nat()
    assert fast.getstate() == slow.getstate()
    assert nats > 2000
