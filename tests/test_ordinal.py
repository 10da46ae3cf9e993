import random
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

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
    from_nat,
    fund_seq,
    godel_code,
    omega_pow,
    pair_f,
    parse_cnf,
    pred,
    structural_key,
    to_cnf,
    unpair_f,
)

W2 = omega_pow(from_nat(2))
W3 = omega_pow(from_nat(3))
WW = omega_pow(OMEGA)


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
    assert a.terms == ((from_nat(2), 3), (ONE, 1), (ZERO, 4))


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


# --- addition -----------------------------------------------------------------

def oracle_add(a, b):
    """Right fold of single-term sums; independent of add_ord's list splice."""
    acc = []
    for term in reversed(a.terms + b.terms):
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

def test_godel_code_identity_on_naturals():
    for n in (0, 1, 7, 123456):
        assert godel_code(from_nat(n)) == n


def test_godel_code_first_composite():
    assert godel_code(OMEGA) >= 1 << 40


def test_structural_key_round_trip():
    rng = random.Random(11)
    for _ in range(500):
        a = rand_ordinal(rng, 3)
        if a.is_nat():
            continue
        code = structural_key(a)
        assert code % 2 == 1
        assert decode_structural((code - 1) // 2) == a


def test_code_collision_scan():
    rng = random.Random(5)
    seen = {}
    for _ in range(10**4):
        a = rand_ordinal(rng, 3)
        code = godel_code(a)
        assert seen.setdefault(code, a) == a, f"collision at {a} vs {seen[code]}"
