import random

import pytest

from treewedge.coherent import CoherentSystem
from treewedge.ordinal import OMEGA, ZERO, Ordinal, from_nat, parse_cnf

from test_cli_fuzz import deadline
from test_ordinal import rand_below

ANCHORS = [parse_cnf(s) for s in ("w", "w*2", "w^2", "w^2+w", "w^3")]


@pytest.fixture(scope="module")
def coh():
    return CoherentSystem()


def test_eval_base_values(coh):
    assert coh.eval_e(from_nat(3), from_nat(1)) == 5
    assert coh.eval_e(from_nat(1), ZERO) == 1


def test_eval_domain_guard():
    # the memo is read before the check, so a miss must be refused both on
    # an empty memo and on one that holds other keys
    coh = CoherentSystem()
    with pytest.raises(ValueError):
        coh.eval_e(from_nat(3), from_nat(3))
    for n in range(3):
        coh.eval_e(from_nat(3), from_nat(n))
        coh.eval_e(from_nat(4), from_nat(n + 1))
    coh.eval_e(OMEGA, from_nat(3))
    assert coh._eval
    for alpha, xi in ((from_nat(3), from_nat(3)), (from_nat(3), from_nat(4)), (from_nat(4), OMEGA), (OMEGA, OMEGA)):
        with pytest.raises(ValueError, match="not below anchor"):
            coh.eval_e(alpha, xi)
    # the memo is keyed by the (anchor, position) pairs themselves
    assert all(type(alpha) is type(xi) is Ordinal and xi < alpha for alpha, xi in coh._eval)


def test_omega_block_is_plain(coh):
    for n in range(10):
        assert coh.eval_e(OMEGA, from_nat(n)) == 4 * n + 1
    assert coh.correction_table(OMEGA, 10) == {}


def test_delta_reflexive_and_nat_vs_omega(coh):
    assert coh.delta_e(OMEGA, OMEGA) == frozenset()
    for n in range(12):
        assert coh.delta_e(from_nat(n), OMEGA) == frozenset()


def test_delta_exactness_pointwise(coh):
    rng = random.Random(20)
    pairs = [(a, b) for a in ANCHORS for b in ANCHORS if a < b]
    for alpha, beta in pairs:
        delta = coh.delta_e(alpha, beta)
        for xi in delta:
            assert coh.eval_e(alpha, xi) != coh.eval_e(beta, xi)
        for _ in range(50):
            xi = rand_below(rng, alpha)
            if xi not in delta:
                assert coh.eval_e(alpha, xi) == coh.eval_e(beta, xi)


def test_delta_known_witness(coh):
    # the w*2 anchor keeps the successor-birth value at position w, while
    # every anchor whose ladder passes through w re-keys it
    d = coh.delta_e(parse_cnf("w*2"), parse_cnf("w^2"))
    assert d == frozenset([OMEGA])


def test_value_parity(coh):
    rng = random.Random(21)
    for alpha in ANCHORS:
        for _ in range(200):
            v = coh.eval_e(alpha, rand_below(rng, alpha))
            assert v % 2 == 1
            assert v % 4 in (1, 3)


def test_injectivity_sampled(coh):
    rng = random.Random(22)
    for alpha in ANCHORS:
        seen = {}
        for _ in range(1000):
            xi = rand_below(rng, alpha)
            v = coh.eval_e(alpha, xi)
            assert seen.setdefault(v, xi) == xi
        for xi, eta in [(rand_below(rng, alpha), rand_below(rng, alpha)) for _ in range(200)]:
            if xi != eta:
                assert coh.eval_e(alpha, xi) != coh.eval_e(alpha, eta)


def test_determinism_fresh_system(coh):
    other = CoherentSystem()
    rng = random.Random(23)
    for alpha in ANCHORS:
        for _ in range(100):
            xi = rand_below(rng, alpha)
            assert coh.eval_e(alpha, xi) == other.eval_e(alpha, xi)
        for beta in ANCHORS:
            if alpha <= beta:
                assert coh.delta_e(alpha, beta) == other.delta_e(alpha, beta)


def test_triangle_bound(coh):
    for a in ANCHORS:
        for b in ANCHORS:
            for c in ANCHORS:
                if a < b and b < c:
                    lhs = coh.delta_e(a, c)
                    rhs = set(coh.delta_e(a, b)) | {x for x in coh.delta_e(b, c) if x < a}
                    assert lhs <= rhs


def test_range_test_examples(coh):
    assert coh.position_of_value(OMEGA, 2) is None
    assert coh.position_of_value(from_nat(3), 5) == from_nat(1)
    assert coh.position_of_value(from_nat(3), 531) is None
    assert coh.position_of_value(from_nat(3), 9999) is None


def test_range_test_decodes_a_long_composite_position(coh):
    # a 12-term position below w^13: its value has thousands of bits, and
    # the range test decodes it without a step budget
    xi = parse_cnf("w^12+w^11+w^10+w^9+w^8+w^7+w^6+w^5+w^4+w^3+w^2+w")
    alpha = parse_cnf("w^13")
    v = coh.eval_e(alpha, xi)
    assert len(xi) == 12 and v.bit_length() == 6681
    assert coh.position_of_value(alpha, v) == xi


def test_range_test_round_trip(coh):
    rng = random.Random(24)
    for alpha in ANCHORS:
        for _ in range(100):
            xi = rand_below(rng, alpha)
            v = coh.eval_e(alpha, xi)
            assert coh.position_of_value(alpha, v) == xi


def test_correction_table_matches_eval(coh):
    w2 = parse_cnf("w^2")
    table = coh.correction_table(w2, 5)
    assert table, "w^2 must re-key its composite ladder points"
    for p, v in table.items():
        assert coh.eval_e(w2, p) == v


def test_correction_table_ignores_call_history():
    w2 = parse_cnf("w^2")
    fresh = CoherentSystem().correction_table(w2, 2)
    used = CoherentSystem()
    used.eval_e(w2, parse_cnf("w*7"))
    assert used.correction_table(w2, 2) == fresh
    assert len(fresh) == 2


def test_long_ladders_answer_in_time():
    # both walk a first-step descent of length linear in the coefficient
    # unless they jump along it
    with deadline(2):
        assert CoherentSystem().delta_e(parse_cnf("w*800"), parse_cnf("w^2")) == frozenset(
            parse_cnf(f"w*{k}") for k in range(1, 800)
        )
    with deadline(2):
        assert CoherentSystem().eval_e(parse_cnf("w*100000"), from_nat(5)) == 21
