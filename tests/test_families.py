import random
from itertools import islice

import pytest

from treewedge.coherent import CoherentSystem
from treewedge.families import (
    BitFamily,
    BitNode,
    DigitFamily,
    DigitNode,
    InjFamily,
    InjNode,
    InjectivityError,
)
from treewedge.gen import rand_below, rand_bit_node, rand_digit_node, rand_inj_node
from treewedge.ordinal import OMEGA, ZERO, add_ord, block_decompose, from_nat, parse_cnf
from treewedge.trees import ExplicitTree

from test_trees import routing_step_by_order

W2 = parse_cnf("w^2")
ANCHORS = [parse_cnf(s) for s in ("w", "w*2", "w^2", "w^2+w", "w^3")]


@pytest.fixture(scope="module")
def coh():
    return CoherentSystem()


@pytest.fixture(scope="module")
def injs(coh):
    return InjFamily(coh)


@pytest.fixture(scope="module")
def bits(coh):
    return BitFamily(coh)


@pytest.fixture(scope="module")
def digits(bits):
    return DigitFamily(bits)


# --- injective family -----------------------------------------------------------

def test_inj_stem_node(injs, coh):
    x = injs.node(OMEGA, {})
    assert x.over == ()
    for n in range(5):
        assert injs.query(x, from_nat(n)) == coh.eval_e(OMEGA, from_nat(n))


def test_inj_even_override_accepted(injs):
    x = injs.node(OMEGA, {from_nat(3): 2})
    assert injs.query(x, from_nat(3)) == 2


def test_inj_base_collision_rejected(injs):
    with pytest.raises(InjectivityError):
        injs.node(from_nat(3), {ZERO: 5})  # 5 is already the value at position 1


def test_inj_duplicate_override_rejected(injs):
    with pytest.raises(InjectivityError):
        injs.node(OMEGA, {ZERO: 2, from_nat(1): 2})


def test_inj_successors_split(injs, coh):
    x = injs.node(from_nat(2), {})
    kids = list(islice(injs.successors(x), 6))
    assert len(kids) > 5  # the stream outruns a budget of 5
    kids = kids[:5]
    assert len(kids) == 5
    assert len(set(kids)) == 5
    for child in kids:
        assert injs.order(x, child) == "below"
    # stem child comes first: empty override set
    assert kids[0].over == ()


def test_inj_restrict_rebases(injs, coh):
    # restriction across anchors keeps the denoted values
    rng = random.Random(31)
    for alpha in ANCHORS:
        x = rand_inj_node(rng, injs, alpha)
        beta = rand_below(rng, alpha)
        y = injs.restrict(x, beta)
        assert injs.height(y) == beta
        for _ in range(20):
            if beta.is_zero():
                break
            xi = rand_below(rng, beta)
            assert injs.query(y, xi) == injs.query(x, xi)


def test_inj_canonical_extension_above(injs):
    rng = random.Random(32)
    for _ in range(100):
        alpha = rng.choice(ANCHORS)
        beta = rand_below(rng, alpha)
        x = rand_inj_node(rng, injs, beta)
        ext = injs.canonical_extension(x, alpha)
        assert injs.contains(ext)
        assert injs.order(x, ext) in ("below", "equal")


@pytest.mark.parametrize(
    "height, target",
    [("w", "w*2+3"), ("w", "w^2"), ("w*2", "w^2+1"), ("3", "w"), ("w*2", "w*3"), ("w^2", "w^2+w")],
)
def test_inj_canonical_extension_rekeys_an_odd_override(injs, coh, height, target):
    # x overrides position 2 with the odd value that the base at the target
    # puts at x's height h, so the extension must give position h a fresh
    # value; position 0 keeps its base value 1, which an odd fresh value
    # would repeat
    h, alpha = parse_cnf(height), parse_cnf(target)
    v = coh.eval_e(alpha, h)
    x = injs.node(h, {from_nat(2): v})
    assert v % 2 == 1 and injs.query(x, from_nat(2)) == v and injs.query(x, ZERO) == 1
    ext = injs.canonical_extension(x, alpha)
    assert injs.height(ext) == alpha
    assert injs.contains(ext)
    assert injs.restrict(ext, h) == x
    assert injs.query(ext, h) != v


# --- binary family ---------------------------------------------------------------

def test_char_stem_zero(bits):
    assert bits.char_stem(ZERO) == BitNode(ZERO, (), ())


def test_char_stem_values(bits):
    x = bits.char_stem(OMEGA)
    assert bits.query(x, from_nat(2)) == 1  # pairing sends (0, e(0)=1) to 2
    assert bits.query(x, ZERO) == 0


def test_char_delta_exact(bits):
    rng = random.Random(33)
    gammas = [g for g in ANCHORS]
    for a in gammas:
        assert bits.char_delta(a, a) == frozenset()
        for b in gammas:
            if a < b:
                delta = bits.char_delta(a, b)
                assert delta <= bits.char_delta_candidates(a, b)
                for eta in delta:
                    assert bits.stem_query(a, eta) != bits.stem_query(b, eta)
                for _ in range(30):
                    eta = rand_below(rng, a)
                    if eta not in delta:
                        assert bits.stem_query(a, eta) == bits.stem_query(b, eta)


def test_char_delta_memo_holds_one_entry_per_pair(coh):
    warm = BitFamily(coh)
    anchors = [ZERO] + ANCHORS
    pairs = [(a, b) for a in anchors for b in anchors if not b < a]
    for _ in range(2):
        for a, b in pairs:
            warm.char_delta(a, b)
    assert set(warm._delta) == set(pairs)
    for a, b in pairs:
        assert warm.char_delta(a, b) == BitFamily(CoherentSystem()).char_delta(a, b)
    # refused arguments leave no entry
    for a, b in [(add_ord(OMEGA, from_nat(1)), W2), (W2, OMEGA)]:
        with pytest.raises(ValueError):
            warm.char_delta(a, b)
    assert len(warm._delta) == len(pairs)


def test_bit_node_examples(bits):
    stem = bits.node(OMEGA, (), ())
    assert stem == bits.char_stem(OMEGA)
    member = bits.node(add_ord(OMEGA, from_nat(2)), (from_nat(5),), (1, 0))
    assert bits.query(member, from_nat(5)) == 1 - bits.stem_query(OMEGA, from_nat(5))
    assert bits.query(member, OMEGA) == 1
    assert bits.query(member, add_ord(OMEGA, from_nat(1))) == 0


def test_bit_two_successors(bits):
    rng = random.Random(34)
    for _ in range(100):
        alpha = rand_below(rng, parse_cnf("w^3"))
        x = rand_bit_node(rng, bits, alpha)
        kids = list(islice(bits.successors(x), 11))
        assert not len(kids) > 10
        assert len(kids) == 2
        for child in kids:
            assert bits.contains(child)
            assert bits.order(x, child) == "below"


def test_bit_downward_closed(bits):
    rng = random.Random(35)
    for _ in range(100):
        alpha = rng.choice(ANCHORS)
        x = rand_bit_node(rng, bits, alpha)
        beta = rand_below(rng, alpha)
        y = bits.restrict(x, beta)
        assert bits.contains(y)
        for _ in range(10):
            if beta.is_zero():
                break
            xi = rand_below(rng, beta)
            assert bits.query(y, xi) == bits.query(x, xi)


def test_bit_contains_checks_the_normal_form(bits):
    w1, w2 = parse_cnf("w+1"), parse_cnf("w+2")
    assert bits.contains(bits.node(w2, [from_nat(3), from_nat(1)], [0, 1]))
    assert bits.contains(BitNode(from_nat(2), (), (1, 0)))
    non_canonical = [
        BitNode(w2, (OMEGA,), (0, 1)),  # a flip at the block limit
        BitNode(w2, (w1,), (0, 1)),  # a flip above it
        BitNode(from_nat(2), (ZERO,), (0, 1)),  # a finite node has no flips
        BitNode(OMEGA, (from_nat(3), from_nat(1)), ()),  # unsorted flips
        BitNode(OMEGA, (from_nat(1), from_nat(1)), ()),  # a repeated flip
        BitNode(w2, (), (0,)),  # a tail shorter than the finite part
        BitNode(OMEGA, (), (1,)),  # a tail at a limit height
        BitNode(w1, (), (2,)),  # a tail digit that is not a bit
        # a slice of an Ordinal is a plain tuple equal to an Ordinal, and True
        # equals 1, so these equal their rebuilt normal forms
        BitNode(w1, (), (True,)),  # a bool tail bit
        BitNode(OMEGA, (((ZERO, 3),),), ()),  # a plain-tuple flip
        BitNode(((ZERO, 2),), (), (0, 1)),  # a plain-tuple height
        BitNode(5, (), ()),
        BitNode(OMEGA, 5, ()),
        BitNode(OMEGA, [from_nat(3)], ()),
    ]
    for x in non_canonical:
        assert bits.contains(x) is False, x
    assert not bits.contains(from_nat(2))
    assert bits.contains(BitNode(w1, (), (1,))) and bits.contains(BitNode(OMEGA, (from_nat(3),), ()))

def test_inj_contains_answers_false_on_an_override_above_the_height(injs):
    # node() raises a plain ValueError here, not an InjectivityError
    assert not injs.contains(InjNode(from_nat(2), ((from_nat(5), 3),)))


def test_inj_node_refuses_what_contains_refuses(injs):
    # a negative or float value, a bool, and a position that is no Ordinal
    for over in [
        {ZERO: -2},
        {ZERO: 2.5},
        {ZERO: True},
        {((ZERO, 1),): 2},  # a plain tuple equal to ONE
        {0: 2},
    ]:
        with pytest.raises(ValueError):
            injs.node(from_nat(2), over)
    assert injs.node(from_nat(2), {ZERO: 4}) == InjNode(from_nat(2), ((ZERO, 4),))


def test_inj_contains_checks_the_field_types(injs):
    # a plain tuple equal to an Ordinal, a bool or a negative value is no
    # node, and junk fields give False, not an error
    for x in [
        InjNode(((ZERO, 2),), ()),  # a plain-tuple height
        InjNode(OMEGA, ((((ZERO, 3),), 2),)),  # a plain-tuple position
        InjNode(5, ()),
        InjNode(OMEGA, 5),
        InjNode(OMEGA, [(ZERO, 3)]),
        InjNode(OMEGA, ((ZERO, 3, 4),)),
        InjNode(from_nat(2), ((ZERO, True),)),
        InjNode(from_nat(2), ((ZERO, -1),)),  # values are in omega
        InjNode(from_nat(2), ((ZERO, -2),)),
    ]:
        assert injs.contains(x) is False, x
    assert injs.contains(InjNode(from_nat(2), ()))


def test_digit_contains_checks_the_normal_form(bits, digits):
    base = bits.node(OMEGA, [from_nat(1), from_nat(3)], [])
    assert digits.contains(DigitNode(base, ((from_nat(2), 5),), (0, 7)))
    non_canonical = [
        DigitNode(None, (), (-1,)),  # a negative trail digit
        DigitNode(None, (), (True,)),  # a trail digit that is no int
        DigitNode(BitNode(OMEGA, (from_nat(3), from_nat(1)), ()), (), ()),  # a base with unsorted flips
        DigitNode(base, ((from_nat(4), 5), (from_nat(2), 5)), ()),  # an unsorted patch
        DigitNode(base, ((from_nat(2), 5), (from_nat(2), 6)), ()),  # a repeated patch position
        DigitNode(base, ((from_nat(1), 5),), ()),  # a patch on a flip
        DigitNode(base, ((from_nat(2), 1),), ()),  # a binary patch
        DigitNode(BitNode(OMEGA, (), ()), ((((ZERO, 3),), 2),), ()),  # a plain-tuple patch position
        DigitNode(base, ((from_nat(2), True),), ()),
        DigitNode(5, (), ()),
        DigitNode(base, 5, ()),
        DigitNode(None, (), 5),
    ]
    for x in non_canonical:
        assert digits.contains(x) is False, x


def test_bit_node_block_limit(bits, digits):
    # a node reads its block limit as its height when its tail is empty, so
    # every way to build a node must keep the tail as long as the height's
    # finite part
    rng = random.Random(36)
    for _ in range(100):
        alpha = rand_below(rng, parse_cnf("w^3+2"))
        x = rand_bit_node(rng, bits, alpha)
        beta = ZERO if alpha.is_zero() else rand_below(rng, alpha)
        nodes = [x, bits.restrict(x, beta), *bits.successors(x)]
        nodes.append(bits.canonical_extension(x, add_ord(alpha, parse_cnf("w+3"))))
        nodes.append(digits.embed_bits(x).base or x)
        for y in nodes:
            assert len(y.tail) == block_decompose(y.height).finite_part
            assert y.gamma == block_decompose(y.height).limit_part


# --- digit family ------------------------------------------------------------------

def test_digit_query_example(digits):
    u = digits.node([("d", 5)])
    assert digits.query(u, ZERO) == 5


def test_digit_restrict_finite(digits):
    u = digits.node([("d", 3), ("d", 7)])
    assert digits.restrict(u, from_nat(1)) == digits.node([("d", 3)])
    assert digits.restrict(u, digits.height(u)) == u


def test_digit_restrict_reads_digits_like_query(digits):
    # below the base, restrict reads the kept digits in one pass; each must
    # be the digit that query gives at its position, patched and flipped
    # positions included
    rng = random.Random(39)
    marked = checked = 0
    for _ in range(300):
        x = rand_digit_node(rng, digits, rng.choice(ANCHORS[1:]))
        hb = x.base.height
        marks = [p for p, _ in x.patch] + list(x.base.flips)
        if marks and rng.random() < 0.7:
            beta = add_ord(rng.choice(marks), from_nat(rng.randrange(1, 6)))
        else:
            beta = from_nat(rng.randrange(1, 40)) if rng.random() < 0.5 else rand_below(rng, hb)
        if not beta < hb:
            continue
        gamma, m = block_decompose(beta)
        positions = [add_ord(gamma, from_nat(i)) for i in range(m)]
        assert digits.restrict(x, beta).trail == tuple(digits.query(x, p) for p in positions)
        marked += sum(p in marks for p in positions)
        checked += len(positions)
    assert checked > 1000 and marked > 100


def test_embed_bits_agrees(digits, bits):
    rng = random.Random(36)
    for _ in range(50):
        alpha = rng.choice(ANCHORS + [from_nat(4), add_ord(W2, from_nat(2))])
        t = rand_bit_node(rng, bits, alpha)
        u = digits.embed_bits(t)
        assert digits.height(u) == bits.height(t)
        for _ in range(50):
            if alpha.is_zero():
                break
            xi = rand_below(rng, alpha)
            assert digits.query(u, xi) == bits.query(t, xi)


def test_glue_example(digits, bits):
    u = digits.node([("d", 5)])
    t = bits.char_stem(OMEGA)
    glued = digits.glue(u, t)
    assert glued == digits.node([("d", 5), ("tail", t)])
    assert digits.query(glued, ZERO) == 5
    rng = random.Random(37)
    for _ in range(30):
        xi = rand_below(rng, OMEGA)
        if not xi.is_zero():
            assert digits.query(glued, xi) == bits.query(t, xi)


def test_glue_restrict_middle(digits, bits):
    # restricting a glued node between the join and the limit keeps the bits
    u = digits.node([("d", 5)])
    t = bits.char_stem(OMEGA)
    glued = digits.glue(u, t)
    cut = digits.restrict(glued, from_nat(4))
    assert cut.base is None
    assert cut.trail[0] == 5
    assert cut.trail[1:] == tuple(bits.query(t, from_nat(i)) for i in (1, 2, 3))


def test_glue_closure_random(digits, bits):
    rng = random.Random(38)
    for _ in range(100):
        alpha = rng.choice(ANCHORS)
        beta = rand_below(rng, alpha)
        u = rand_digit_node(rng, digits, beta)
        t = rand_bit_node(rng, bits, alpha)
        glued = digits.glue(u, t)
        assert digits.contains(glued)
        assert digits.height(glued) == alpha
        assert digits.order(u, glued) in ("below", "equal")
        # u's values survive below the join, t's take over above it
        for _ in range(10):
            if beta.is_zero():
                break
            xi = rand_below(rng, beta)
            assert digits.query(glued, xi) == digits.query(u, xi)
        # every restriction stays in the family
        cut = rand_below(rng, alpha)
        lower = digits.restrict(glued, cut)
        assert digits.contains(lower)
        # and agrees pointwise with the glue
        for _ in range(10):
            if cut.is_zero():
                break
            xi = rand_below(rng, cut)
            assert digits.query(lower, xi) == digits.query(glued, xi)


def test_digit_height_is_base_height_plus_trail(digits):
    # the height of drawn nodes, with and without a base and a trail, is the
    # base's height plus the trail's length, as add_ord builds it
    rng = random.Random(40)
    for alpha in [from_nat(3), *ANCHORS, *(add_ord(a, from_nat(2)) for a in ANCHORS)]:
        for _ in range(20):
            x = rand_digit_node(rng, digits, rand_below(rng, add_ord(alpha, from_nat(1))))
            base = ZERO if x.base is None else x.base.height
            assert digits.height(x) == add_ord(base, from_nat(len(x.trail))), x


def test_digit_successors_stream(digits):
    u = digits.node([("d", 1)])
    kids = list(islice(digits.successors(u), 8))
    assert len(kids) > 7
    kids = kids[:7]
    assert [k.trail[-1] for k in kids] == list(range(7))


def test_digit_canonical_extension(digits):
    root = digits.root()
    assert digits.canonical_extension(root, from_nat(2)) == digits.node([("d", 0), ("d", 0)])
    rng = random.Random(39)
    for _ in range(100):
        alpha = rng.choice(ANCHORS)
        beta = rand_below(rng, alpha)
        x = rand_digit_node(rng, digits, beta)
        ext = digits.canonical_extension(x, alpha)
        assert digits.height(ext) == alpha
        assert digits.order(x, ext) in ("below", "equal")


@pytest.mark.parametrize("case", ["explicit", "inj", "bits-in-block", "bits-across-blocks", "digits"])
def test_canonical_extension_below_the_node_raises(case, injs, bits, digits):
    # every family refuses a target height below the node with the same
    # error, within a block and across blocks
    w1, w3 = parse_cnf("w+1"), parse_cnf("w+3")
    fam, x, alpha = {
        "explicit": (ExplicitTree.complete(2, 4), "010", from_nat(1)),
        "inj": (injs, injs.canonical_extension(injs.root(), w3), OMEGA),
        "bits-in-block": (bits, BitNode(w3, (), (0, 1, 1)), w1),
        "bits-across-blocks": (bits, bits.canonical_extension(bits.root(), parse_cnf("w*2+1")), w1),
        "digits": (digits, digits.canonical_extension(digits.root(), w3), w1),
    }[case]
    assert fam.order(fam.restrict(x, alpha), x) == "below"
    with pytest.raises(ValueError, match="target height below node"):
        fam.canonical_extension(x, alpha)


def test_order_equal_height_incomparable(digits):
    a = digits.node([("d", 1), ("d", 2)])
    b = digits.node([("d", 1), ("d", 3)])
    assert digits.order(a, b) == "incomparable"
    assert digits.order(a, a) == "equal"


def test_restrict_idempotent_compatible(digits, bits, injs):
    # the composition law restrict(restrict(x, b), c) == restrict(x, c) for
    # every c <= b <= height(x) among some cuts, which TreeFamily.step relies
    # on; the cuts take in x's own height and the block limit below it
    rng = random.Random(43)
    makers = [
        (bits, rand_bit_node),
        (digits, rand_digit_node),
        (injs, rand_inj_node),
    ]
    for fam, make in makers:
        for _ in range(50):
            alpha = add_ord(rng.choice(ANCHORS), from_nat(rng.randrange(3)))
            x = make(rng, fam, alpha)
            cuts = {alpha, ZERO, block_decompose(alpha).limit_part}
            cuts.update(rand_below(rng, alpha) for _ in range(3))
            cuts = sorted(cuts)
            for i, b in enumerate(cuts):
                xb = fam.restrict(x, b)
                for c in cuts[: i + 1]:
                    assert fam.restrict(xb, c) == fam.restrict(x, c), (x, b, c)


def test_step_matches_the_order_and_restrict_formula(digits, bits):
    # u runs over prefixes of x (its steps cross limit blocks), prefixes of
    # an independent node, x itself and nodes above x
    rng = random.Random(47)
    for fam, make in ((bits, rand_bit_node), (digits, rand_digit_node)):
        below = prefixes = 0
        for _ in range(15):
            alpha = add_ord(rng.choice(ANCHORS), from_nat(rng.randrange(1, 3)))
            x = make(rng, fam, alpha)
            y = make(rng, fam, alpha)
            cuts = sorted({ZERO, block_decompose(alpha).limit_part, *(rand_below(rng, alpha) for _ in range(4))})
            others = [fam.restrict(z, b) for z in (x, y) for b in cuts]
            others += [x, fam.canonical_extension(x, add_ord(alpha, from_nat(1)))]
            prefixes += len(cuts)
            for u in others:
                want = routing_step_by_order(fam, u, x)
                assert fam.step(u, x) == want, (u, x)
                assert fam.step(x, u) == routing_step_by_order(fam, x, u), (x, u)
                below += want is not None
        assert below >= prefixes


def test_downward_sets_are_chains(digits):
    rng = random.Random(44)
    for _ in range(30):
        alpha = rng.choice(ANCHORS)
        x = rand_digit_node(rng, digits, alpha)
        cuts = sorted({rand_below(rng, alpha) for _ in range(4)})
        prefixes = [digits.restrict(x, b) for b in cuts]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1 :]:
                assert digits.order(a, b) in ("below", "equal")


def test_symbolic_matches_explicit_oracle(bits):
    # below the first limit the binary family is the full binary tree, so
    # symbolic levels, successors and order must match the explicit oracle;
    # each level is walked up from the root through the successors
    from treewedge.trees import ExplicitTree

    tree = ExplicitTree.complete(2, 4)

    def as_id(node):
        return "r" if not node.tail else "".join(str(b) for b in node.tail)

    sym = [bits.root()]
    for depth in range(4):
        if depth:
            sym = [k for x in sym for k in bits.successors(x)]
        assert all(bits.height(x) == from_nat(depth) for x in sym)
        assert sorted(as_id(x) for x in sym) == sorted(tree.level_nodes(depth))
        for x in sym:
            sym_kids = [as_id(k) for k in bits.successors(x)]
            if depth < 3:
                assert sorted(sym_kids) == sorted(tree.children[as_id(x)])
        for x in sym:
            for y in sym:
                assert tree.order(as_id(x), as_id(y)) == bits.order(x, y)
