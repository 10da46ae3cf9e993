import random
import re

import pytest

from treewedge.coherent import CoherentSystem
from treewedge.families import BitFamily, DigitFamily, InjFamily
from treewedge.gen import rand_below, rand_bit_node, rand_digit_node
from treewedge.literals import _parse_t, format_node, parse_cover, parse_node
from treewedge.ordinal import OMEGA, from_nat, parse_cnf
from treewedge.trees import ExplicitTree
from treewedge.wedge import BinaryInsideDigits, PatchedCover, TruncatedSubtree

ANCHORS = [parse_cnf(s) for s in ("w", "w*2", "w^2", "w^2+w", "w^3")]


@pytest.fixture(scope="module")
def ws():
    coh = CoherentSystem()
    bits = BitFamily(coh)
    return InjFamily(coh), bits, DigitFamily(bits)


def test_t_round_trip(ws):
    # a t: literal is read only as the tail of a u: literal
    injs, bits, digits = ws
    rng = random.Random(71)
    tails = 0
    for _ in range(50):
        alpha = rand_below(rng, parse_cnf("w^3"))
        u = digits.embed_bits(rand_bit_node(rng, bits, alpha))
        text = format_node(digits, u)
        assert ("tail(t:" in text) == (u.base is not None)
        assert parse_node(digits, text) == u
        tails += u.base is not None
    assert tails > 0


def test_u_round_trip(ws):
    injs, bits, digits = ws
    rng = random.Random(72)
    for _ in range(50):
        alpha = rng.choice(ANCHORS + [from_nat(3), parse_cnf("w^2+3")])
        x = rand_digit_node(rng, digits, alpha)
        assert parse_node(digits, format_node(digits, x)) == x


def test_u_component_example(ws):
    injs, bits, digits = ws
    stem = bits.char_stem(OMEGA)
    lit = f"u:[d{bits.query(stem, from_nat(0))},tail(t:w:{{}}:[])@w,d0]"
    node = parse_node(digits, lit)
    assert node.base == stem
    assert node.patch == ()  # the leading digit agreed with the stem
    assert node.trail == (0,)


def test_literal_digits_allow_only_surrounding_spaces(ws):
    injs, bits, digits = ws
    spaced = parse_node(digits, "u:[tail(t:w:{}:[])@w,patch(0= 1)]")
    assert spaced == parse_node(digits, "u:[tail(t:w:{}:[])@w,patch(0=1)]")
    assert _parse_t(bits, "t:w+1:{}:[ 1 ]") == bits.node(parse_cnf("w+1"), [], [1])
    with pytest.raises(ValueError, match="digits must be naturals"):
        _parse_t(bits, "t:w+1:{}:[+1]")


def with_leading_zeros(text):
    """text with a 0 put before each of its numerals in turn."""
    for m in re.finditer(r"(?<![0-9])[0-9]+", text):
        yield text[: m.start()] + "0" + text[m.start() :]


def test_canonical_u_literals_round_trip_and_take_no_leading_zero(ws):
    injs, bits, digits = ws
    rng = random.Random(73)
    texts = ["u:[]", "u:[d0,d10]", "u:[tail(t:w:{}:[])@w,d0]", "u:[tail(t:w*2:{w+3}:[])@w*2,patch(w+10=20),d7]"]
    for _ in range(60):
        alpha = rng.choice(ANCHORS + [from_nat(12), parse_cnf("w^2+13")])
        texts.append(format_node(digits, rand_digit_node(rng, digits, alpha)))
    zeros = 0
    for text in texts:
        assert format_node(digits, parse_node(digits, text)) == text
        for bad in with_leading_zeros(text):
            with pytest.raises(ValueError):
                parse_node(digits, bad)
            zeros += 1
    assert zeros > 200


@pytest.mark.parametrize("text", ["u:[d01]", "u:[d00]", "u:[tail(t:w:{}:[])@w,patch(3=02)]", "u:[tail(t:w+1:{}:[01])@w+1]"])
def test_u_literals_reject_leading_zeros(ws, text):
    injs, bits, digits = ws
    with pytest.raises(ValueError):
        parse_node(digits, text)


@pytest.mark.parametrize("text", ["te:w:{}", "t:w:{}:[]", "r"])
def test_digit_nodes_are_u_literals(ws, text):
    injs, bits, digits = ws
    with pytest.raises(ValueError, match="cannot parse node literal"):
        parse_node(digits, text)


def test_explicit_nodes_are_ids():
    tree = ExplicitTree.complete(2, 3)
    assert parse_node(tree, " 01 ") == "01"
    assert format_node(tree, "01") == "01"
    with pytest.raises(ValueError, match="unknown explicit node 'u:\\[d0\\]'"):
        parse_node(tree, "u:[d0]")


def test_cover_round_trip(ws):
    # each cover literal parses to the rule it names: class, height, table
    injs, bits, digits = ws
    tinu = parse_cover(" subtree(T-in-U) ", digits)
    assert type(tinu) is BinaryInsideDigits
    assert tinu.family is digits

    trunc = parse_cover("subtree(T-in-U<w*2)", digits)
    assert type(trunc) is TruncatedSubtree
    assert type(trunc.inner) is BinaryInsideDigits
    assert trunc.h == parse_cnf("w*2")

    u = digits.node([("d", 0)])
    child = digits.node([("d", 0), ("d", 1)])
    patched = parse_cover("patched(subtree(T-in-U); u:[d0]=>{u:[d0,d1]})", digits)
    assert type(patched) is PatchedCover
    assert type(patched.core) is BinaryInsideDigits
    assert patched.table == {u: (child,)}

    cut = parse_cover("patched(subtree(T-in-U<w); u:[]=>{})", digits)
    assert type(cut) is PatchedCover
    assert type(cut.core) is TruncatedSubtree
    assert cut.core.h == OMEGA
    assert cut.table == {digits.root(): ()}

    # a second layer flattens into one table over the core, its rows winning
    other = digits.node([("d", 0), ("d", 0)])
    merged = {u: (other,), digits.root(): (u,)}
    assert patched.patched({u: (other,), digits.root(): (u,)}).table == merged
    for text in (
        "patched(patched(subtree(T-in-U); u:[d0]=>{u:[d0,d1]}); u:[]=>{u:[d0]}, u:[d0]=>{u:[d0,d0]})",
        "patched(subtree(T-in-U); u:[d0]=>{u:[d0,d0]}, u:[]=>{u:[d0]})",
    ):
        two = parse_cover(text, digits)
        assert type(two) is PatchedCover
        assert type(two.core) is BinaryInsideDigits
        assert two.table == merged


def test_table_cover_literal(tmp_path, ws):
    injs, bits, digits = ws
    tree = ExplicitTree.complete(2, 3)
    path = tmp_path / "tree.txt"
    path.write_text(tree.to_text())
    f = parse_cover(f"table({path}; r=>{{0}})", digits, lambda p: ExplicitTree.from_text(open(p).read()))
    assert f.values("r") == ["0"]
    assert f.values("0") == []


@pytest.mark.parametrize("rows", ["r=>{zz}", "zz=>{}", "zz=>{0}"])
def test_table_rows_name_known_nodes(tmp_path, ws, rows):
    injs, bits, digits = ws
    path = tmp_path / "tree.txt"
    path.write_text(ExplicitTree.complete(2, 3).to_text())
    with pytest.raises(ValueError, match="unknown explicit node 'zz'"):
        parse_cover(f"table({path}; {rows})", digits, lambda p: ExplicitTree.from_text(open(p).read()))


def test_table_over_two_roots_fails_before_its_rows(tmp_path, ws):
    injs, bits, digits = ws
    path = tmp_path / "forest.txt"
    path.write_text("r -\ns -\n")
    with pytest.raises(ValueError, match="needs one root"):
        parse_cover(f"table({path}; zz=>{{}})", digits, lambda p: ExplicitTree.from_text(open(p).read()))
